"""Independent cross-checks used by the tests.

The rank-one model is written down in closed form, and the randomized
verdicts only need the module's operator matrices, never its internal
bookkeeping.  Two slow paths of the engine are kept here as references
for its fast ones: TupleStraightener, the recursive straightening on
exponent tuples with per-call memos, for the integer column tables of
modules.InducedModule; and radical_vectors_per_line, which closes every
non-generating kernel line and then all of them together, for the
running graded sum of modules._radical_vectors; and
classes_per_index, which reads each basis index's weight and drop, for
the weight classes, grades and drops built from the per-rank tables; and
annihilator_of_top_by_columns, which transposes the module's own xy
column tables, for the family row tables of modules._annihilator_of_top;
and row_tables_by_recursion, which fills x_i = A_i + lam_i B_i by the
straightening recursion, for those row tables and the closed-form B_i;
and span_closure_depth_first, the last-in, first-out closure loop, for
the first-in, first-out queue of fplin.span_closure.
nullspace_reading_all inserts every equation, for the early exit of
fplin.nullspace.  maximal_vectors_per_class solves one small system per
weight class with no peeling, for the one peeled, class-graded
elimination of modules.maximal_vectors.
classes_by_tuple_sums adds residue tuples per index and groups the
tuple pairs, for the grades, drops and weight classes an InducedModule
reads from its family's residue ids.
apply_columns_by_addmul and EchelonByAddmul make every axpy through
fplin.addmul, for the inlined axpy of fplin.apply_columns,
Echelon.reduce and Echelon.insert; RowsAtByRows forms each row of
A^T + lam B^T on its first read, for the closed-form apply of
modules._RowsAt.
verify_commutators_by_apply and verify_frobenius_by_apply read
act_basis at every step and reduce every sum, for the per-key column
memo and closed forms of modules.verify_commutators and
verify_frobenius; levi_rows_per_index packs the probe's columns with one
pass per probe index, for the single grouping pass of
InducedModule._levi_rows.
weyl_dim and simple_dim_low_alcoves give dim L(lam) in closed form on
the two lowest alcoves, and from root data alone, for the head dims of
large modules.
check_stable confirms that a subspace handed to QuotientModule is
stable under the action.  weight_int and drop_int give a basis index's
integer weight and drop from its exponents and the root data, where the
modules keep both only mod p.  The basis bookkeeping of an InducedModule
(monomial ranks, index_of, vector_at, leftmul on exponent tuples),
decompose_weight, in_first_dominant_alcove, is_p_regular and
affine_dot_action are read only by tests, so they live here too.
"""

import itertools
import random

from babyverma import modules
from babyverma.fplin import Echelon, addmul, apply_columns, fp_inv, nullspace, span_closure
from babyverma.modules import (
    HeadModule,
    InducedModule,
    QuotientModule,
    TrivialLevi,
    _kernel_lines,
    _packed,
    _Probe,
    _reversed_rows,
    _through,
    generates,
)


def sl2_matrices(p, lam, chival):
    """Closed-form operator columns for the rank-one induced module
    with highest weight lam and character value chival on y.

    Basis vector a is y^a applied to the highest weight line, so
      h: a -> (lam - 2a),
      x: a -> a(lam - a + 1) at a-1,
      y: a -> a+1, wrapping to chival^p at 0.
    Returned in the same {column: {row: value}} shape the module
    classes use.
    """
    lam %= p
    x = {}
    y = {}
    h = {}
    for a in range(p):
        hv = (lam - 2 * a) % p
        if hv:
            h[a] = {a: hv}
        if a > 0:
            xv = (a * (lam - a + 1)) % p
            if xv:
                x[a] = {a - 1: xv}
        if a < p - 1:
            y[a] = {a + 1: 1}
        else:
            wrap = pow(chival, p, p)
            if wrap:
                y[a] = {0: wrap}
    return {"x": x, "y": y, "h": h}


def transpose_cols(cols):
    out = {}
    for c, column in cols.items():
        for r, v in column.items():
            out.setdefault(r, {})[c] = v
    return out


def _mat_apply(cols, vec, p):
    out = {}
    for c, coeff in vec.items():
        column = cols.get(c)
        if not column:
            continue
        for r, v in column.items():
            w = (out.get(r, 0) + coeff * v) % p
            if w:
                out[r] = w
            elif r in out:
                del out[r]
    return out


def _dense(cols, dim, p):
    m = [[0] * dim for _ in range(dim)]
    for c, column in cols.items():
        for r, v in column.items():
            m[r][c] = v % p
    return m


def _dense_mul(a, b, p):
    dim = len(a)
    out = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        ai = a[i]
        oi = out[i]
        for k in range(dim):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(dim):
                    if bk[j]:
                        oi[j] = (oi[j] + v * bk[j]) % p
    return out


def _dense_nullspace(m, p):
    """Kernel basis of a dense square matrix by row reduction."""
    dim = len(m)
    rows = [list(r) for r in m]
    pivots = {}
    rank = 0
    for col in range(dim):
        piv = None
        for r in range(rank, dim):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(dim):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    for col in range(dim):
        if col in pivots:
            continue
        vec = {col: 1}
        for pc, pr in pivots.items():
            v = (-rows[pr][col]) % p
            if v:
                vec[pc] = v
        basis.append(vec)
    return basis


def _proj_lines(basis, p):
    """All projective lines in the span of the kernel basis."""
    d = len(basis)

    def rec(prefix):
        if len(prefix) == d:
            yield prefix
            return
        for c in range(p):
            yield from rec(prefix + [c])

    for lead in range(d):
        for coeffs in rec([0] * lead + [1]):
            vec = {}
            for c, bv in zip(coeffs, basis):
                for k, v in bv.items():
                    w = (vec.get(k, 0) + c * v) % p
                    if w:
                        vec[k] = w
                    elif k in vec:
                        del vec[k]
            yield vec


def _generates(vec, ops, dim, p):
    return span_closure([vec], ops, p, dim=dim).rank() == dim


def cyclic_verdict(ops, h_diags, dim, p, line_cap=40000):
    """Deterministic brute-force verdict: enumerate every projective
    line inside every joint eigenspace of the torus generators and ask
    whether it generates.  Any nonzero vector of a proper submodule has
    a nonzero eigenspace component inside the submodule, so the module
    is irreducible exactly when all these lines generate."""
    classes = {}
    for b in range(dim):
        # each torus matrix is diagonal, column b holds only entry (b, b)
        wt = tuple(d.get(b, {}).get(b, 0) for d in h_diags)
        classes.setdefault(wt, []).append(b)
    total = sum((p ** len(c) - 1) // (p - 1) for c in classes.values())
    if total > line_cap:
        raise ValueError("too many lines to enumerate: %d" % total)
    for idxs in classes.values():
        basis = [{b: 1} for b in idxs]
        for vec in _proj_lines(basis, p):
            if not _generates(vec, ops, dim, p):
                return False
    return True


def norton_verdict(ops, dim, p, seed=0, tries=60, line_cap=700):
    """Randomized irreducibility verdict from the operator matrices
    alone.  Picks singular elements theta of the enveloping algebra of
    the given operators; a kernel vector of theta that fails to
    generate certifies a proper submodule, while Norton's criterion
    (every kernel vector of theta generates, and some kernel vector of
    the transpose generates under the transposed operators) certifies
    irreducibility.  Returns True, False, or None when undecided."""
    rng = random.Random(seed)
    dense_ops = [_dense(cols, dim, p) for cols in ops]
    ident = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    tops = [transpose_cols(cols) for cols in ops]
    for _ in range(tries):
        theta = [[0] * dim for _ in range(dim)]
        for _ in range(rng.randint(2, 4)):
            word = ident
            for _ in range(rng.randint(1, 3)):
                word = _dense_mul(word, rng.choice(dense_ops), p)
            c = rng.randrange(1, p)
            for i in range(dim):
                wi = word[i]
                ti = theta[i]
                for j in range(dim):
                    if wi[j]:
                        ti[j] = (ti[j] + c * wi[j]) % p
        kernel = _dense_nullspace(theta, p)
        if not kernel or len(kernel) == dim:
            continue
        if (p ** len(kernel) - 1) // (p - 1) > line_cap:
            continue
        bad = None
        for vec in _proj_lines(kernel, p):
            if not _generates(vec, ops, dim, p):
                bad = vec
                break
        if bad is not None:
            return False
        tkernel = _dense_nullspace([list(r) for r in zip(*theta)], p)
        for vec in _proj_lines(tkernel, p):
            if _generates(vec, tops, dim, p):
                return True
    return None


# ---- slow paths of the engine, kept as references ----


def _bump(acc, key, val, p):
    v = (acc.get(key, 0) + val) % p
    if v:
        acc[key] = v
    elif key in acc:
        del acc[key]


class TupleStraightener:
    """Left multiplication on the ordered basis y^a (tensor) l, keyed by
    (exps, l) tuples and memoised per call."""

    def __init__(self, alg, chi, order, levi):
        self.alg = alg
        self.p = chi.p
        self.order = tuple(order)
        self.levi = levi
        self.slot = {g: k for k, g in enumerate(self.order)}
        self.chival = [chi.at_root(g) for g in self.order]
        self._fund = [alg.rs.fund(g) for g in self.order]
        self._lm = {}
        self._act = {}

    def leftmul(self, k, exps):
        key = (k, exps)
        got = self._lm.get(key)
        if got is not None:
            return got
        p = self.p
        j = next((i for i, a in enumerate(exps) if a), None)
        if j is None or k <= j:
            a = exps[k]
            if a + 1 < p:
                out = {exps[:k] + (a + 1,) + exps[k + 1 :]: 1}
            else:
                c = self.chival[k]
                out = {}
                if c:
                    out = {exps[:k] + (0,) + exps[k + 1 :]: pow(c, p, p)}
        else:
            base = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
            out = {}
            for e1, c1 in self.leftmul(k, base).items():
                for e2, c2 in self.leftmul(j, e1).items():
                    _bump(out, e2, c1 * c2, p)
            s = tuple(x + y for x, y in zip(self.order[k], self.order[j]))
            if s in self.slot:
                c = (-int(self.alg.nconst(self.order[k], self.order[j]))) % p
                if c:
                    for e2, c2 in self.leftmul(self.slot[s], base).items():
                        _bump(out, e2, c * c2, p)
        self._lm[key] = out
        return out

    def weight_int(self, exps, l):
        w = list(weight_int(self.levi, l))
        for k, a in enumerate(exps):
            if a:
                fk = self._fund[k]
                for i in range(len(w)):
                    w[i] -= a * fk[i]
        return tuple(w)

    def drop_int(self, exps, l):
        d = list(drop_int(self.levi, l))
        for k, a in enumerate(exps):
            if a:
                g = self.order[k]
                for i in range(len(d)):
                    d[i] += a * g[i]
        return tuple(d)

    def act(self, gkey, exps, l):
        """Action of a basis generator on the basis vector y^exps
        (tensor) l, as a dict (exps', l') -> coefficient."""
        p = self.p
        if gkey[0] == "h":
            c = self.weight_int(exps, l)[gkey[1] - 1] % p
            return {(exps, l): c} if c else {}
        key = (gkey, exps, l)
        got = self._act.get(key)
        if got is not None:
            return got
        j = next((i for i, a in enumerate(exps) if a), None)
        if j is None:
            typ, g = gkey
            if g in self.slot:
                if typ == "y":
                    out = {
                        (e, l): c for e, c in self.leftmul(self.slot[g], exps).items()
                    }
                else:
                    out = {}
            else:
                out = {}
                for l2, c in self.levi.act_basis(gkey, l).items():
                    if c % p:
                        out[(exps, l2)] = c % p
        else:
            rest = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
            sub = self._act.get((gkey, rest, l))
            if sub is None:
                # fill the lower exponents of slot j bottom-up, so the
                # recursion stays one level deep in this slot
                for a in range(1, exps[j] - 1):
                    self.act(gkey, exps[:j] + (a,) + exps[j + 1 :], l)
                sub = self.act(gkey, rest, l)
            out = {}
            for (e1, l1), c1 in sub.items():
                for e2, c2 in self.leftmul(j, e1).items():
                    _bump(out, (e2, l1), c1 * c2, p)
            for bkey, bc in self.alg.bracket(gkey, ("y", self.order[j])).items():
                for (e2, l2), c2 in self.act(bkey, rest, l).items():
                    _bump(out, (e2, l2), bc * c2, p)
        self._act[key] = out
        return out


def radical_vectors_per_line(mod, cap=10000):
    """Vectors spanning the radical: close every kernel line that does
    not generate, then all of them together, then recurse into the
    quotient by that closure."""
    _, lines = _kernel_lines(mod, cap)
    bad = [v for _, v in lines if not generates(mod, v)]
    if not bad:
        return []
    sub = span_closure(bad, mod.xy_ops(), mod.p, grade=mod.grades())
    q = QuotientModule(mod, sub)
    out = [dict(r) for r in sub.basis()]
    for v in radical_vectors_per_line(q, cap):
        out.append(q.lift(v))
    return out


def span_closure_depth_first(seeds, ops, p, dim=None, grade=None, stop=None):
    """fplin.span_closure with its queue popped last in, first out: the
    depth-first order the closure ran in before its queue became first
    in, first out.  A closure run to the end has the same rows."""
    space = Echelon.graded(p, grade)
    target = None if stop is None else {stop: 1}
    queue = []

    def insert(v):
        # True once e_stop lies in the span; in RREF that is when its
        # row is exactly e_stop
        if not v:
            return False
        r = space.insert(v)
        if r is None:
            return False
        queue.append(r)
        return target is not None and space.rows.get(stop) == target

    done = False
    for s in seeds:
        if grade is not None and len({grade[i] for i in s}) > 1:
            raise ValueError("seed is not homogeneous for the grading")
        done = insert(s) or done
    while queue and not done:
        if dim is not None and space.rank() >= dim:
            break
        v = queue.pop()
        for op in ops:
            if insert(apply_columns(op, v, p)):
                done = True
                break
    return space


def annihilator_of_top_by_columns(mod, closure=span_closure):
    """The radical of a graded module with one-dimensional top, as the
    annihilator of the closure of e*_high under the transposes of the
    module's own xy column tables, the closure on reversed indices and
    made by closure."""
    n, p = mod.dim - 1, mod.p
    ops = []
    for op in mod.xy_ops():
        t = {}
        for j, col in op.items():
            for i, c in col.items():
                t.setdefault(n - i, {})[n - j] = c
        ops.append(t)
    w = closure([{n - mod.high: 1}], ops, p, dim=mod.dim, grade=mod.grades()[::-1]).rows
    rows = {f: {f: 1} for f in range(mod.dim) if n - f not in w}
    for rq, row in w.items():
        for ri, c in row.items():
            if ri != rq:
                rows[n - ri][n - rq] = p - c
    out = Echelon(p)
    out.rows = rows
    return out


def row_tables_by_recursion(mod):
    """Per active i, (A_i^T, B_i^T) with op_matrix(x_i) = A_i +
    lam_i B_i, for a module whose top_rows() exist: A_i and B_i filled
    column by column in one pass over ranks, as _fill fills a column
    table, x y_j y^rest = y_j (x y^rest) + [x, y_j] y^rest, where h_i
    acts on y^rest by lam_i + mwt[rest][i-1].  Transposed on reversed
    indices as top_rows() keeps them."""
    p, n, lead, stride, lm = mod.p, mod.dim - 1, mod._lead, mod.stride, mod._lm
    rev = list(range(n, -1, -1))
    out = []
    for i in mod.active:
        g = mod.rs.simple(i)
        brk = [mod.alg.bracket(("x", g), ("y", c)).items() for c in mod.order]
        a, b = [{}], [{}]
        for r in range(1, n + 1):
            j = lead[r]
            rest = r - stride[j]
            oa, ob = _through(a[rest], lm[j]), _through(b[rest], lm[j])
            for (t, h), c in brk[j]:
                if t == "h":
                    oa[rest] = oa.get(rest, 0) + c * mod._mwt[rest][h - 1]
                    ob[rest] = ob.get(rest, 0) + c
                else:
                    for r2, c2 in lm[mod.slot[h]][rest].items():
                        oa[r2] = oa.get(r2, 0) + c * c2
            a.append({k: v % p for k, v in oa.items() if v % p})
            b.append({k: v % p for k, v in ob.items() if v % p})
        out.append(tuple(_reversed_rows(enumerate(t), rev) for t in (a, b)))
    return out


def nullspace_reading_all(equations, ncols, p):
    """Kernel basis as fplin.nullspace gives it, inserting every
    equation before reading the free columns."""
    ech = Echelon(p)
    for eq in equations:
        ech.insert(eq)
    out = []
    for f in range(ncols):
        if f not in ech.rows:
            v = {f: 1}
            for q, row in ech.rows.items():
                if row.get(f):
                    v[q] = (-row[f]) % p
            out.append(v)
    return out


def maximal_vectors_per_class(mod):
    """modules.maximal_vectors solved class by class: for each
    (weight, drop) class, the equations "row i of x_t" on the class's
    columns go to fplin.nullspace in local coordinates."""
    ops = mod.raising_ops()
    out = {}
    for wt, groups in mod.weight_classes().items():
        for kap, idxs in groups.items():
            eqs = {}
            for t, op in enumerate(ops):
                for j, b in enumerate(idxs):
                    for i, c in op.get(b, {}).items():
                        eqs.setdefault((t, i), {})[j] = c
            vecs = nullspace(eqs.values(), len(idxs), mod.p)
            if vecs:
                out[(wt, kap)] = [{idxs[i]: c for i, c in v.items()} for v in vecs]
    return out


def _apply(mod, key, vec):
    # image of vec under one basis generator, through act_basis
    out = {}
    for b, c in vec.items():
        addmul(out, mod.act_basis(key, b), c, mod.p)
    return out


def verify_commutators_by_apply(mod, seed=0):
    """modules.verify_commutators reading act_basis at every step and
    reducing every sum mod p: the same triples, in the same order."""
    p = mod.p
    keys = list(mod.alg.basis)
    if mod.dim <= modules.EXHAUSTIVE_LIMIT:
        triples = (
            (a, b, c)
            for ai, a in enumerate(keys)
            for b in keys[ai + 1 :]
            for c in range(mod.dim)
        )
    else:
        rng = random.Random(seed)
        triples = (
            (keys[rng.randrange(len(keys))], keys[rng.randrange(len(keys))],
             rng.randrange(mod.dim))
            for _ in range(modules.SAMPLES)
        )
    for a, b, c in triples:
        lhs = _apply(mod, a, mod.act_basis(b, c))
        addmul(lhs, _apply(mod, b, mod.act_basis(a, c)), -1, p)
        rhs = {}
        for k, cf in mod.alg.bracket(a, b).items():
            addmul(rhs, mod.act_basis(k, c), cf, p)
        if lhs != rhs:
            raise AssertionError(
                "commutator mismatch at (%r, %r) on basis %d" % (a, b, c)
            )
    return True


def verify_frobenius_by_apply(mod, seed=0):
    """modules.verify_frobenius applying each power chain step by step
    through act_basis, with no column memo and no closed form: the same
    basis vectors, in the same order."""
    p = mod.p
    if mod.dim <= modules.SAMPLE_LIMIT:
        idxs = range(mod.dim)
    else:
        rng = random.Random(seed)
        idxs = sorted(rng.sample(range(mod.dim), modules.SAMPLE_LIMIT))
    for key in mod.alg.basis:
        scalar = pow(mod.chi.at_root(key[1]), p, p) if key[0] == "y" else 0
        for b in idxs:
            v = {b: 1}
            for _ in range(p):
                if not v:  # g.0 = 0: the chain ends at 0
                    break
                v = _apply(mod, key, v)
            if key[0] == "h":
                want = mod.act_basis(key, b)
            else:
                want = {b: scalar} if scalar else {}
            if v != want:
                raise AssertionError(
                    "p-th power law fails for %r at basis %d" % (key, b)
                )
    return True


def levi_rows_per_index(mod, gkey):
    """InducedModule._levi_rows of gkey from a probe straightened afresh,
    packed with one pass over every probe column per probe index."""
    keys = [None] + [("y", b) for b in mod.rs.roots if b not in mod.slot]
    w, n = len(keys), mod.p**mod.m
    probe = InducedModule(mod.alg, mod.chi, mod.order, _Probe(keys, mod.rs.n))
    brk = {k for y in mod.order for k in mod.alg.bracket(gkey, ("y", y))}
    probe._cols.update((k, probe._reader(k)) for k in keys if k in brk)
    cols = probe._straighten(gkey, w)
    parts = []
    for t, pk in enumerate(keys):
        rows = [[(b // w, c) for b, c in cols.get(r * w, {}).items() if b % w == t]
                for r in range(n)]
        if pk is None or pk != gkey and any(rows):
            flat = [e for row in rows for e in row]
            off = _packed(itertools.accumulate(map(len, rows), initial=0), len(flat) + 1)
            parts.append((pk, off, _packed([r for r, _ in flat], n),
                          _packed([c for _, c in flat], mod.p)))
    return parts


def classes_by_tuple_sums(mod):
    """Grades, drops and weight classes of an InducedModule by the
    per-index tuple pass it made them by before it read family residue
    ids: per_rank[r] + per_levi[l] mod p at each index r * levi.dim + l,
    one tuple sum per distinct (per_rank[r], l), then every index's
    (weight, drop) grouped in one ascending pass."""
    p = mod.p

    def sums_mod_p(per_rank, per_levi):
        ids = {}
        rid = [ids.setdefault(w, len(ids)) for w in per_rank]
        sums = [[tuple([(a + b) % p for a, b in zip(k, w)]) for w in per_levi] for k in ids]
        return [s for i in rid for s in sums[i]]

    grades = sums_mod_p(mod._mwt, mod.levi.grades())
    drops = sums_mod_p(mod._mdrop, mod.levi.drops())
    classes = {}
    for b, (wt, kap) in enumerate(zip(grades, drops)):
        classes.setdefault(wt, {}).setdefault(kap, []).append(b)
    return grades, drops, classes


def apply_columns_by_addmul(op, vec, p):
    """fplin.apply_columns on a column-form op, one addmul per column."""
    out = {}
    for j, c in vec.items():
        col = op.get(j)
        if col:
            addmul(out, col, c, p)
    return out


class EchelonByAddmul(Echelon):
    """fplin.Echelon with each subtraction in reduce and insert made by
    addmul."""

    def reduce(self, vec):
        p = self.p
        v = dict(vec)
        for q in [k for k in v if k in self.rows]:
            c = v.get(q, 0)
            if c:
                addmul(v, self.rows[q], -c, p)
        return v

    def insert(self, vec):
        p = self.p
        v = self.reduce(vec)
        if not v:
            return None
        j = min(v)
        cinv = fp_inv(v[j], p)
        if cinv != 1:
            v = {k: (cinv * c) % p for k, c in v.items()}
        rows = self.rows if self.grade is None else self.parts.get(self.grade[j])
        if rows is None:
            rows = self.parts[self.grade[j]] = {}
        for row in rows.values():
            c = row.get(j)
            if c:
                addmul(row, v, -c, p)
        rows[j] = self.rows[j] = v
        return v


class RowsAtByRows:
    """The rows of A + lam B mod p on reversed indices, read through get()
    as a column-form operator: row j of B^T is -d at j - stride, where
    d = (j // stride) % p is the slot's digit of j; a row with d = 0 is A's
    own dict, any other is formed on its first read and kept."""

    def __init__(self, a, stride, lam, p):
        self.a, self.stride, self.lam, self.p = a, stride, lam % p, p
        self.rows = {}

    def get(self, j):
        row = self.rows.get(j)
        if row is None:
            d = (j // self.stride) % self.p
            if not d:
                return self.a.get(j)
            row = dict(self.a.get(j, {}))
            self.rows[j] = addmul(row, {j - self.stride: -d}, self.lam, self.p)
        return row


def check_stable(mod, sub):
    """Raise AssertionError unless the echelonized subspace sub of mod
    is stable under every simple x and y operator."""
    for row in sub.basis():
        for op in mod.xy_ops():
            if sub.reduce(apply_columns(op, row, mod.p)):
                raise AssertionError("subspace is not action-stable")


def classes_per_index(mod, p):
    """Weight classes, grades and drops mod p of mod from weight_int and
    drop_int of each basis index in turn, as the weight_classes and
    grades methods did before they read the per-rank tables."""
    classes, grades, drops = {}, [], []
    for b in range(mod.dim):
        wt = tuple(v % p for v in weight_int(mod, b))
        kap = tuple(v % p for v in drop_int(mod, b))
        classes.setdefault(wt, {}).setdefault(kap, []).append(b)
        grades.append(wt)
        drops.append(kap)
    return classes, grades, drops


def weight_int(mod, b):
    """Integer weight of basis index b: a TrivialLevi's lam; a quotient's
    or a head's at its parent index keep[b]; on an induced module
    y^a (tensor) l, the base's weight at l minus a_k times each slot root,
    in fundamental coordinates."""
    if isinstance(mod, TrivialLevi):
        return mod.lam
    if isinstance(mod, (QuotientModule, HeadModule)):
        return weight_int(mod.parent, mod.keep[b])
    r, l = divmod(b, mod.levi.dim)
    w = list(weight_int(mod.levi, l))
    for a, g in zip(monomial_exps(mod, r), mod.order):
        w = [x - a * f for x, f in zip(w, mod.rs.fund(g))]
    return tuple(w)


def drop_int(mod, b):
    """Integer drop of basis index b, in simple-root coordinates: zero
    on a TrivialLevi; a quotient's or a head's at keep[b]; on
    y^a (tensor) l, the base's drop at l plus a_k times each slot root."""
    if isinstance(mod, TrivialLevi):
        return (0,) * len(mod.lam)
    if isinstance(mod, (QuotientModule, HeadModule)):
        return drop_int(mod.parent, mod.keep[b])
    r, l = divmod(b, mod.levi.dim)
    d = list(drop_int(mod.levi, l))
    for a, g in zip(monomial_exps(mod, r), mod.order):
        d = [x + a * c for x, c in zip(d, g)]
    return tuple(d)


# ---- basis bookkeeping of an InducedModule, for tests ----


def monomial_rank(mod, exps):
    """Rank of y^exps: mixed radix p, slot 0 most significant."""
    r = 0
    for a in exps:
        r = r * mod.p + a
    return r


def monomial_exps(mod, r):
    return tuple((r // s) % mod.p for s in mod.stride)


def index_of(mod, exps, l):
    return monomial_rank(mod, exps) * mod.levi.dim + l


def vector_at(mod, b):
    r, l = divmod(b, mod.levi.dim)
    return monomial_exps(mod, r), l


def leftmul(mod, k, exps):
    """y_k . y^exps inside the chi-reduced nilradical, as
    {exps': coeff}, read from the module's slot table."""
    col = mod._lm[k][monomial_rank(mod, exps)]
    return {monomial_exps(mod, r): c for r, c in col.items()}


def weyl_dim(rs, lam, roots=None):
    """Weyl's dimension formula, the product over the positive roots of
    <lam + rho, a^vee> / <rho, a^vee>, read from RootSystem.pairing
    alone.  roots restricts the product, to R_J^+ for a Levi's formula
    (rho - rho_J pairs to zero with every J coroot)."""
    rho = (1,) * rs.n
    num = den = 1
    for a in rs.roots if roots is None else roots:
        num *= rs.pairing([x + 1 for x in lam], a)
        den *= rs.pairing(rho, a)
    return num // den


def simple_dim_low_alcoves(rs, lam, p):
    """dim L(lam) for a dominant lam in the two lowest p-alcoves, else
    None (Jantzen, Representations of Algebraic Groups, Part II).  With
    a0 the root whose coroot pairs highest with rho: on the closed bottom
    alcove, <lam + rho, a0^vee> <= p, it is Weyl's dimension; for p >= h
    on the closed second alcove, where mu = s_(a0,p).lam lies in the
    closed bottom one, it is dim V(lam) - dim V(mu)."""
    rho = (1,) * rs.n
    a0 = max(rs.roots, key=lambda a: rs.pairing(rho, a))
    top = rs.pairing([x + 1 for x in lam], a0)
    if top <= p:
        return weyl_dim(rs, lam)
    if rs.pairing(rho, a0) + 1 > p:
        return None
    mu = [x - (top - p) * c for x, c in zip(lam, rs.fund(a0))]
    if all(0 <= rs.pairing([x + 1 for x in mu], a) <= p for a in rs.roots):
        return weyl_dim(rs, lam) - weyl_dim(rs, mu)
    return None


def in_first_dominant_alcove(rs, lam, p):
    """Whether <lam + rho, a^vee> lies in [0, p) for every positive root."""
    mu = tuple(x + 1 for x in lam)
    return all(0 <= rs.pairing(mu, g) < p for g in rs.roots)


def is_p_regular(rs, lam, p):
    """Whether p divides no <lam + rho, a^vee> over the positive roots."""
    mu = tuple(x + 1 for x in lam)
    return all(rs.pairing(mu, g) % p != 0 for g in rs.roots)


def affine_dot_action(rs, word, lam, p):
    """RootSystem.dot_action with affine reflections: a word item is a
    simple index i, meaning s_i, or a pair (alpha, r), meaning the affine
    reflection s_(alpha, rp), mu -> mu - (<mu, alpha^vee> - rp) alpha on
    mu = lam + rho (alpha a root tuple or a simple index).  Items compose
    right to left."""
    mu = tuple(x + 1 for x in lam)
    for item in reversed(list(word)):
        if isinstance(item, int):
            mu = rs.reflect(mu, item)
        else:
            alpha, r = item
            if isinstance(alpha, int):
                alpha = rs.simple(alpha)
            c = rs.pairing(mu, alpha) - r * p
            mu = tuple(x - c * a for x, a in zip(mu, rs.fund(tuple(alpha))))
    return tuple(x - 1 for x in mu)


def decompose_weight(lam, p):
    """lam = lam0 + p*lam1 with lam0 coordinates in [0, p)."""
    lam0 = tuple(x % p for x in lam)
    lam1 = tuple((x - r) // p for x, r in zip(lam, lam0))
    return lam0, lam1
