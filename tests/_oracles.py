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
the weight classes and grades built from the per-rank tables; and
annihilator_of_top_by_columns, which transposes the module's own xy
column tables, for the family row tables of modules._annihilator_of_top;
and row_tables_by_recursion, which fills x_i = A_i + lam_i B_i by the
straightening recursion, for those row tables and the closed-form B_i.
nullspace_reading_all inserts every equation, for the early exit of
fplin.nullspace.
weyl_dim and simple_dim_low_alcoves give dim L(lam) in closed form on
the two lowest alcoves, and from root data alone, for the head dims of
large modules.
check_stable confirms that a subspace handed to QuotientModule is
stable under the action.  The basis bookkeeping of an InducedModule
(monomial ranks, index_of, vector_at, leftmul on exponent tuples) and
decompose_weight are read only by tests, so they live here too.
"""

import random

from babyverma.fplin import Echelon, apply_columns, span_closure
from babyverma.modules import (
    QuotientModule,
    _kernel_lines,
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
        w = list(self.levi.weight_int(l))
        for k, a in enumerate(exps):
            if a:
                fk = self._fund[k]
                for i in range(len(w)):
                    w[i] -= a * fk[i]
        return tuple(w)

    def drop_int(self, exps, l):
        d = list(self.levi.drop_int(l))
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


def annihilator_of_top_by_columns(mod):
    """The radical of a graded module with one-dimensional top, as the
    annihilator of the closure of e*_high under the transposes of the
    module's own xy column tables, the closure on reversed indices."""
    n, p = mod.dim - 1, mod.p
    ops = []
    for op in mod.xy_ops():
        t = {}
        for j, col in op.items():
            for i, c in col.items():
                t.setdefault(n - i, {})[n - j] = c
        ops.append(t)
    w = span_closure(
        [{n - mod.high: 1}], ops, p, dim=mod.dim, grade=mod.grades()[::-1]
    ).rows
    rows = {f: {f: 1} for f in range(mod.dim) if n - f not in w}
    for rq, row in w.items():
        for ri, c in row.items():
            if ri != rq:
                rows[n - ri][n - rq] = p - c
    out = Echelon(p)
    out.rows = rows
    return out


def row_tables_by_recursion(mod):
    """Per active i, (A_i^T, B_i^T, Y_i^T) with op_matrix(x_i) = A_i +
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
        at, bt = (_reversed_rows(enumerate(t), rev) for t in (a, b))
        out.append((at, bt, _reversed_rows(enumerate(lm[mod.slot[g]]), rev)))
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


def check_stable(mod, sub):
    """Raise AssertionError unless the echelonized subspace sub of mod
    is stable under every simple x and y operator."""
    for row in sub.basis():
        for op in mod.xy_ops():
            if sub.reduce(apply_columns(op, row, mod.p)):
                raise AssertionError("subspace is not action-stable")


def classes_per_index(mod):
    """Weight classes and grades of mod from weight_int and drop_int of
    each basis index in turn, as the weight_classes and grades methods
    did before they read the per-rank tables."""
    p = mod.p
    classes, grades = {}, []
    for b in range(mod.dim):
        wt = tuple(v % p for v in mod.weight_int(b))
        kap = tuple(v % p for v in mod.drop_int(b))
        classes.setdefault(wt, {}).setdefault(kap, []).append(b)
        grades.append(wt)
    return classes, grades


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


def decompose_weight(lam, p):
    """lam = lam0 + p*lam1 with lam0 coordinates in [0, p)."""
    lam0 = tuple(x % p for x in lam)
    lam1 = tuple((x - r) // p for x, r in zip(lam, lam0))
    return lam0, lam1
