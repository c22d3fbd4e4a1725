"""Finite-dimensional induced modules and their irreducibility.

The central object is InducedModule, the induced module on the basis
y^a (tensor) l: exponent tuples over the fixed u_J^- order of
pbw.fix_order times a base-module index, numbered by integers.  It
straightens left multiplication by root vectors into that basis,
reducing p-th powers through the p-character.  Left multiplication by
each slot is one table over monomial ranks, and the u_J^- root vectors
act through it alone, on the y^a factor.  These tables and the weight
and drop shift of each monomial do not depend on the highest weight:
they are built once per (algebra, p, u_J^- order, chi on the slots),
shared by every module of that family and read-only.  The weight
classes and grades are read from them.  Every other x or y generator
acts through one column table over indices, filled whole in index order
on the generator's first use and held by op_matrix; act_basis reads it.
The base is any module: the one-dimensional weight space (when the Levi
part of the weight vanishes mod p) or the simple head of the Levi's own
restricted highest-weight module, which is head() of that Verma module.

Irreducibility is decided exactly: any nonzero submodule contains a
nonzero vector killed by all active raising operators (repeated raising
strictly lowers the total drop height, which is bounded), and splitting
such a vector into torus eigencomponents keeps it in the submodule.  So
the module is irreducible iff every line in every per-weight-class
joint kernel of the raising operators generates.  Line counts are
capped; hitting the cap raises instead of guessing.

Each generation test is a span closure graded by weight mod p: one
echelon per weight class, so an insert reduces only against rows of its
own weight.  Every module built here is cyclic on its highest vector,
so the closure stops as soon as that vector is reached; only a line
that fails to generate is closed to full rank.  This decides the
33 614-dimensional A3 p=7 I={1,2} lambda=(1,1,1) module in seconds.

The radical takes one of two paths, by what the module is.  With a
one-dimensional base, chi zero on every u_J^- slot and every active
simple root a slot (every chi = 0 baby Verma module and every Levi Verma
module behind a Levi head), the module is a graded G_1T-module with the
highest vector's line as its top weight space, so the radical is the
annihilator of the closure of e*_high under the transposed action: one
closure of rank dim(head).  There op_matrix(x_i) = A_i + lam_i B_i mod p:
the family keeps the transposed rows of A_i, which is x_i at lam = 0, and
of y_i; B_i removes one y_(alpha_i), times its exponent, and is read in
closed form.  So the closure builds no column table of the module.
Any other module sums the closures of its non-generating kernel lines
as it goes, skipping lines already in the sum, and checks on the way
that the head is simple, which it relies on: HeadNotSimple refuses a
module outside that premise.
"""

import itertools
import random

from .fplin import Echelon, GradedEchelon, addmul, joint_kernel, span_closure
from .chevalley import PChar
from .pbw import fix_order
from .roots import LeviDatum


# default caps: basis vectors of a built module, kernel lines tested
DIM_CAP = 50000
LINES_CAP = 10000


class CapExceeded(Exception):
    """A requested construction or search exceeds its size bound."""


class HeadNotSimple(ValueError):
    """The module's head is seen not to be simple: the module lies
    outside the premise radical() and head() rest on."""


# ---- base modules for the induction ----


class TrivialLevi:
    """One-dimensional base: all Levi root vectors act by zero, the
    torus through the fixed weight.  This is the simple head exactly
    when every Levi coordinate of the weight is 0 mod p."""

    def __init__(self, lam):
        self.lam = tuple(int(x) for x in lam)
        self.dim = 1
        self.high = 0

    def weight_int(self, b):
        return self.lam

    def drop_int(self, b):
        return (0,) * len(self.lam)

    def act_basis(self, key, b):
        return {}


# ---- module containers ----


class ModuleBase:
    def op_matrix(self, key):
        """The one column table of key, {b: nonzero column}, made by _fill."""
        cols = self._cols.get(key)
        if cols is None:
            cols = self._cols[key] = self._fill(key)
        return cols

    def _fill(self, key):
        return {b: img for b in range(self.dim) if (img := self.act_basis(key, b))}

    def xy_ops(self):
        ops = []
        for i in self.active:
            g = self.rs.simple(i)
            ops.append(self.op_matrix(("x", g)))
            ops.append(self.op_matrix(("y", g)))
        return ops

    def raising_ops(self):
        return [self.op_matrix(("x", self.rs.simple(i))) for i in self.active]

    def weight_classes(self):
        """Basis indices grouped by weight mod p, then by drop mod p, in
        one ascending pass: each group in the order of its first index."""
        if self._classes is None:
            classes = {}
            for b, (wt, kap) in enumerate(zip(self.grades(), self._drops())):
                classes.setdefault(wt, {}).setdefault(kap, []).append(b)
            self._classes = classes
        return self._classes


class InducedModule(ModuleBase):
    """Induced module on the ordered basis y^a (tensor) l, on integer
    indices.

    order fixes the u_J^- slots; levi is the finite base module, read
    through the module interface, its weights and drops once into lists.
    A monomial y^a has rank a_0 p^(m-1) + ... + a_(m-1): mixed radix p,
    slot 0 most significant.  The basis vector y^a (tensor) l has index
    rank(a) * levi.dim + l, so the highest vector is levi.high.  All
    coefficients are reduced mod p; p-th powers of the u_J^- vectors
    collapse through chi.
    """

    def __init__(self, alg, chi, order, levi, active=None):
        self.alg = alg
        self.rs = alg.rs
        self.chi = chi
        self.p = chi.p
        self.order = tuple(order)
        self.m = len(self.order)
        self.levi = levi
        self.dim = self.p**self.m * levi.dim
        if active is None:
            active = tuple(range(1, self.rs.n + 1))
        self.active = tuple(active)
        self.high = levi.high
        self.lam = levi.weight_int(levi.high)
        self._lw = [levi.weight_int(l) for l in range(levi.dim)]
        self._ld = [levi.drop_int(l) for l in range(levi.dim)]
        self.slot = {g: k for k, g in enumerate(self.order)}
        self.chival = [chi.at_root(g) for g in self.order]
        self.stride = [self.p ** (self.m - 1 - k) for k in range(self.m)]
        # one copy per family for the algebra's lifetime: besides the
        # algebra, the key holds all that _tables reads
        shared = alg.module_tables
        key = (self.p, self.order, tuple(self.chival))
        if key not in shared:
            shared[key] = self._tables()
        self._lead, self._mwt, self._mdrop, self._lm = shared[key]
        self._cols = {}
        self._classes = None
        self._grades = None

    def _tables(self):
        """Per-rank tables: lead[r], the leading (first nonzero) slot of
        r; mwt[r] and mdrop[r], the weight and drop shifts of y^r; and
        lm[k][r], y_k . y^r as {rank: coeff}.

        For k past the leading slot j of r, y_k y_j y^rest = y_j (y_k
        y^rest) + [y_k, y_j] y^rest.  The terms read y_k and y_[k,j] on
        the lower-degree rest, and y_j on monomials of degree at most
        deg(r) with j < k.  Filling by degree, then by slot, therefore
        writes every entry before it is read."""
        p, m, stride, order = self.p, self.m, self.stride, self.order
        n = p**m
        lead = [m] * n
        for k in range(m):
            lead[stride[k] : stride[k] * p] = [k] * (stride[k] * (p - 1))
        fund = [self.rs.fund(g) for g in order]
        mwt = [(0,) * self.rs.n] * n
        mdrop = list(mwt)
        by_deg = [[0]] + [[] for _ in range(m * (p - 1))]
        deg = [0] * n
        for r in range(1, n):
            j = lead[r]
            rest = r - stride[j]
            mwt[r] = tuple(w - f for w, f in zip(mwt[rest], fund[j]))
            mdrop[r] = tuple(d + g for d, g in zip(mdrop[rest], order[j]))
            deg[r] = deg[rest] + 1
            by_deg[deg[r]].append(r)
        # brk[k][j]: [y_k, y_j] for j < k, as (slot, coeff) pairs
        ys = [("y", g) for g in order]
        brk = [
            [
                [(self.slot[y[1]], c) for y, c in self.alg.bracket(yk, yj).items()]
                for yj in ys[:k]
            ]
            for k, yk in enumerate(ys)
        ]
        tabs = [[None] * n for _ in range(m)]
        for ranks in by_deg:
            for k in range(m):
                tk = tabs[k]
                sk = stride[k]
                wrap = pow(self.chival[k], p, p)
                for r in ranks:
                    j = lead[r]
                    if k <= j:
                        if (r // sk) % p + 1 < p:
                            tk[r] = {r + sk: 1}
                        else:
                            tk[r] = {r - (p - 1) * sk: wrap} if wrap else {}
                        continue
                    rest = r - stride[j]
                    out = _through(tk[rest], tabs[j])
                    for s, c in brk[k][j]:
                        for e2, c2 in tabs[s][rest].items():
                            out[e2] = out.get(e2, 0) + c * c2
                    tk[r] = {e: v % p for e, v in out.items() if v % p}
        return lead, mwt, mdrop, tabs

    def grades(self):
        """Weight mod p of each basis index.  The torus acts diagonally
        and each x/y moves the weight by a root, so the xy action maps
        a weight-homogeneous vector to a weight-homogeneous one."""
        if self._grades is None:
            self._grades = self._sums_mod_p(self._mwt, self._lw)
        return self._grades

    def _drops(self):
        return self._sums_mod_p(self._mdrop, self._ld)

    def _sums_mod_p(self, per_rank, per_levi):
        # per_rank[r] + per_levi[l] mod p at each index r * levi.dim + l,
        # one shared tuple per distinct (per_rank[r] mod p, l)
        p = self.p
        ids = {}
        rid = [ids.setdefault(tuple([v % p for v in w]), len(ids)) for w in per_rank]
        sums = [
            [tuple([(a + b) % p for a, b in zip(k, w)]) for w in per_levi] for k in ids
        ]
        return [s for i in rid for s in sums[i]]

    def weight_int(self, b):
        r, l = divmod(b, self.levi.dim)
        return tuple(w + s for w, s in zip(self._lw[l], self._mwt[r]))

    def drop_int(self, b):
        r, l = divmod(b, self.levi.dim)
        return tuple(d + s for d, s in zip(self._ld[l], self._mdrop[r]))

    def act_basis(self, gkey, b):
        """Action of a basis generator on the basis vector of index b,
        as {index: coeff}: h reads the grades, a u_J^- root vector its
        slot table _lm, any other key column b of its table in _cols,
        which op_matrix makes on the key's first use.  The dict may be
        shared (the family's _lm entry when levi.dim == 1, or the table's
        column): no caller may mutate it."""
        typ, g = gkey
        if typ == "h":
            c = self.grades()[b][g - 1]
            return {b: c} if c else {}
        ldim = self.levi.dim
        k = self.slot.get(g)
        if typ == "y" and k is not None:
            # left multiplication on the y^a factor alone
            r, l = divmod(b, ldim)
            col = self._lm[k][r]
            return col if ldim == 1 else {r2 * ldim + l: c for r2, c in col.items()}
        cols = self._cols.get(gkey)
        return (self.op_matrix(gkey) if cols is None else cols).get(b) or {}

    def _fill(self, gkey):
        # x and non-slot y keys: with j the leading slot of y^a = y_j y^rest,
        #   g y_j y^rest l = y_j (g y^rest l) + [g, y_j] y^rest l,
        # and rest(b) < b, so filling in index order reads only filled
        # columns.  A bracket key's table is made on its first read, through
        # op_matrix, and never reads g's own: [x_a, y_c] is h, a y key or an
        # x key of lower height, and [y_d, y_c] a y key of greater height.
        typ, g = gkey
        if typ == "h" or typ == "y" and g in self.slot:
            return super()._fill(gkey)
        p, ldim, lead, stride = self.p, self.levi.dim, self._lead, self.stride
        cols = {}
        if g not in self.slot:  # an x key of a u_J root kills the base
            cols = {l: col for l in range(ldim) if (col := self.levi.act_basis(gkey, l))}
        brk = [tuple(self.alg.bracket(gkey, ("y", c)).items()) for c in self.order]
        for b in range(ldim, self.dim):
            j = lead[b // ldim]
            rest = b - stride[j] * ldim
            tj = self._lm[j]
            out = {}
            for b1, c1 in cols.get(rest, {}).items():
                r1, l1 = divmod(b1, ldim)
                for r2, c2 in tj[r1].items():
                    b2 = r2 * ldim + l1
                    out[b2] = out.get(b2, 0) + c1 * c2
            for bkey, bc in brk[j]:
                for b2, c2 in self.act_basis(bkey, rest).items():
                    out[b2] = out.get(b2, 0) + bc * c2
            if col := {b2: v % p for b2, v in out.items() if v % p}:
                cols[b] = col
        return cols

    def top_rows(self):
        """Per active i, (A_i^T, Y_i^T, stride of s): on reversed indices
        r -> dim-1-r, the rows of A_i = x_i at lam = 0 and of y_i, s the
        slot of alpha_i; shared by the family (p, u_J^- order, chi on the
        slots, active).  None unless the base is one-dimensional, chi is
        zero on every slot and each active simple root is a slot whose x_i
        brackets every slot vector into h_i or a slot: only h_i = [x_i, y_s]
        then reads lam, and _RowsAt adds lam_i B_i, where B_i y^a =
        a_s y^(a - e_s), in closed form."""
        if self.levi.dim > 1 or any(self.chival):
            return None
        shared = self.alg.module_tables
        key = (self.p, self.order, tuple(self.chival), self.active)
        if key not in shared:
            shared[key] = self._row_tables()
        return shared[key]

    def _row_tables(self):
        # A_i from the column table of a family member at lam = 0, which
        # is dropped once its tables are transposed
        zero = InducedModule(
            self.alg, self.chi, self.order, TrivialLevi((0,) * self.rs.n), self.active
        )
        rev = list(range(self.dim - 1, -1, -1))
        out = []
        for i in self.active:
            g = self.rs.simple(i)
            brk = [self.alg.bracket(("x", g), ("y", c)).items() for c in self.order]
            if g not in self.slot or any(
                t == "y" and h not in self.slot for terms in brk for (t, h), _ in terms
            ):
                return None
            s = self.slot[g]
            at = _reversed_rows(zero.op_matrix(("x", g)).items(), rev)
            out.append((at, _reversed_rows(enumerate(self._lm[s]), rev), self.stride[s]))
        return out


def _through(col, tab):
    # sum of c * tab[r] over the entries r: c of col, not reduced mod p
    out = {}
    for r1, c1 in col.items():
        for r2, c2 in tab[r1].items():
            out[r2] = out.get(r2, 0) + c1 * c2
    return out


def _reversed_rows(cols, rev):
    # the transpose of the columns (j, col), on the reversed indices
    # rev[i]; the family's tables share one int object per index
    rows = {}
    for j, col in cols:
        for i, c in col.items():
            rows.setdefault(rev[i], {})[rev[j]] = c
    return rows


class _RowsAt:
    """The rows of A + lam B mod p, read through get() as
    fplin.apply_columns reads an operator.  On reversed indices, row j of
    B^T is -d at j - stride, where d = (j // stride) % p is the slot's
    digit of j: a row with d = 0 is A's own dict, any other is formed on
    its first read."""

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


class QuotientModule(ModuleBase):
    """Quotient by an action-stable subspace, on the canonical
    complement coordinates of the subspace's reduced row form.  The
    stability of sub is the caller's premise and is not re-checked."""

    def __init__(self, parent, sub):
        self.parent = parent
        self.alg = parent.alg
        self.rs = parent.rs
        self.p = parent.p
        self.chi = parent.chi
        self.active = parent.active
        self.sub = sub
        pivots = set(sub.pivots())
        self.keep = [c for c in range(parent.dim) if c not in pivots]
        self.pos = {c: i for i, c in enumerate(self.keep)}
        self.dim = len(self.keep)
        self.high = self.pos.get(parent.high)
        self.lam = parent.lam
        self._cols = {}
        self._classes = None
        self._grades = None

    def project(self, vec):
        red = self.sub.reduce(vec)
        return {self.pos[c]: v for c, v in red.items()}

    def lift(self, vec):
        return {self.keep[b]: c for b, c in vec.items()}

    def act_basis(self, key, b):
        return self.project(self.parent.act_basis(key, self.keep[b]))

    def grades(self):
        """The parent's grades at keep."""
        if self._grades is None:
            grades = self.parent.grades()
            self._grades = [grades[c] for c in self.keep]
        return self._grades

    def _drops(self):
        drops = self.parent._drops()
        return [drops[c] for c in self.keep]

    def weight_int(self, b):
        return self.parent.weight_int(self.keep[b])

    def drop_int(self, b):
        return self.parent.drop_int(self.keep[b])


# ---- builders ----


def build_levi_simple(alg, p, I, lam):
    """Simple head of the Levi's restricted highest-weight module at
    lam, as a base module for the parabolic induction: TrivialLevi when
    it is one-dimensional, else head() of the Levi's Verma module."""
    ld = LeviDatum(alg.rs, I)
    lam = tuple(int(x) for x in lam)
    if all(lam[j - 1] % p == 0 for j in ld.J):
        return TrivialLevi(lam)
    chi0 = PChar(p, ())
    return head(InducedModule(alg, chi0, ld.levi_roots, TrivialLevi(lam), active=ld.J))


def build_parabolic_baby_verma(alg, chi, lam, cap=DIM_CAP, order=None, levi=None):
    """Module induced from the Levi simple head at lam, with chi of
    standard Levi form supported on I."""
    rs = alg.rs
    lam = tuple(int(x) for x in lam)
    if len(lam) != rs.n:
        raise ValueError("weight must have %d coordinates" % rs.n)
    if order is None:
        order = fix_order(rs, chi.I)
    # the u_J^- part alone can exceed the cap: check it before the head,
    # whose Levi Verma module can be larger still
    dim = chi.p ** len(order)
    if dim > cap:
        raise CapExceeded("dimension at least %d exceeds cap %d" % (dim, cap))
    if levi is None:
        levi = build_levi_simple(alg, chi.p, chi.I, lam)
    dim *= levi.dim
    if dim > cap:
        raise CapExceeded("dimension %d exceeds cap %d" % (dim, cap))
    return InducedModule(alg, chi, order, levi)


def build_baby_verma(alg, chi, lam, cap=DIM_CAP, order=None):
    """Module induced from the one-dimensional weight space at lam over
    the full Borel, for any chi of standard Levi form."""
    if order is None:
        order = sorted(alg.rs.roots, key=lambda g: (sum(g), g))
    return build_parabolic_baby_verma(alg, chi, lam, cap, order, TrivialLevi(lam))


# ---- irreducibility ----


def _projective_coeffs(p, d):
    for t in range(d):
        head = (0,) * t + (1,)
        for tail in itertools.product(range(p), repeat=d - t - 1):
            yield head + tail


def maximal_vectors(mod):
    """Joint kernel of the active raising operators, split by
    (weight mod p, drop mod p) component.  Returns a dict
    (wt, comp) -> list of kernel basis vectors in global coordinates."""
    ops = mod.raising_ops()
    out = {}
    for wt, groups in mod.weight_classes().items():
        for kap, idxs in groups.items():
            local = [
                {i: col for i, c in enumerate(idxs) if (col := op.get(c))} for op in ops
            ]
            vecs = joint_kernel(local, len(idxs), mod.p)
            if vecs:
                out[(wt, kap)] = [{idxs[i]: c for i, c in v.items()} for v in vecs]
    return out


def _line_closure(mod, vec):
    # the closure of vec under the xy action, graded by weight and
    # stopped once it holds mod.high
    return span_closure(
        [vec], mod.xy_ops(), mod.p, dim=mod.dim, grade=mod.grades(), stop=mod.high
    )


def generates(mod, vec):
    """Whether the weight-homogeneous vec generates mod.  Every module
    built here is cyclic on its highest vector (the base module is, and
    induction and quotients keep it), so vec generates exactly when
    mod.high lies in its closure; the closure stops once it does."""
    return _line_closure(mod, vec).contains({mod.high: 1})


class IrreducibilityReport:
    def __init__(self, irreducible, mod, profile, witness, witness_key, lines):
        self.irreducible = irreducible
        self.dim = mod.dim
        self.p = mod.p
        self.lam = mod.lam
        self.profile = profile
        self.witness = witness
        self.witness_key = witness_key
        self.lines_checked = lines

    def to_dict(self):
        return {
            "irreducible": self.irreducible,
            "dim": self.dim,
            "p": self.p,
            "lambda": list(self.lam),
            "profile": [
                {"weight": list(wt), "component": list(kap), "count": c}
                for (wt, kap), c in sorted(self.profile.items())
            ],
            "witness": (
                None
                if self.witness is None
                else {str(k): v for k, v in sorted(self.witness.items())}
            ),
            "lines_checked": self.lines_checked,
        }


def _kernel_lines(mod, cap):
    """The kernel profile {(wt, comp): count}, and a generator of every
    projective line (wt, vector) in each weight's joint kernel, weights
    in sorted order.  Raises CapExceeded if there are more than cap
    lines, before any is made."""
    p = mod.p
    mv = maximal_vectors(mod)
    by_wt = {}
    for (wt, kap), vecs in mv.items():
        by_wt.setdefault(wt, []).extend(vecs)
    total = 0
    for vecs in by_wt.values():
        total += (p ** len(vecs) - 1) // (p - 1)
    if total > cap:
        raise CapExceeded("%d kernel lines exceed cap %d" % (total, cap))

    def lines():
        for wt in sorted(by_wt):
            vecs = by_wt[wt]
            for coeffs in _projective_coeffs(p, len(vecs)):
                v = {}
                for c, basev in zip(coeffs, vecs):
                    addmul(v, basev, c, p)
                yield wt, v

    return {k: len(v) for k, v in mv.items()}, lines()


def is_irreducible(mod, cap=LINES_CAP):
    """Exact irreducibility decision; raises CapExceeded if the number
    of kernel lines to test exceeds cap."""
    profile, lines = _kernel_lines(mod, cap)
    checked = 0
    for wt, v in lines:
        checked += 1
        if not generates(mod, v):
            return IrreducibilityReport(False, mod, profile, v, wt, checked)
    return IrreducibilityReport(True, mod, profile, None, None, checked)


def radical(mod, cap=LINES_CAP):
    """The unique maximal submodule, as an echelonized row space in
    global coordinates.  Relies on the head being simple, which holds
    for the highest-weight modules built here.  An InducedModule whose
    top_rows() exist (a one-dimensional base, chi zero on every u_J^-
    slot, each active simple root a slot) is a graded G_1T-module with
    the highest vector's line as top weight space, so its radical is the
    largest submodule in the kernel of e*_high: the annihilator of the
    closure of e*_high under the transposed xy action, of rank
    dim(head), with no kernel lines, no cap and no column table of the
    module.  Any other module closes its non-generating kernel lines (at
    most cap) and raises HeadNotSimple if they are seen to generate
    together.  Both paths give the same reduced row form."""
    if isinstance(mod, InducedModule) and mod.top_rows() is not None:
        return _annihilator_of_top(mod)
    return _radical_vectors(mod, cap).echelon()


def _annihilator_of_top(mod):
    # The closure W runs on reversed indices i -> n - i, so its min-pivot
    # rows are W's max-pivot reduced rows.  For each free column f of
    # that form, e_f - sum_q W[q][f] e_q is the row of pivot f in the
    # min-pivot reduced form of the annihilator.
    n, p = mod.dim - 1, mod.p
    ops = []
    for i, (a, y, stride) in zip(mod.active, mod.top_rows()):
        lam = mod.lam[i - 1] % p
        ops += [_RowsAt(a, stride, lam, p) if lam else a, y]
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


def _radical_vectors(mod, cap):
    # The sum of the closures of the non-generating kernel lines, kept
    # graded as it grows, then the same again in the quotient by it,
    # lifted into the sum.  A sum of stable subspaces is stable, so each
    # new closure joins by plain inserts, and a line already in the sum
    # is skipped: its closure lies in the sum, which must not hold
    # e_high (checked below).
    _, lines = _kernel_lines(mod, cap)
    top = {mod.high: 1}
    bad = GradedEchelon(mod.p, mod.grades())
    for _, v in lines:
        if bad.contains(v):
            continue
        sub = _line_closure(mod, v)
        if sub.contains(top):
            continue
        for row in sub.basis():
            bad.insert(row)
    sub = bad.echelon()
    if mod.high in sub.rows:
        # the sum holds e_high, or its quotient would lose the highest
        # vector: either way the head is not simple
        raise HeadNotSimple(
            "head is not simple: non-generating lines reach the top, so the "
            "module is outside the simple-head premise of radical() and head()"
        )
    if sub.rows:
        q = QuotientModule(mod, sub)
        for v in _radical_vectors(q, cap).echelon().basis():
            bad.insert(q.lift(v))
    return bad


def head(mod, cap=LINES_CAP):
    return QuotientModule(mod, radical(mod, cap))


# ---- representation checks ----

# verify_* check every basis vector up to these dims, samples beyond
EXHAUSTIVE_LIMIT = 700
SAMPLES = 10000
SAMPLE_LIMIT = 1500


def _apply(mod, key, vec):
    """Image of vec under one basis generator, through act_basis."""
    out = {}
    for b, c in vec.items():
        addmul(out, mod.act_basis(key, b), c, mod.p)
    return out


def verify_commutators(mod, seed=0):
    """Check rho([a,b]) = rho(a)rho(b) - rho(b)rho(a) on basis vectors.
    Exhaustive over all generator pairs and all basis vectors up to
    EXHAUSTIVE_LIMIT, SAMPLES sampled triples beyond."""
    p = mod.p
    keys = list(mod.alg.basis)
    if mod.dim <= EXHAUSTIVE_LIMIT:
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
            for _ in range(SAMPLES)
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


def verify_frobenius(mod, seed=0):
    """Check the p-th power laws on the module: x_g^p = 0,
    y_g^p = chi(y_g)^p, h_i^p = h_i as operators, on every basis
    vector up to SAMPLE_LIMIT and on that many sampled ones beyond."""
    p = mod.p
    if mod.dim <= SAMPLE_LIMIT:
        idxs = range(mod.dim)
    else:
        rng = random.Random(seed)
        idxs = sorted(rng.sample(range(mod.dim), SAMPLE_LIMIT))
    for key in mod.alg.basis:
        scalar = pow(mod.chi.at_root(key[1]), p, p) if key[0] == "y" else 0
        for b in idxs:
            v = {b: 1}
            for _ in range(p):
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
