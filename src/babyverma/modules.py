"""Finite-dimensional induced modules and their irreducibility.

The central object is InducedModule, the induced module on the basis
y^a (tensor) l: exponent tuples over the fixed u_J^- order of
pbw.fix_order times a base-module index, numbered by integers.  It
straightens left multiplication by root vectors into that basis,
reducing p-th powers through the p-character.  Left multiplication by
each slot is one table over monomial ranks, and the u_J^- root vectors
act through it alone, on the y^a factor.  These tables and the weight
and drop shift of each monomial, stored mod p, do not depend on the
highest weight: they are built once per (algebra, p, u_J^- order, chi
on the slots), shared by every module of that family and read-only.
The grades and drops, so the weight classes, are read from them with no
tuple arithmetic per index: the family numbers its distinct (weight,
drop) shifts and packs each in base-2p digits; a module adds the
base's packed weight or drop at l (no carry), reduces each sum once
through a family memo that grows, and index r * levi.dim + l takes the
sum at (id of r, l).  Every other x or y
generator g acts through one column table over indices, made whole on
g's first use and held by op_matrix; act_basis reads it, and a line
closure reads y columns one at a time.  Over a base of dim > 1, a Levi
root vector g and a slot's simple x_i join the base to family rows:
g y^a v_0 straightened over a probe base, v_0 of weight 0 and y_beta v_0
per Levi root beta, is sum_c y^c P v_0 with P = 1 or y_beta, so g y^a l
is sum_c y^c P l, plus y^a (g l) for a Levi g, which normalizes u_J^-,
and lam(l)_i a_s y^(a - e_s) for x_i.  Other keys are straightened.
The base is any module: the one-dimensional weight space (when the Levi
part of the weight vanishes mod p) or the simple head of the Levi's own
restricted highest-weight module, which is head() of that Verma module.
Every module is read through dim, high, lam, grades(), drops() and
act_basis(key, b); weights and drops are known only mod p.

Irreducibility is decided exactly: any nonzero submodule contains a
nonzero vector killed by all active raising operators (repeated raising
strictly lowers the total drop height, which is bounded), and splitting
such a vector into torus eigencomponents keeps it in the submodule.  So
the module is irreducible iff every line in every per-weight-class
joint kernel of the raising operators generates.  Line counts are
capped; hitting the cap raises instead of guessing.  One peeled
elimination per module gives exactly the per-class kernels: x_t maps class
(wt, drop) into (wt + alpha_t, drop - alpha_t), so the RREF is the union of
the per-class RREFs, each on its indices in ascending order, and every
peeled e_j lies in the row space: the RREF is the e_j and that of the rest.
It reads the first x_i whole, the others where its peel leaves columns
live: over a base of dim > 1 a Levi x_j first, its table joined from the
family rows, then every other x_i joined per column, so no slot x_i table
is made; over a one-dimensional base each x_i is its straightened table.

Each generation test is a span closure graded by weight mod p: one
echelon whose rows each lie in one weight class, so a new row is
back-substituted only into the rows of its own weight, and a kernel
line is closed under the active y_i alone (see is_irreducible).  Every
module built here is cyclic on its highest vector, so the closure stops
as soon as that vector is reached; only a line that fails to generate is
closed to full rank.  This decides the 33 614-dimensional A3 p=7
I={1,2} lambda=(1,1,1) module in seconds.

The radical takes one of two paths, by what the module is.  With a
one-dimensional base, chi zero on every u_J^- slot and every active
simple root a slot (every chi = 0 baby Verma module and every Levi Verma
module behind a Levi head), the module is a graded G_1T-module with the
highest vector's line as its top weight space, so the radical is the
annihilator of the closure W of e*_high under the transposed action: one
closure of rank dim(head).  With chi = 0 every y_i raises the PBW degree,
so y_i^T kills e*_high and the closure runs under the transposed x_i
alone.  There op_matrix(x_i) = A_i + lam_i B_i mod p: the family keeps
the transposed rows of A_i, which is x_i at lam = 0; B_i removes one
y_(alpha_i), times its exponent, and x_i^T applies both to a whole
vector in closed form.  So the closure builds no column table of the
module and forms no row.  head() of such a module is the HeadModule
dual to W, with W's rows in place of the annihilator's: it has the
quotient's basis and tables, each made from W, the transposed x_i rows
and the family's slot tables, and its non-simple root vectors are
brackets of its own tables, so no table of the module is made.
Any other module sums the closures of its non-generating kernel lines
as it goes, skipping lines already in the sum, and checks on the way
that the head is simple, which it relies on: HeadNotSimple refuses a
module outside that premise; its head is the quotient by that sum.
"""

import functools
import itertools
import random
from array import array
from types import SimpleNamespace

from .fplin import Echelon, addmul, apply_columns, fp_inv, joint_kernel, span_closure
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

    def grades(self):
        return [self.lam] * self.dim

    def drops(self):
        return [(0,) * len(self.lam)] * self.dim

    def act_basis(self, key, b):
        return {}


class _Probe(TrivialLevi):
    """v_0 of weight 0 and v_k = keys[k] v_0 for the Levi y keys keys[1:]."""

    def __init__(self, keys, n):
        super().__init__((0,) * n)
        self.dim, self.keys = len(keys), keys

    def act_basis(self, key, b):
        return {self.keys.index(key): 1} if key in self.keys and not b else {}


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

    def top_rows(self):
        # no transposed x_i rows: radical() and head() close kernel lines
        return None

    def _reader(self, key):
        # what a line closure reads key's columns through: here its table
        return self.op_matrix(key)

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
            for b, (wt, kap) in enumerate(zip(self.grades(), self.drops())):
                classes.setdefault(wt, {}).setdefault(kap, []).append(b)
            self._classes = classes
        return self._classes


class InducedModule(ModuleBase):
    """Induced module on the ordered basis y^a (tensor) l, on integer
    indices.

    order fixes the u_J^- slots; levi is the finite base module, read
    through the module interface, its grades and drops once into lists.
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
        self.lam = levi.lam
        self._lw = levi.grades()
        self._ld = levi.drops()
        self.slot = {g: k for k, g in enumerate(self.order)}
        self.chival = [chi.at_root(g) for g in self.order]
        self.stride = [self.p ** (self.m - 1 - k) for k in range(self.m)]
        # one copy per family for the algebra's lifetime: besides the
        # algebra, the key holds all that _tables reads
        shared = alg.module_tables
        key = (self.p, self.order, tuple(self.chival))
        if key not in shared:
            tabs = self._tables()
            shared[key] = tabs + (_residue_ids(tabs[1], tabs[2], self.p),)
        self._lead, self._mwt, self._mdrop, self._lm, self._res = shared[key]
        self._cols = {}
        self._classes = None
        self._grades = self._sums_mod_p(0, self._lw)

    def _tables(self):
        """Per-rank tables: lead[r], the leading (first nonzero) slot of
        r; mwt[r] and mdrop[r], the weight and drop shifts of y^r mod p; and
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
            mwt[r] = tuple((w - f) % p for w, f in zip(mwt[rest], fund[j]))
            mdrop[r] = tuple((d + g) % p for d, g in zip(mdrop[rest], order[j]))
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
        return self._grades

    def drops(self):
        """Drop mod p of each basis index: how far its vector lies below
        the highest one, in simple-root coordinates."""
        return self._sums_mod_p(1, self._ld)

    def _sums_mod_p(self, kind, per_levi):
        # at index r * levi.dim + l, the weight (kind 0) or drop (kind 1) of y^r
        # plus per_levi[l] mod p: a packed sum per (id, l), reduced by the memo
        ids, packed, memo = self._res
        p, n = self.p, self.rs.n
        cols = [[memo.get(s) or memo.setdefault(s, _unpack(s, p, n))
                 for s in map(_pack(t, p).__add__, packed[kind])] for t in per_levi]
        return list(itertools.chain.from_iterable(zip(*[map(c.__getitem__, ids) for c in cols])))

    def act_basis(self, gkey, b):
        """Action of a basis generator on the basis vector of index b, as
        {index: coeff}: column b of the key's table once made, which equals
        what follows; else h reads the grades, a u_J^- root vector its slot
        table _lm, any other key makes its table by op_matrix.  The dict may
        be shared (an _lm entry, or a table's column): no caller may mutate it."""
        cols = self._cols.get(gkey)
        if cols is not None:
            return cols.get(b) or {}
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
        return self.op_matrix(gkey).get(b) or {}

    def _fill(self, gkey):
        typ, g = gkey
        if typ == "h" or typ == "y" and g in self.slot:
            return super()._fill(gkey)
        if self.levi.dim == 1 or g in self.slot and sum(g) > 1:
            return self._straighten(gkey)
        return self._join(gkey)(range(self.dim // self.levi.dim), range(self.levi.dim))

    def _reader(self, key):
        # y columns made one at a time, never as a table: a slot's through
        # act_basis, a Levi root's over a base of dim > 1 joined from the
        # family rows
        typ, g = key
        if typ == "y" and key not in self._cols and g in self.slot:
            return SimpleNamespace(get=functools.partial(self.act_basis, key))
        if typ == "y" and key not in self._cols and self.levi.dim > 1:
            return self._joined(key)
        return self.op_matrix(key)

    def _joined(self, key):
        # key's columns joined one at a time from the family rows
        cols, ldim = self._join(key), self.levi.dim
        return SimpleNamespace(get=lambda b: cols((b // ldim,), (b % ldim,)).get(b))

    def raising_ops(self):
        # over a base of dim > 1 a Levi x_j first, as its table; every other
        # x_i not yet a table is joined per column, read where the peel of
        # maximal_vectors leaves columns live
        if self.levi.dim == 1:
            return super().raising_ops()
        xs = [("x", g) for g in sorted(map(self.rs.simple, self.active), key=self.slot.__contains__)]
        return [self.op_matrix(xs[0])] + [self._cols.get(k) or self._joined(k) for k in xs[1:]]

    def _join(self, gkey):
        """cols(ranks, ls): the columns r * levi.dim + l, r in ranks and l
        in ls, of a Levi root vector g or a slot x_i over a base of dim > 1.
        Column (r, l) is row r of each part of _levi_rows at P l (at l for
        the first part), plus g l at r for a Levi g, off the rows' support,
        or for x_i the h_i = [x_i, y_s] term lam(l)_i a_s y^(a - e_s)."""
        ldim, p, act, g = self.levi.dim, self.p, self.levi.act_basis, gkey[1]
        (_, off, rk, cf), *parts = self._levi_rows(gkey)
        parts = [(rows, [act(q, l).items() for l in range(ldim)]) for q, *rows in parts]
        own = [() if g in self.slot else act(gkey, l).items() for l in range(ldim)]
        if s := g in self.slot and self.stride[self.slot[g]]:
            h = [act(("h", g.index(1) + 1), l).items() for l in range(ldim)]

        def row(r, off, ranks, coeffs):
            lo, hi = off[r], off[r + 1]
            return [(r2 * ldim, c) for r2, c in zip(ranks[lo:hi], coeffs[lo:hi])]

        def cols(ranks, ls):
            out = {}
            for r in ranks:
                # the v_0 part, most entries, is read inline and needs no sum
                lo, hi, b = off[r], off[r + 1], r * ldim
                k = [(r2 * ldim, c) for r2, c in zip(rk[lo:hi], cf[lo:hi])]
                rows = [(row(r, *rw), pl) for rw, pl in parts]
                if s and (d := r // s % p):
                    rows.append(([(b - s * ldim, d)], h))
                for l in ls:
                    col = {r2 + l: c for r2, c in k}
                    for l2, c in own[l]:
                        col[b + l2] = c
                    for rw, pl in rows:
                        for l2, c2 in pl[l]:
                            for r2, c in rw:
                                if v := (col.get(r2 + l2, 0) + c * c2) % p:
                                    col[r2 + l2] = v
                                else:
                                    del col[r2 + l2]
                    if col:
                        out[b + l] = col
            return out

        return cols

    def _levi_rows(self, gkey):
        # g's columns at v_0 over a _Probe base, packed per probe index as
        # (P, offsets, ranks, coefficients), P the base action the index
        # stands for (None at v_0), one list per family and key; a Levi g's
        # own part, the identity at g v_0, is left to _join
        shared, key = self.alg.module_tables, (self.p, self.order, tuple(self.chival), gkey)
        if key not in shared:
            keys = [None] + [("y", b) for b in self.rs.roots if b not in self.slot]
            w, probe = len(keys), InducedModule(self.alg, self.chi, self.order, _Probe(keys, self.rs.n))
            # the probe's Levi y columns that g's brackets read, made as read:
            # the l = 0 ones alone
            brk = {k for y in self.order for k in self.alg.bracket(gkey, ("y", y))}
            probe._cols.update((k, probe._reader(k)) for k in keys if k in brk)
            cols, n = probe._straighten(gkey, w), self.p**self.m
            # one pass groups the entries by probe index, (rank, coeff) flat
            flat, cnt = [[] for _ in keys], [[0] * (n + 1) for _ in keys]
            for r in range(n):
                for b, c in cols.get(r * w, {}).items():
                    flat[b % w] += (b // w, c)
                    cnt[b % w][r + 1] += 1
            shared[key] = [(pk, _packed(itertools.accumulate(cnt[t]), len(flat[t]) // 2 + 1),
                            _packed(flat[t][::2], n), _packed(flat[t][1::2], self.p))
                           for t, pk in enumerate(keys) if pk is None or pk != gkey and flat[t]]
        return shared[key]

    def _straighten(self, gkey, step=1):
        # an x or non-slot y key: with j the leading slot of y^a = y_j y^rest,
        #   g y_j y^rest l = y_j (g y^rest l) + [g, y_j] y^rest l,
        # and rest(b) < b, so filling in index order reads only filled
        # columns; step = levi.dim fills only those at l = 0.  A bracket
        # key's table is made on its first read, through op_matrix, and never
        # reads g's own: [x_a, y_c] is h, a y key or an x key of lower height,
        # and [y_d, y_c] a y key of greater height.
        p, ldim, lead, stride = self.p, self.levi.dim, self._lead, self.stride
        cols = {}
        if gkey[1] not in self.slot:  # an x key of a u_J root kills the base
            cols = {l: col for l in range(0, ldim, step) if (col := self.levi.act_basis(gkey, l))}
        brk = [tuple(self.alg.bracket(gkey, ("y", c)).items()) for c in self.order]
        for b in range(ldim, self.dim, step):
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
        """Per active i, (A_i^T, stride of s): on reversed indices
        r -> dim-1-r, the rows of A_i = x_i at lam = 0, s the slot of
        alpha_i; shared by the family (p, u_J^- order, chi on the
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
            at = _reversed_rows(zero.op_matrix(("x", g)).items(), rev)
            out.append((at, self.stride[self.slot[g]]))
        return out


def _residue_ids(mwt, mdrop, p):
    # per rank, the dense id of its (weight, drop) pair; per id, the two
    # packed; a memo from a packed sum, of either kind, to its residues
    pairs = {}
    ids = [pairs.setdefault(wd, len(pairs)) for wd in zip(mwt, mdrop)]
    return ids, [[_pack(t, p) for t in kind] for kind in zip(*pairs)], {}


def _pack(t, p):
    # t's residues in base-2p digits, first most significant: two add with no carry
    return functools.reduce(lambda s, v: s * 2 * p + v % p, t, 0)


def _unpack(s, p, n):
    # the n base-2p digits of s, each reduced mod p
    return tuple(s // (2 * p) ** (n - 1 - i) % (2 * p) % p for i in range(n))


def _packed(values, bound):
    # values in range(bound), in the narrowest unsigned array that holds them
    return array("B" if bound <= 1 << 8 else "H" if bound <= 1 << 16 else "I", values)


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
    """A^T + lam B^T mod p on reversed indices, applied to a whole vector
    by apply(), which fplin.apply_columns calls.  Row j of B^T is -d at
    j - stride, d = (j // stride) % p the slot's digit of j: entry (j, c)
    adds c times A's row j and -lam d c at j - stride.  get(j) is row j."""

    def __init__(self, a, stride, lam, p):
        self.a, self.stride, self.lam, self.p = a, stride, lam % p, p

    def apply(self, vec):
        a, s, p, lam = self.a, self.stride, self.p, self.lam
        out = {}
        get = out.get
        for j, c in vec.items():
            if row := a.get(j):
                for k, v in row.items():
                    if n := (get(k, 0) + c * v) % p:
                        out[k] = n
                    elif k in out:
                        del out[k]
            if d := j // s % p:
                if n := (get(j - s, 0) - lam * d * c) % p:
                    out[j - s] = n
                elif j - s in out:
                    del out[j - s]
        return out

    def get(self, j):
        return self.apply({j: 1})


class _Kept(ModuleBase):
    """A module on the parent's indices keep, ascending: basis vector b
    stands for e_keep[b], and grades and drops are the parent's at keep."""

    def __init__(self, parent, keep):
        self.parent = parent
        self.alg = parent.alg
        self.rs = parent.rs
        self.p = parent.p
        self.chi = parent.chi
        self.active = parent.active
        self.keep = keep
        self.pos = {c: i for i, c in enumerate(keep)}
        self.dim = len(keep)
        self.high = self.pos.get(parent.high)
        self.lam = parent.lam
        self._cols = {}
        self._classes = None
        self._grades = None
        self._drops = None

    def lift(self, vec):
        return {self.keep[b]: c for b, c in vec.items()}

    def grades(self):
        """The parent's grades at keep."""
        if self._grades is None:
            grades = self.parent.grades()
            self._grades = [grades[c] for c in self.keep]
        return self._grades

    def drops(self):
        if self._drops is None:
            drops = self.parent.drops()
            self._drops = [drops[c] for c in self.keep]
        return self._drops


class QuotientModule(_Kept):
    """Quotient by an action-stable subspace, on the canonical
    complement coordinates of the subspace's reduced row form.  The
    stability of sub is the caller's premise and is not re-checked."""

    def __init__(self, parent, sub):
        pivots = set(sub.pivots())
        super().__init__(parent, [c for c in range(parent.dim) if c not in pivots])
        self.sub = sub

    def project(self, vec):
        red = self.sub.reduce(vec)
        return {self.pos[c]: v for c, v in red.items()}

    def act_basis(self, key, b):
        return self.project(self.parent.act_basis(key, self.keep[b]))


class HeadModule(_Kept):
    """The head of an InducedModule whose top_rows() exist, dual to the
    closure W of e*_high under the transposed x_i (ops, the readers the
    closure ran; w, W's rows on reversed indices).  keep holds W's pivots
    mapped back, so the basis, grades and every table equal those of the
    quotient by radical(parent): entry (q, b) of g is <w_q, g e_keep[b]>,
    with w_q the row of W whose pivot is keep[q].  Tables are made on first
    use and never read the parent's own: x_i applies its transposed rows
    to W, y_i pairs W with the family's slot columns at keep, h_i is
    diagonal, and a non-simple root vector is the bracket of two of this
    module's own tables.  Only the h keys and the roots spanned by the
    active simple roots act."""

    def __init__(self, parent, ops, w):
        n = parent.dim - 1
        super().__init__(parent, sorted(n - q for q in w))
        self._ops = ops
        self._w = w
        self._by_col = None

    def act_basis(self, key, b):
        cols = self._cols.get(key)
        return (self.op_matrix(key) if cols is None else cols).get(b) or {}

    def _fill(self, key):
        typ, g = key
        if typ == "h":
            return {b: {b: c} for b, wt in enumerate(self.grades()) if (c := wt[g - 1])}
        if any(c and k + 1 not in self.active for k, c in enumerate(g)):
            raise KeyError("%r lies outside the span of the active roots %r" % (key, self.active))
        if sum(g) > 1:
            return self._bracketed(key)
        if typ == "x":
            return self._x_simple(self._ops[self.active.index(g.index(1) + 1)])
        return self._y_simple(self.parent._lm[self.parent.slot[g]])

    def _x_simple(self, op):
        # x_i^T w_q lies in W, so its entries at W's pivots are its
        # coordinates in the rows of W: column b reads the pivot of w_b
        n, p, w, pos = self.parent.dim - 1, self.p, self._w, self.pos
        cols = {}
        for rq, row in w.items():
            q = pos[n - rq]
            for j, c in apply_columns(op, row, p).items():
                if j in w:
                    cols.setdefault(pos[n - j], {})[q] = c
        return cols

    def _y_simple(self, lm):
        # <w_q, y e_k> over the entries of the slot column lm[k], through W
        # indexed by column: parent index -> [(q, w_q there)]
        n, p = self.parent.dim - 1, self.p
        if self._by_col is None:
            self._by_col = {}
            for rq, row in self._w.items():
                q = self.pos[n - rq]
                for j, c in row.items():
                    self._by_col.setdefault(n - j, []).append((q, c))
        cols = {}
        for b, k in enumerate(self.keep):
            out = {}
            for c, v in lm[k].items():
                for q, wc in self._by_col.get(c, ()):
                    out[q] = out.get(q, 0) + v * wc
            if col := {q: v % p for q, v in out.items() if v % p}:
                cols[b] = col
        return cols

    def _bracketed(self, key):
        # [g_i, g_gamma] = N g for an active alpha_i with gamma = root -
        # alpha_i a root; N is +-1 or +-2, a unit at every good prime
        typ, g = key
        p = self.p
        for i in self.active:
            a = self.rs.simple(i)
            gamma = tuple(x - y for x, y in zip(g, a))
            if gamma in self.rs.index:
                break
        ((_, n),) = self.alg.bracket((typ, a), (typ, gamma)).items()
        inv = fp_inv(n, p)
        ta, tg = self.op_matrix((typ, a)), self.op_matrix((typ, gamma))
        cols = {}
        for b in range(self.dim):
            col = apply_columns(ta, tg.get(b, {}), p)
            addmul(col, apply_columns(tg, ta.get(b, {}), p), -1, p)
            if col:
                cols[b] = {k: v * inv % p for k, v in col.items()}
        return cols


# ---- builders ----


def build_levi_simple(alg, p, I, lam):
    """Simple head of the Levi's restricted highest-weight module at
    lam, as a base module for the parabolic induction: TrivialLevi when
    it is one-dimensional, else head() of the Levi's Verma module.
    HeadNotSimple is raised unless the head's only maximal line is at its
    high: at chi = 0 every nonzero submodule holds a maximal vector, and
    the top generates, so this shows the head simple and the radical
    maximal, but not that the maximal submodule is unique."""
    ld = LeviDatum(alg.rs, I)
    lam = tuple(int(x) for x in lam)
    if all(lam[j - 1] % p == 0 for j in ld.J):
        return TrivialLevi(lam)
    chi0 = PChar(p, ())
    hd = head(InducedModule(alg, chi0, ld.levi_roots, TrivialLevi(lam), active=ld.J))
    lines = [v for vecs in maximal_vectors(hd).values() for v in vecs]
    if len(lines) != 1 or set(lines[0]) != {hd.high}:
        raise HeadNotSimple("Levi head has %d maximal lines, not one at its top" % len(lines))
    return hd


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
    (wt, comp) -> list of kernel basis vectors in global coordinates, in
    the class order of weight_classes(): one joint_kernel graded by
    class, its vectors grouped by the class of their free column."""
    ops, classes = mod.raising_ops(), mod.weight_classes()
    keys = [(wt, kap) for wt, groups in classes.items() for kap in groups]
    cid = [0] * mod.dim
    for k, (wt, kap) in enumerate(keys):
        for b in classes[wt][kap]:
            cid[b] = k
    found = {}
    for v in joint_kernel(ops, mod.dim, mod.p, cid):
        found.setdefault(cid[next(iter(v))], []).append(v)
    return {keys[k]: found[k] for k in sorted(found)}


def _line_closure(mod, vec, kinds="xy"):
    # vec's closure under the active x_i and/or y_i, graded, stopped at high
    ops = [mod._reader((t, mod.rs.simple(i))) for i in mod.active for t in kinds]
    return span_closure([vec], ops, mod.p, dim=mod.dim, grade=mod.grades(), stop=mod.high)


def generates(mod, vec):
    """Whether the weight-homogeneous vec generates mod.  Every module
    built here is cyclic on its highest vector (the base module is, and
    induction and quotients keep it), so vec generates exactly when
    mod.high lies in its closure; the closure stops once it does."""
    return _line_closure(mod, vec).contains({mod.high: 1})


class IrreducibilityReport:
    """witness_dim, the dim of the submodule the witness generates, is
    an attribute only: to_dict() leaves it out."""

    def __init__(self, irreducible, mod, profile, witness, witness_key, lines,
                 witness_dim=None):
        self.irreducible = irreducible
        self.dim = mod.dim
        self.p = mod.p
        self.lam = mod.lam
        self.profile = profile
        self.witness = witness
        self.witness_key = witness_key
        self.lines_checked = lines
        self.witness_dim = witness_dim

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
    of kernel lines to test exceeds cap.

    Each kernel line v is closed under the active y_i alone: the active
    x_i kill it, and each h_i scales it, v being a weight vector.  chi has
    standard Levi form, so chi(n^+) = 0, and by PBW u_chi(g) =
    u_chi(n^-) u_0(h) u_0(n^+): u_chi(g) v = u_chi(n^-) v, which the
    simple y_i generate, each bracket constant +-1 or +-2 being a unit at
    a good prime.  So too over a Levi (active = J) and in a quotient.  The
    submodule, its reduced rows run to the end and e_high in it agree."""
    profile, lines = _kernel_lines(mod, cap)
    checked = 0
    for wt, v in lines:
        checked += 1
        # a line that does not generate never reaches mod.high, so its
        # closure runs to the end: the submodule the witness generates
        sub = _line_closure(mod, v, "y")
        if not sub.contains({mod.high: 1}):
            rank = sub.rank()
            return IrreducibilityReport(False, mod, profile, v, wt, checked, rank)
    return IrreducibilityReport(True, mod, profile, None, None, checked)


def radical(mod, cap=LINES_CAP):
    """The unique maximal submodule, as an echelonized row space in
    global coordinates.  Relies on the head being simple, which holds
    for the highest-weight modules built here.  An InducedModule whose
    top_rows() exist (a one-dimensional base, chi zero on every u_J^-
    slot, each active simple root a slot) is a graded G_1T-module with
    the highest vector's line as top weight space, so its radical is the
    largest submodule in the kernel of e*_high: the annihilator of the
    closure of e*_high under the transposed x action, of rank
    dim(head), with no kernel lines, no cap and no column table of the
    module: each y_i raises the PBW degree when chi = 0, so y_i^T kills
    e*_high and the x_i^T alone close it under all of u(g).  Any other
    module closes its non-generating kernel lines (at most cap) and
    raises HeadNotSimple if they are seen to generate together.  Both
    paths give the same reduced row form."""
    if mod.top_rows() is not None:
        return _annihilator_of_top(mod)
    return _radical_vectors(mod, cap)


def _top_closure(mod):
    # The closure W of e*_high, on reversed indices i -> n - i, so its
    # min-pivot rows are W's max-pivot reduced rows.  Every word in the x_i
    # and y_i is a sum of Y-word.H.X-word, and Y_j^T e*_high = 0 while
    # h^T e*_high = lam(h) e*_high, so the x_i^T alone make the closure.
    # Returns the x_i^T readers, per active i, and W's rows.
    p = mod.p
    ops = []
    for i, (a, stride) in zip(mod.active, mod.top_rows()):
        lam = mod.lam[i - 1] % p
        ops.append(_RowsAt(a, stride, lam, p) if lam else a)
    seed = {mod.dim - 1 - mod.high: 1}
    w = span_closure([seed], ops, p, dim=mod.dim, grade=mod.grades()[::-1])
    return ops, w.rows


def _annihilator_of_top(mod):
    # For each free column f of W's max-pivot form, e_f - sum_q W[q][f] e_q
    # is the row of pivot f in the min-pivot reduced form of the annihilator.
    n, p = mod.dim - 1, mod.p
    _, w = _top_closure(mod)
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
    bad = Echelon.graded(mod.p, mod.grades())
    for _, v in lines:
        if bad.contains(v):
            continue
        sub = _line_closure(mod, v, "y")
        if sub.contains(top):
            continue
        for row in sub.basis():
            bad.insert(row)
    if mod.high in bad.rows:
        # the sum holds e_high, or its quotient would lose the highest
        # vector: either way the head is not simple
        raise HeadNotSimple(
            "head is not simple: non-generating lines reach the top, so the "
            "module is outside the simple-head premise of radical() and head()"
        )
    if bad.rows:
        q = QuotientModule(mod, bad)
        for v in _radical_vectors(q, cap).basis():
            bad.insert(q.lift(v))
    return bad


def head(mod, cap=LINES_CAP):
    """The simple head of mod, on the canonical complement of radical(mod).
    Where radical() takes the transposed closure W of e*_high, the head is
    the HeadModule dual to W, made without the radical's rows; otherwise it
    is the quotient by the radical."""
    if mod.top_rows() is not None:
        return HeadModule(mod, *_top_closure(mod))
    return QuotientModule(mod, radical(mod, cap))


# ---- representation checks ----

# verify_* check every basis vector up to these dims, samples beyond
EXHAUSTIVE_LIMIT = 700
SAMPLES = 10000
SAMPLE_LIMIT = 1500


class AdjointModule:
    """The algebra acting on itself by the bracket over F_p, on the basis
    in alg.basis order.  On it verify_frobenius is the restricted
    identity ad(b)^p = ad(b^[p]) at chi = 0, and verify_commutators is
    the Jacobi identity mod p.  At p >= 13 the latter is exact over Z:
    each coefficient of a.(b.c), b.(a.c) and [a,b].c is a product of two
    structure constants, |N| <= 2, or a pairing -<delta, gamma^vee> with
    absolute value at most 2, so at most 4 in absolute value, and their
    difference, at most 12, vanishes mod p only when it is 0.  The check
    covers the pairs a < b in basis order and every c; the table is
    antisymmetric, so these give every Jacobi triple."""

    def __init__(self, alg, p):
        self.alg = alg
        self.p = p
        self.chi = PChar(p, ())
        self.dim = len(alg.basis)
        self._pos = {k: i for i, k in enumerate(alg.basis)}

    def act_basis(self, key, b):
        return {
            self._pos[k]: c % self.p
            for k, c in self.alg.bracket(key, self.alg.basis[b]).items()
            if c % self.p
        }


def _image(acc, col, vec, scale=1):
    # acc += scale * g.vec, not reduced mod p, g's columns read through col
    for j, c in vec.items():
        c *= scale
        for i, d in col(j).items():
            acc[i] = acc.get(i, 0) + c * d
    return acc


def verify_commutators(mod, seed=0):
    """Check rho([a,b]) = rho(a)rho(b) - rho(b)rho(a) on basis vectors.
    Exhaustive over all generator pairs and all basis vectors up to
    EXHAUSTIVE_LIMIT, SAMPLES sampled triples beyond.  A triple sums
    a.(b.c) - b.(a.c) - [a,b].c unreduced, or [a,a].c alone at a == b, and
    tests it mod p.  Exhaustive checks read each column through act_basis
    once; sampled triples seldom meet a column twice, so none is kept."""
    p, keys = mod.p, list(mod.alg.basis)
    n = len(keys)
    # by key position: column readers, and each bracket's terms as (reader, coeff)
    cols = [functools.partial(mod.act_basis, k) for k in keys]
    if mod.dim <= EXHAUSTIVE_LIMIT:
        cols = [functools.cache(col) for col in cols]
        triples = ((a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(mod.dim))
    else:
        rng = random.Random(seed)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(mod.dim)) for _ in range(SAMPLES)
        )
    pos = {k: i for i, k in enumerate(keys)}
    brk = [[[(cols[pos[k]], cf) for k, cf in mod.alg.bracket(a, b).items()] for b in keys]
           for a in keys]
    for a, b, c in triples:
        acc = {}
        if a != b:
            _image(_image(acc, cols[a], cols[b](c)), cols[b], cols[a](c), -1)
        for col, cf in brk[a][b]:
            for i, d in col(c).items():
                acc[i] = acc.get(i, 0) - cf * d
        if any(x % p for x in acc.values()):
            raise AssertionError(
                "commutator mismatch at (%r, %r) on basis %d" % (keys[a], keys[b], c)
            )
    return True


def verify_frobenius(mod, seed=0):
    """Check the p-th power laws on the module: x_g^p = 0,
    y_g^p = chi(y_g)^p, h_i^p = h_i as operators, on every basis
    vector up to SAMPLE_LIMIT and on that many sampled ones beyond.
    Columns are read through act_basis once per key; a chain step sums
    unreduced and reduces once.  The chain is s * v: c e_j moves to column j
    itself, read-only, times c, and if g e_j = d e_j ends as c d^(p-k) e_j
    after k steps, so h reads one column per basis vector."""
    p = mod.p
    if mod.dim <= SAMPLE_LIMIT:
        idxs = range(mod.dim)
    else:
        rng = random.Random(seed)
        idxs = sorted(rng.sample(range(mod.dim), SAMPLE_LIMIT))
    for key in mod.alg.basis:
        scalar = pow(mod.chi.at_root(key[1]), p, p) if key[0] == "y" else 0
        col = functools.cache(functools.partial(mod.act_basis, key))
        for b in idxs:
            v, s, k = {b: 1}, 1, 0
            while v and k < p:  # g.0 = 0: a chain at 0 ends there
                if len(v) == 1:
                    ((j, c),) = v.items()
                    cj = col(j)
                    if len(cj) == 1 and j in cj:
                        v, s = cj, s * c * pow(cj[j], p - k - 1, p)
                        break
                    v, s, k = cj, s * c % p, k + 1
                    continue
                v, s, k = {i: x for i, y in _image({}, col, v, s).items() if (x := y % p)}, 1, k + 1
            want = col(b) if key[0] == "h" else {b: scalar} if scalar else {}
            if {i: x for i, y in v.items() if (x := y * s % p)} != want:
                raise AssertionError(
                    "p-th power law fails for %r at basis %d" % (key, b)
                )
    return True
