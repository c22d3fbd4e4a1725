"""Finite-dimensional induced modules and their irreducibility.

The central object is the induced module on the basis y^a (tensor) l:
exponent tuples over the fixed u_J^- order times a base-module index,
numbered as in pbw.Straightener, whose column tables are the module's
action (act_basis) and operator matrices (op_matrix) alike.
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

The radical sums the closures of the non-generating kernel lines as it
goes, skipping lines already in the sum, and checks on the way that the
head is simple, which it relies on.
"""

import itertools
import random

from .fplin import GradedEchelon, addmul, apply_columns, joint_kernel, span_closure
from .chevalley import PChar
from .pbw import Straightener, fix_order
from .roots import LeviDatum


class CapExceeded(Exception):
    """A requested construction or search exceeds its size bound."""


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
        cols = self._cols.get(key)
        if cols is None:
            cols = {}
            for b in range(self.dim):
                img = self.act_basis(key, b)
                if img:
                    cols[b] = img
            self._cols[key] = cols
        return cols

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
        """Basis indices grouped by weight mod p, then by drop mod p."""
        if self._classes is None:
            classes = {}
            for b in range(self.dim):
                wt = tuple(v % self.p for v in self.weight_int(b))
                kap = tuple(v % self.p for v in self.drop_int(b))
                classes.setdefault(wt, {}).setdefault(kap, []).append(b)
            self._classes = classes
        return self._classes

    def grades(self):
        """Weight mod p of each basis index.  The torus acts diagonally
        and each x/y moves the weight by a root, so the xy action maps
        a weight-homogeneous vector to a weight-homogeneous one."""
        if self._grades is None:
            grades = [None] * self.dim
            for wt, groups in self.weight_classes().items():
                for idxs in groups.values():
                    for b in idxs:
                        grades[b] = wt
            self._grades = grades
        return self._grades


class InducedModule(ModuleBase):
    """Induced module on basis y^a (tensor) l, with index
    rank(a) * levi.dim + l: lexicographic in the exponent tuple, then by
    base index (see Straightener)."""

    def __init__(self, alg, chi, st, active=None):
        self.alg = alg
        self.rs = alg.rs
        self.p = chi.p
        self.chi = chi
        self.st = st
        self.levi = st.levi
        self.m = st.m
        self.dim = self.p**self.m * self.levi.dim
        if active is None:
            active = tuple(range(1, self.rs.n + 1))
        self.active = tuple(active)
        self.high = self.index_of((0,) * self.m, self.levi.high)
        self.lam = self.levi.weight_int(self.levi.high)
        self._cols = {}
        self._classes = None
        self._grades = None

    def index_of(self, exps, l):
        return self.st.rank(exps) * self.levi.dim + l

    def vector_at(self, b):
        r, l = divmod(b, self.levi.dim)
        return self.st.exps(r), l

    def act_basis(self, key, b):
        """The straightener's column: shared with op_matrix, never to be
        mutated."""
        return self.st.act(key, b)

    def weight_int(self, b):
        return self.st.weight_int(b)

    def drop_int(self, b):
        return self.st.drop_int(b)


class QuotientModule(ModuleBase):
    """Quotient by an action-stable subspace, on the canonical
    complement coordinates of the subspace's reduced row form."""

    def __init__(self, parent, sub, check=True):
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
        if check:
            self._check_stable()

    def _check_stable(self):
        for row in self.sub.basis():
            for op in self.parent.xy_ops():
                img = apply_columns(op, row, self.p)
                if self.sub.reduce(img):
                    raise AssertionError("subspace is not action-stable")

    def project(self, vec):
        red = self.sub.reduce(vec)
        return {self.pos[c]: v for c, v in red.items()}

    def lift(self, vec):
        return {self.keep[b]: c for b, c in vec.items()}

    def act_basis(self, key, b):
        return self.project(self.parent.act_basis(key, self.keep[b]))

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
    st = Straightener(alg, chi0, ld.levi_roots, TrivialLevi(lam))
    return head(InducedModule(alg, chi0, st, active=ld.J))


def build_parabolic_baby_verma(alg, chi, lam, cap=50000, order=None, levi=None):
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
    st = Straightener(alg, chi, order, levi)
    return InducedModule(alg, chi, st)


def build_baby_verma(alg, chi, lam, cap=50000, order=None):
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


def is_irreducible(mod, cap=10000):
    """Exact irreducibility decision; raises CapExceeded if the number
    of kernel lines to test exceeds cap."""
    profile, lines = _kernel_lines(mod, cap)
    checked = 0
    for wt, v in lines:
        checked += 1
        if not generates(mod, v):
            return IrreducibilityReport(False, mod, profile, v, wt, checked)
    return IrreducibilityReport(True, mod, profile, None, None, checked)


def radical(mod, cap=10000):
    """The unique maximal submodule, as an echelonized row space in
    global coordinates.  Relies on the head being simple (every vector
    outside the radical generates), which holds for the highest-weight
    modules built here; AssertionError if the non-generating kernel
    lines are seen to generate together."""
    return _radical_vectors(mod, cap).echelon()


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
        raise AssertionError("head is not simple: non-generating lines reach the top")
    if sub.rows:
        q = QuotientModule(mod, sub, check=False)
        for v in _radical_vectors(q, cap).echelon().basis():
            bad.insert(q.lift(v))
    return bad


def head(mod, cap=10000):
    return QuotientModule(mod, radical(mod, cap), check=False)


# ---- representation checks ----


def verify_commutators(mod, exhaustive_limit=700, samples=10000, seed=0):
    """Check rho([a,b]) = rho(a)rho(b) - rho(b)rho(a) on basis vectors.
    Exhaustive over all generator pairs and all basis vectors up to
    exhaustive_limit, sampled triples beyond."""
    p = mod.p
    keys = list(mod.alg.basis)
    if mod.dim <= exhaustive_limit:
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
            for _ in range(samples)
        )
    for a, b, c in triples:
        vb = mod.act_basis(b, c)
        lhs = {}
        for b2, v in vb.items():
            addmul(lhs, mod.act_basis(a, b2), v, p)
        va = mod.act_basis(a, c)
        for b2, v in va.items():
            addmul(lhs, mod.act_basis(b, b2), -v, p)
        rhs = {}
        for k, cf in mod.alg.bracket(a, b).items():
            addmul(rhs, mod.act_basis(k, c), cf, p)
        if lhs != rhs:
            raise AssertionError(
                "commutator mismatch at (%r, %r) on basis %d" % (a, b, c)
            )
    return True


def verify_frobenius(mod, sample_limit=1500, seed=0):
    """Check the p-th power laws on the module: x_g^p = 0,
    y_g^p = chi(y_g)^p, h_i^p = h_i as operators."""
    p = mod.p
    if mod.dim <= sample_limit:
        idxs = range(mod.dim)
    else:
        rng = random.Random(seed)
        idxs = sorted(rng.sample(range(mod.dim), sample_limit))
    kinds = []
    for g in mod.rs.roots:
        kinds.append((("x", g), 0))
        kinds.append((("y", g), pow(mod.chi.at_root(g), p, p)))
    for key, scalar in kinds:
        op = mod.op_matrix(key)
        for b in idxs:
            v = {b: 1}
            for _ in range(p):
                v = apply_columns(op, v, p)
            want = {b: scalar} if scalar else {}
            if v != want:
                raise AssertionError(
                    "p-th power law fails for %r at basis %d" % (key, b)
                )
    for i in range(1, mod.rs.n + 1):
        op = mod.op_matrix(("h", i))
        for b in idxs:
            v = {b: 1}
            for _ in range(p):
                v = apply_columns(op, v, p)
            if v != op.get(b, {}):
                raise AssertionError("p-th power law fails for h%d at %d" % (i, b))
    return True
