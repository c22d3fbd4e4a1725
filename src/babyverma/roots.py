"""Root systems of types A/B/C/D: positive roots, pairings, the Weyl
dot action, p-regular alcove weights and the admissible Levi shapes.

Conventions. Roots are tuples of coefficients over the simple roots
alpha_1..alpha_n. Weights are tuples of fundamental coordinates,
coords[i] = <lambda, alpha_i^vee>. The one type-specific table is
_simple_evectors, the simple roots over the orthogonal basis e_1..e_m
(Bourbaki, Lie Groups and Lie Algebras VI, plates I-IV):
alpha_i = e_i - e_(i+1), and alpha_n = e_n in B_n (short), 2e_n in C_n
(long) and e_(n-1) + e_n in D_n (the fork at alpha_(n-2)); type A has
m = n+1. The Cartan matrix cartan[i][j] = <alpha_i, alpha_j^vee> =
2(alpha_i, alpha_j)/(alpha_j, alpha_j), the root lengths, the coroots
and the e-vector of every root are derived from it. Simple-root indices
are 1-based in every public signature.
"""

import itertools
from fractions import Fraction

RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 4}


def _simple_evectors(typ, n):
    m = n + 1 if typ == "A" else n
    rows = [[(k == i) - (k == i + 1) for k in range(m)] for i in range(n)]
    if typ != "A":
        rows[-1] = [0] * (n - 2) + {"B": [0, 1], "C": [0, 2], "D": [1, 1]}[typ]
    return tuple(map(tuple, rows))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _integral(fracs, what):
    if any(f.denominator != 1 for f in fracs):
        raise AssertionError("non-integral " + what)
    return tuple(int(f) for f in fracs)


def _expected_count(typ, n):
    if typ == "A":
        return n * (n + 1) // 2
    if typ in ("B", "C"):
        return n * n
    return n * (n - 1)


def root_label(root):
    """Readable name like a1+2a2+a3 for the root (1, 2, 1)."""
    parts = []
    for i, c in enumerate(root, 1):
        if c == 0:
            continue
        parts.append("a%d" % i if c == 1 else "%da%d" % (c, i))
    return "+".join(parts) if parts else "0"


class RootSystem:
    def __init__(self, typ, rank):
        if typ not in RANK_MIN:
            raise ValueError("unsupported type %r, expected A/B/C/D" % (typ,))
        if rank < RANK_MIN[typ]:
            raise ValueError(
                "type %s needs rank >= %d, got %d" % (typ, RANK_MIN[typ], rank)
            )
        self.typ = typ
        self.n = rank
        self._e = _simple_evectors(typ, rank)
        self.cartan = tuple(
            _integral([Fraction(2 * _dot(a, b), _dot(b, b)) for b in self._e],
                      "Cartan matrix of %s%d" % (typ, rank))
            for a in self._e
        )
        self.roots = self._generate_positive_roots()
        self.N = len(self.roots)
        if self.N != _expected_count(typ, rank):
            raise AssertionError("positive root count mismatch")
        self.index = {g: k for k, g in enumerate(self.roots)}
        cols = tuple(zip(*self.cartan))
        self._fund = {g: tuple(_dot(g, col) for col in cols) for g in self.roots}
        # (g, g)/2, which is 1 on alpha_1 in every type
        ev = {g: self.evector(g) for g in self.roots}
        self.droot = {g: Fraction(_dot(v, v), 2) for g, v in ev.items()}
        d = [self.droot[self.simple(j)] for j in range(1, rank + 1)]
        self.coroot_weights = {
            g: _integral([c * d[j] / self.droot[g] for j, c in enumerate(g)],
                         "coroot expansion for %r" % (g,))
            for g in self.roots
        }

    def _generate_positive_roots(self):
        n = self.n
        A = self.cartan
        simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        found = set(simples)
        level = list(simples)
        all_roots = list(simples)
        while level:
            nxt = []
            for g in level:
                for i in range(n):
                    if g == simples[i]:
                        continue
                    down = 0
                    gg = tuple(c - s for c, s in zip(g, simples[i]))
                    while gg in found:
                        down += 1
                        gg = tuple(c - s for c, s in zip(gg, simples[i]))
                    pairing = sum(g[k] * A[k][i] for k in range(n))
                    if down - pairing > 0:
                        cand = tuple(c + s for c, s in zip(g, simples[i]))
                        if cand not in found:
                            found.add(cand)
                            nxt.append(cand)
            all_roots.extend(nxt)
            level = nxt
        # height then anti-lexicographic; addition-compatible total order
        all_roots.sort(key=lambda g: (sum(g), tuple(-c for c in g)))
        return tuple(all_roots)

    def simple(self, i):
        return tuple(1 if j == i - 1 else 0 for j in range(self.n))

    def fund(self, root):
        """The root written in fundamental coordinates (as a weight)."""
        return self._fund[root]

    def pairing(self, mu, root):
        """<mu, root^vee> for a weight mu in fundamental coordinates."""
        g = tuple(root)
        if g not in self.coroot_weights:
            neg = tuple(-c for c in g)
            if neg not in self.coroot_weights:
                raise ValueError("%r is not a root" % (root,))
            return -sum(m * x for m, x in zip(self.coroot_weights[neg], mu))
        return sum(m * x for m, x in zip(self.coroot_weights[g], mu))

    def reflect(self, mu, i):
        """Simple reflection s_i on a weight (not the dot action)."""
        al = self.cartan[i - 1]
        c = mu[i - 1]
        return tuple(x - c * a for x, a in zip(mu, al))

    def dot_action(self, word, lam):
        """Apply a word of simple reflection indices to lam under the
        rho-shifted action, composing right to left."""
        mu = tuple(x + 1 for x in lam)
        for i in reversed(list(word)):
            mu = self.reflect(mu, i)
        return tuple(x - 1 for x in mu)

    def regular_alcove_weights(self, p):
        """All p-regular weights in the first dominant alcove, sorted."""
        out = []
        for lam in itertools.product(range(p - 1), repeat=self.n):
            mu = tuple(x + 1 for x in lam)
            if all(0 < self.pairing(mu, g) < p for g in self.roots):
                out.append(lam)
        return out

    def evector(self, root):
        """Coordinates of the root over the orthogonal e_i basis
        (length n+1 for type A, n otherwise)."""
        return tuple(_dot(root, col) for col in zip(*self._e))


class LeviDatum:
    """Partition of the positive roots by a subset I of simple indices:
    J = complement, R_J^+ = roots supported on J, U-roots = the rest."""

    def __init__(self, rs, I):
        I = tuple(sorted(set(I)))
        if any(i < 1 or i > rs.n for i in I):
            raise ValueError("I must be simple-root indices in 1..%d" % rs.n)
        self.rs = rs
        self.I = I
        self.J = tuple(j for j in range(1, rs.n + 1) if j not in I)
        jset = set(self.J)
        self.levi_roots = tuple(
            g for g in rs.roots
            if all(c == 0 or (k + 1) in jset for k, c in enumerate(g))
        )
        inlevi = set(self.levi_roots)
        self.u_roots = tuple(g for g in rs.roots if g not in inlevi)


def shape_check(rs, I):
    """The shape of I, if it is one of the connected-segment shapes with
    a proven irreducibility statement, else None: "prefix" or "suffix"
    in type A, "suffix" in type B, "prefix" in type C, and in type D
    "suffix" with I[0] <= n-2 or "chain", the full chain omitting the
    fork tip alpha_n.  The full set I = Pi (regular nilpotent) is
    "full".  pbw.fix_order picks its monomial order by this shape."""
    I = tuple(sorted(set(I)))
    n, k = rs.n, len(I)
    if not I or any(i < 1 or i > n for i in I):
        return None
    if k == n:
        return "full"
    prefix = I == tuple(range(1, k + 1))
    suffix = I == tuple(range(n - k + 1, n + 1))
    if suffix and (rs.typ in "AB" or rs.typ == "D" and I[0] <= n - 2):
        return "suffix"
    if prefix and rs.typ in "AC":
        return "prefix"
    if rs.typ == "D" and I == tuple(range(1, n)):
        return "chain"
    return None
