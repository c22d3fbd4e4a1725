"""Root systems of types A/B/C/D: positive roots, pairings, the Weyl
dot action, p-regular alcove weights and the admissible Levi shapes.

Conventions. Roots are tuples of coefficients over the simple roots
alpha_1..alpha_n. Weights are tuples of fundamental coordinates,
coords[i] = <lambda, alpha_i^vee>. The Cartan matrix is
cartan[i][j] = <alpha_i, alpha_j^vee>; alpha_n is short in B_n, long in
C_n, and D_n forks at alpha_{n-2}. Simple-root indices are 1-based in
every public signature.
"""

import itertools
from fractions import Fraction

RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 4}


def cartan_matrix(typ, n):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2
    for i in range(n - 1):
        A[i][i + 1] = A[i + 1][i] = -1
    if typ == "B":
        A[n - 2][n - 1] = -2
        A[n - 1][n - 2] = -1
    elif typ == "C":
        A[n - 2][n - 1] = -1
        A[n - 1][n - 2] = -2
    elif typ == "D":
        A[n - 2][n - 1] = A[n - 1][n - 2] = 0
        A[n - 3][n - 1] = A[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in A)


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
        self.cartan = cartan_matrix(typ, rank)
        self.roots = self._generate_positive_roots()
        self.N = len(self.roots)
        if self.N != _expected_count(typ, rank):
            raise AssertionError("positive root count mismatch")
        self.index = {g: k for k, g in enumerate(self.roots)}
        self._fund = {g: self._fund_coords(g) for g in self.roots}
        self.d = self._symmetrizers()
        self.droot = {g: self._half_length(g) for g in self.roots}
        self.coroot_weights = {}
        for g in self.roots:
            m = tuple(Fraction(c) * self.d[j] / self.droot[g] for j, c in enumerate(g))
            if any(f.denominator != 1 for f in m):
                raise AssertionError("non-integral coroot expansion for %r" % (g,))
            self.coroot_weights[g] = tuple(int(f) for f in m)

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

    def _fund_coords(self, root):
        n = self.n
        return tuple(
            sum(root[k] * self.cartan[k][i] for k in range(n)) for i in range(n)
        )

    def _symmetrizers(self):
        # d_i with d_i * a_ij symmetric in (i, j); fixes d_1 = 1
        n = self.n
        d = [None] * n
        d[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(n):
                if j != i and self.cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * self.cartan[j][i] / self.cartan[i][j]
                    todo.append(j)
        return tuple(d)

    def _half_length(self, root):
        # (root, root)/2 in the scale where long simple roots have 1
        acc = Fraction(0)
        for l, c in enumerate(root):
            if c:
                acc += Fraction(c) * self.d[l] * self._fund[root][l]
        return acc / 2

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
        n = self.n
        m = n + 1 if self.typ == "A" else n
        v = [0] * m
        for k, c in enumerate(root):
            if not c:
                continue
            i = k + 1
            if self.typ == "A" or i < n:
                v[i - 1] += c
                v[i] -= c
            elif self.typ == "B":
                v[n - 1] += c
            elif self.typ == "C":
                v[n - 1] += 2 * c
            else:
                v[n - 2] += c
                v[n - 1] += c
        return tuple(v)


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
