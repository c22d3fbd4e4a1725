"""The Lie algebra attached to a root system: Chevalley basis
{x_gamma, y_gamma, h_i}, integer structure constants, and p-characters
of standard Levi form.  The Jacobi identity and the restricted p-map
(root vectors to 0, each h_i to itself) are checked on the adjoint
module, modules.AdjointModule, by the checks every module goes through.

Structure constants are derived from a base choice on one distinguished
pair per non-simple root (the minimal decomposition in the fixed total
order), propagated by the two classical relations that follow from the
Jacobi identity:

  (R1) for roots a+b+c = 0:
       N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b)
  (R2) for roots a+b = x+y (all positive, (a,b) the base pair, x != a):
       N(x,y) = (g,g)/N(a,b) * [ N(y,-a) N(x,-b)/(y-a, y-a)
                                + N(-a,x) N(y,-b)/(x-a, x-a) ]
       with terms dropped when the inner difference is not a root.

Everything is computed in exact rationals and asserted integral with
|N| = q+1 (q the root-string length) before the table is frozen.
"""

from fractions import Fraction

from .roots import root_label


def basis_label(key):
    if key[0] == "h":
        return "h%d" % key[1]
    return "%s(%s)" % (key[0], root_label(key[1]))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _neg(u):
    return tuple(-a for a in u)


class ChevalleyAlgebra:
    def __init__(self, rs, sign_flip=False):
        self.rs = rs
        self.sign_flip = bool(sign_flip)
        self._zero = (0,) * rs.n
        self._all_roots = set(rs.roots) | {_neg(g) for g in rs.roots}
        self._nmemo = {}
        self.module_tables = {}  # per family: InducedModule rank tables, top_rows, _levi_rows
        self._base_pair = self._pick_base_pairs()
        self.basis = (
            tuple(("x", g) for g in rs.roots)
            + tuple(("y", g) for g in rs.roots)
            + tuple(("h", i) for i in range(1, rs.n + 1))
        )
        self._verify_constants()
        self.table = self._build_table()

    # ---- structure constants ----

    def _pick_base_pairs(self):
        # minimal first component among ordered decompositions of gamma
        idx = self.rs.index
        base = {}
        for g in self.rs.roots:
            if sum(g) == 1:
                continue
            best = None
            for a in self.rs.roots:
                b = tuple(x - y for x, y in zip(g, a))
                if b in self.rs.index and idx[a] < idx[b]:
                    if best is None or idx[a] < idx[best[0]]:
                        best = (a, b)
            if best is None:
                raise AssertionError("no decomposition for %r" % (g,))
            base[g] = best
        return base

    def _sq(self, u):
        g = u if u in self.rs.index else _neg(u)
        return self.rs.droot[g]

    def _chain_down(self, a, b):
        # largest q with b - q a a root
        q = 0
        w = tuple(x - y for x, y in zip(b, a))
        while w in self._all_roots:
            q += 1
            w = tuple(x - y for x, y in zip(w, a))
        return q

    def nconst(self, u, v):
        """N(u, v) with [x_u, x_v] = N(u, v) x_{u+v}, for any roots u, v
        with u+v a root (0 otherwise; u+v = 0 not allowed here)."""
        s = _add(u, v)
        if s == self._zero:
            raise ValueError("opposite roots have no N constant")
        if s not in self._all_roots:
            return Fraction(0)
        key = (u, v)
        got = self._nmemo.get(key)
        if got is not None:
            return got
        val = self._nconst_inner(u, v, s)
        self._nmemo[key] = val
        return val

    def _nconst_inner(self, u, v, s):
        idx = self.rs.index
        upos = u in idx
        vpos = v in idx
        if not upos and not vpos:
            return -self.nconst(_neg(u), _neg(v))
        if not upos:
            return -self.nconst(v, u)
        if upos and vpos:
            if idx[u] > idx[v]:
                return -self.nconst(v, u)
            a, b = self._base_pair[s]
            if (u, v) == (a, b):
                q = self._chain_down(u, v)
                return Fraction(-(q + 1) if self.sign_flip else q + 1)
            # (R2), inner constants live at strictly smaller height sums
            total = Fraction(0)
            d1 = _add(v, _neg(a))
            if d1 in self._all_roots:
                total += self.nconst(v, _neg(a)) * self.nconst(u, _neg(b)) / self._sq(d1)
            d2 = _add(u, _neg(a))
            if d2 in self._all_roots:
                total += self.nconst(_neg(a), u) * self.nconst(v, _neg(b)) / self._sq(d2)
            return self._sq(s) / self.nconst(a, b) * total
        # u positive, v negative: (R1) with the third root -s
        if s in idx:
            return self._sq(s) / self._sq(u) * self.nconst(v, _neg(s))
        return self._sq(s) / self._sq(v) * self.nconst(_neg(s), u)

    def _verify_constants(self):
        idx = self.rs.index
        for a in self.rs.roots:
            for b in self.rs.roots:
                if idx[a] >= idx[b]:
                    continue
                s = _add(a, b)
                if s not in idx:
                    continue
                n = self.nconst(a, b)
                if n.denominator != 1:
                    raise AssertionError("non-integer N(%r, %r) = %s" % (a, b, n))
                q = self._chain_down(a, b)
                if abs(int(n)) != q + 1:
                    raise AssertionError(
                        "|N(%r, %r)| = %d, expected %d" % (a, b, abs(int(n)), q + 1)
                    )

    # ---- bracket table ----

    def _build_table(self):
        rs = self.rs
        idx = rs.index
        table = {}

        def put(a, b, combo):
            combo = {k: int(c) for k, c in combo.items() if c}
            if combo:
                table[(a, b)] = combo
                table[(b, a)] = {k: -c for k, c in combo.items()}

        for g in rs.roots:
            fg = rs.fund(g)
            for i in range(1, rs.n + 1):
                put(("h", i), ("x", g), {("x", g): fg[i - 1]})
                put(("h", i), ("y", g), {("y", g): -fg[i - 1]})
            put(
                ("x", g),
                ("y", g),
                {("h", j + 1): m for j, m in enumerate(rs.coroot_weights[g])},
            )
        for a in rs.roots:
            for b in rs.roots:
                if idx[a] >= idx[b]:
                    continue
                s = _add(a, b)
                if s in idx:
                    n = int(self.nconst(a, b))
                    put(("x", a), ("x", b), {("x", s): n})
                    put(("y", a), ("y", b), {("y", s): -n})
                d = _add(a, _neg(b))
                if d in self._all_roots:
                    n = int(self.nconst(a, _neg(b)))
                    tgt = ("x", d) if d in idx else ("y", _neg(d))
                    put(("x", a), ("y", b), {tgt: n})
                    # [x_b, y_a] lands on the opposite side
                    n2 = int(self.nconst(b, _neg(a)))
                    tgt2 = ("x", _neg(d)) if _neg(d) in idx else ("y", d)
                    put(("x", b), ("y", a), {tgt2: n2})
        return table

    def bracket(self, a, b):
        """[a, b] as a dict over basis keys (empty when zero)."""
        return self.table.get((a, b), {})

    def bracket_lines(self):
        """Nonzero brackets of basis pairs (first before second in basis
        enumeration) as stable text lines for golden files."""
        pos = {k: i for i, k in enumerate(self.basis)}
        lines = []
        for a in self.basis:
            for b in self.basis:
                if pos[a] >= pos[b]:
                    continue
                combo = self.bracket(a, b)
                if not combo:
                    continue
                terms = sorted(combo.items(), key=lambda kv: pos[kv[0]])
                rhs = " + ".join("%d*%s" % (c, basis_label(k)) for k, c in terms)
                lines.append("(%s, %s) -> %s" % (basis_label(a), basis_label(b), rhs))
        return lines


class PChar:
    """p-character of standard Levi form: chi(y_alpha_i) = c_i != 0 for
    i in I, zero on every other basis direction."""

    def __init__(self, p, I, values=None):
        self.p = p
        self.I = tuple(sorted(set(I)))
        if values is None:
            values = {i: 1 for i in self.I}
        if set(values) != set(self.I):
            raise ValueError("chi values must be given exactly on I")
        self.c = {}
        for i in self.I:
            v = values[i] % p
            if v == 0:
                raise ValueError("chi value on alpha_%d is zero mod %d" % (i, p))
            self.c[i] = v

    def chi_simple(self, i):
        return self.c.get(i, 0)

    def at_root(self, g):
        """chi(y_g) for a positive root g: chi_simple on simple roots,
        zero on every other root."""
        return self.chi_simple(g.index(1) + 1) if sum(g) == 1 else 0


def make_pchar(alg, p, I, values=None):
    I = tuple(sorted(set(I)))
    if any(i < 1 or i > alg.rs.n for i in I):
        raise ValueError("I must be simple indices in 1..%d" % alg.rs.n)
    return PChar(p, I, values)
