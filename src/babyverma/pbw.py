"""Ordered monomial bases of the negative nilradical and the
straightening engine.

fix_order picks the total order of the u_J^- root vectors used for
monomial exponents.  For the Levi shapes where the irreducibility
argument needs a specific order (prefix/suffix chains in type A, the
suffix shape in type B, the prefix shape in type C, the two admissible
shapes in type D), it reproduces that order exactly; anything else
falls back to height-then-lexicographic.  The choice only fixes the
basis enumeration, not the module.

Straightener rewrites left multiplication by root vectors into the
ordered basis y^a (tensor) l of the induced module, reducing p-th
powers through the p-character.  The base l runs over any module (dim,
high, weight_int, drop_int, act_basis): the trivial one-dimensional
weight space, or the Levi head, which is head() of the Levi's own Verma
module.  It works on integer indices: a monomial by its mixed-radix
rank, a basis vector by rank * levi.dim + l.
Left multiplication by each slot is one table over ranks, and the
action of each generator is one column table over indices, filled on
first use and shared by every caller, operator matrices included.
"""

from .roots import LeviDatum


def _ones(n, t, j):
    # coefficient tuple of alpha_t + ... + alpha_j
    return tuple(1 if t - 1 <= i <= j - 1 else 0 for i in range(n))


def _min_support(g):
    return next(i for i, c in enumerate(g) if c) + 1


def _max_support(g):
    return max(i for i, c in enumerate(g) if c) + 1


def _order_type_a(n, s):
    out = []
    for j in range(1, n + 1):
        for t in range(1, min(j, s) + 1):
            out.append(_ones(n, t, j))
    return out


def _order_type_b(rs, ld):
    # blocks by leading simple index, from n down to 1; inside a block
    # the non-simple roots go by height, the simple root last
    out = []
    for a in range(rs.n, 0, -1):
        row = [g for g in ld.u_roots if _min_support(g) == a]
        if not row:
            continue
        simple = rs.simple(a)
        nons = sorted((g for g in row if g != simple), key=sum)
        assert len({sum(g) for g in nons}) == len(nons)
        out.extend(nons)
        if simple in row:
            out.append(simple)
    return out


def _epair(rs, g):
    ev = rs.evector(g)
    pos = [i + 1 for i, v in enumerate(ev) if v]
    if len(pos) == 1:
        return (pos[0], pos[0])
    return (pos[0], pos[1])


def _order_type_c(rs, ld):
    # blocks by trailing simple index for the short-root part, then the
    # long-root block ordered by the euclidean support pair
    out = []
    for j in range(1, rs.n):
        row = [g for g in ld.u_roots if _max_support(g) == j]
        if not row:
            continue
        simple = rs.simple(j)
        nons = sorted((g for g in row if g != simple), key=sum)
        assert len({sum(g) for g in nons}) == len(nons)
        out.extend(nons)
        if simple in row:
            out.append(simple)
    long_row = [g for g in ld.u_roots if g[rs.n - 1] > 0]
    long_row.sort(key=lambda g: (-_epair(rs, g)[1], -_epair(rs, g)[0]))
    out.extend(long_row)
    return out


def _order_type_d_suffix(rs, ld):
    # blocks by leading euclidean index, n-1 down to 1; ties in height
    # broken toward the fork root, chain simple last in its block
    n = rs.n
    out = []
    for a in range(n - 1, 0, -1):
        row = [g for g in ld.u_roots if _epair(rs, g)[0] == a]
        if not row:
            continue
        chain = rs.simple(a)
        rest = [g for g in row if g != chain]
        rest.sort(key=lambda g: (sum(g), -g[n - 1]))
        assert len({(sum(g), g[n - 1]) for g in rest}) == len(rest)
        out.extend(rest)
        if chain in row:
            out.append(chain)
    return out


def _order_type_d_chain(rs, ld):
    # chain blocks as in type A on alpha_1..alpha_{n-1}, then all roots
    # through the fork grouped by leading index with trailing index
    # descending
    n = rs.n
    out = []
    for j in range(1, n):
        for t in range(j - 1, 0, -1):
            out.append(_ones(n, t, j))
        out.append(rs.simple(j))
    emap = {rs.evector(g): g for g in rs.roots}
    for a in range(n - 2, 0, -1):
        for b in range(n, a, -1):
            ev = tuple(1 if i + 1 in (a, b) else 0 for i in range(n))
            out.append(emap[ev])
    return out


def fix_order(rs, I):
    """Total order on the u_J^- roots as a tuple of coefficient
    tuples."""
    ld = LeviDatum(rs, I)
    u = list(ld.u_roots)
    if not u:
        return ()
    n = rs.n
    I = ld.I
    k = len(I)
    prefix = I == tuple(range(1, k + 1))
    suffix = I == tuple(range(n - k + 1, n + 1))
    out = None
    if k < n:
        if rs.typ == "A" and prefix:
            out = _order_type_a(n, k)
        elif rs.typ == "A" and suffix:
            out = [tuple(reversed(g)) for g in _order_type_a(n, k)]
        elif rs.typ == "B" and suffix:
            out = _order_type_b(rs, ld)
        elif rs.typ == "C" and prefix:
            out = _order_type_c(rs, ld)
        elif rs.typ == "D" and suffix and I[0] <= n - 2:
            out = _order_type_d_suffix(rs, ld)
        elif rs.typ == "D" and I == tuple(range(1, n)):
            out = _order_type_d_chain(rs, ld)
    if out is None:
        out = sorted(u, key=lambda g: (sum(g), g))
    assert sorted(out) == sorted(u)
    return tuple(out)


class Straightener:
    """Left multiplication on the ordered basis y^a (tensor) l, on
    integer indices.

    order fixes the u_J^- slots; levi is the finite base module, read
    through the module interface, its weights and drops once into lists.
    A monomial y^a has rank a_0 p^(m-1) + ... + a_(m-1): mixed radix p,
    slot 0 most significant.  The basis vector y^a (tensor) l
    has index rank(a) * levi.dim + l.  All coefficients are reduced mod
    p; p-th powers of the u_J^- vectors collapse through chi.
    """

    def __init__(self, alg, chi, order, levi):
        self.alg = alg
        self.rs = alg.rs
        self.chi = chi
        self.p = chi.p
        self.order = tuple(order)
        self.m = len(self.order)
        self.levi = levi
        self._lw = [levi.weight_int(l) for l in range(levi.dim)]
        self._ld = [levi.drop_int(l) for l in range(levi.dim)]
        self.slot = {g: k for k, g in enumerate(self.order)}
        self.chival = [chi.at_root(g) for g in self.order]
        self.stride = [self.p ** (self.m - 1 - k) for k in range(self.m)]
        self._lm = None
        self._cols = {}
        self._brk = {}

    def rank(self, exps):
        r = 0
        for a in exps:
            r = r * self.p + a
        return r

    def exps(self, r):
        return tuple((r // s) % self.p for s in self.stride)

    def _tables(self):
        """Per-rank tables, built on first use: _lead[r], the leading
        (first nonzero) slot of r; _mwt[r] and _mdrop[r], the weight and
        drop shifts of y^r; and _lm[k][r], y_k . y^r as {rank: coeff}.

        For k past the leading slot j of r, y_k y_j y^rest = y_j (y_k
        y^rest) + [y_k, y_j] y^rest.  The terms read y_k and y_[k,j] on
        the lower-degree rest, and y_j on monomials of degree at most
        deg(r) with j < k.  Filling by degree, then by slot, therefore
        writes every entry before it is read."""
        if self._lm is not None:
            return self._lm
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
        corr = {}
        for k in range(m):
            for j in range(k):
                s = tuple(x + y for x, y in zip(order[k], order[j]))
                if s in self.slot:
                    c = (-int(self.alg.nconst(order[k], order[j]))) % p
                    if c:
                        corr[k, j] = (self.slot[s], c)
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
                    tj = tabs[j]
                    out = {}
                    for e1, c1 in tk[rest].items():
                        for e2, c2 in tj[e1].items():
                            out[e2] = out.get(e2, 0) + c1 * c2
                    if (k, j) in corr:
                        s, c = corr[k, j]
                        for e2, c2 in tabs[s][rest].items():
                            out[e2] = out.get(e2, 0) + c * c2
                    tk[r] = {e: v % p for e, v in out.items() if v % p}
        self._lead, self._mwt, self._mdrop = lead, mwt, mdrop
        self._lm = tabs
        return tabs

    def leftmul(self, k, exps):
        """y_k . y^exps inside the chi-reduced nilradical, as
        {exps': coeff}."""
        col = self._tables()[k][self.rank(exps)]
        return {self.exps(r): c for r, c in col.items()}

    def weight_int(self, b):
        if self._lm is None:
            self._tables()
        r, l = divmod(b, self.levi.dim)
        return tuple(w + s for w, s in zip(self._lw[l], self._mwt[r]))

    def drop_int(self, b):
        if self._lm is None:
            self._tables()
        r, l = divmod(b, self.levi.dim)
        return tuple(d + s for d, s in zip(self._ld[l], self._mdrop[r]))

    def act(self, gkey, b):
        """Action of a basis generator on the basis vector of index b,
        as {index: coeff}.  For an x or y key this is the memoised
        column, shared by every caller: it must not be mutated."""
        if gkey[0] == "h":
            c = self.weight_int(b)[gkey[1] - 1] % self.p
            return {b: c} if c else {}
        col = self._cols.get(gkey)
        if col is None:
            self._tables()
            col = self._cols[gkey] = [None] * (self.p**self.m * self.levi.dim)
        out = col[b]
        if out is None:
            # walk down b, rest(b), ... to a filled entry, then fill
            # upwards, so a cold call recurses only through the bracket
            # keys and never once per unit of exponent
            ldim = self.levi.dim
            chain = [b]
            r = b // ldim
            while r:
                rest = chain[-1] - self.stride[self._lead[r]] * ldim
                if col[rest] is not None:
                    break
                chain.append(rest)
                r = rest // ldim
            for c in reversed(chain):
                out = col[c] = self._column(gkey, c, col)
        return out

    def _column(self, gkey, b, col):
        # y^a = y_j y^rest with j the leading slot of a:
        # g y_j y^rest l = y_j (g y^rest l) + [g, y_j] y^rest l
        p = self.p
        ldim = self.levi.dim
        r, l = divmod(b, ldim)
        if not r:
            typ, g = gkey
            k = self.slot.get(g)
            if k is None:
                return self.levi.act_basis(gkey, l)
            if typ == "x":
                return {}
            return {r2 * ldim + l: c for r2, c in self._lm[k][0].items()}
        j = self._lead[r]
        rest = b - self.stride[j] * ldim
        tj = self._lm[j]
        out = {}
        for b1, c1 in col[rest].items():
            r1, l1 = divmod(b1, ldim)
            for r2, c2 in tj[r1].items():
                b2 = r2 * ldim + l1
                out[b2] = out.get(b2, 0) + c1 * c2
        brk = self._brk.get((gkey, j))
        if brk is None:
            brk = self._brk[gkey, j] = tuple(
                self.alg.bracket(gkey, ("y", self.order[j])).items()
            )
        for bkey, bc in brk:
            if bkey[0] == "h":
                # the torus acts on y^rest l by a scalar
                out[rest] = out.get(rest, 0) + bc * self.weight_int(rest)[bkey[1] - 1]
                continue
            bcol = self._cols.get(bkey)
            img = None if bcol is None else bcol[rest]
            if img is None:
                img = self.act(bkey, rest)
            for b2, c2 in img.items():
                out[b2] = out.get(b2, 0) + bc * c2
        return {b2: v % p for b2, v in out.items() if v % p}
