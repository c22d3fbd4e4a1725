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
powers through the p-character.
"""

from .roots import levi_datum


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
    ld = levi_datum(rs, I)
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


def _bump(acc, key, val, p):
    v = (acc.get(key, 0) + val) % p
    if v:
        acc[key] = v
    elif key in acc:
        del acc[key]


class Straightener:
    """Left multiplication on the ordered basis y^a (tensor) l.

    order fixes the u_J^- slots, levi supplies the finite base module
    (weight, grading and action of the Levi root vectors on its own
    basis).  All coefficients are reduced mod p; p-th powers of the
    u_J^- vectors collapse through chi.
    """

    def __init__(self, alg, chi, order, levi):
        self.alg = alg
        self.rs = alg.rs
        self.chi = chi
        self.p = chi.p
        self.order = tuple(order)
        self.m = len(self.order)
        self.levi = levi
        self.slot = {g: k for k, g in enumerate(self.order)}
        self.chival = [chi.at_root(g) for g in self.order]
        self._fund = [self.rs.fund(g) for g in self.order]
        self._lm = {}
        self._act = {}

    # products y_{gamma_k} . y^exps inside the chi-reduced nilradical

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
        w = list(self.levi.weight(l))
        for k, a in enumerate(exps):
            if a:
                fk = self._fund[k]
                for i in range(len(w)):
                    w[i] -= a * fk[i]
        return tuple(w)

    def drop_int(self, exps, l):
        d = list(self.levi.droproot(l))
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
                for l2, c in self.levi.act(gkey, l).items():
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
