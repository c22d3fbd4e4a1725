"""Ordered monomial bases of the negative nilradical.

fix_order picks the total order of the u_J^- root vectors used for
monomial exponents.  For the Levi shapes where the irreducibility
argument needs a specific order (the shapes of roots.shape_check other
than the full set: prefix/suffix chains in type A, the suffix shape in
type B, the prefix shape in type C, the two admissible shapes in type
D), it reproduces that order exactly; anything else falls back to
height-then-lexicographic.  The choice only fixes the basis
enumeration, not the module; modules.InducedModule straightens on the
basis it numbers.
"""

from .roots import LeviDatum, shape_check


def _ones(n, t, j):
    # coefficient tuple of alpha_t + ... + alpha_j
    return tuple(1 if t - 1 <= i <= j - 1 else 0 for i in range(n))


def _min_support(g):
    return next(i for i, c in enumerate(g) if c) + 1


def _max_support(g):
    return max(i for i, c in enumerate(g) if c) + 1


def _order_type_a(rs, ld):
    n, s = rs.n, len(ld.I)
    return [_ones(n, t, j) for j in range(1, n + 1) for t in range(1, min(j, s) + 1)]


def _order_type_a_suffix(rs, ld):
    # the prefix order of the mirrored Dynkin diagram
    return [tuple(reversed(g)) for g in _order_type_a(rs, ld)]


def _blocks(rs, ld, indices, lead):
    # one block per simple index a, of the u_J^- roots g with
    # lead(g) == a: the non-simple roots by height, ties broken toward
    # the last simple root, then the simple root
    for a in indices:
        row = [g for g in ld.u_roots if lead(g) == a]
        nons = sorted((sum(g), -g[-1], g) for g in row if g != rs.simple(a))
        assert len({k[:2] for k in nons}) == len(nons)
        yield from (k[2] for k in nons)
        if rs.simple(a) in row:
            yield rs.simple(a)


def _order_type_bd(rs, ld):
    # blocks by leading simple index, from n down to 1; in the type D
    # suffix shape that is each u_J^- root's first e-coordinate, and a
    # tie in height breaks toward the fork root alpha_n
    return list(_blocks(rs, ld, range(rs.n, 0, -1), _min_support))


def _epair(rs, g):
    ev = rs.evector(g)
    pos = [i + 1 for i, v in enumerate(ev) if v]
    return (pos[0], pos[-1])


def _order_type_c(rs, ld):
    # blocks by trailing simple index for the short-root part, then the
    # long-root block ordered by the euclidean support pair
    long_row = [g for g in ld.u_roots if g[rs.n - 1] > 0]
    long_row.sort(key=lambda g: (-_epair(rs, g)[1], -_epair(rs, g)[0]))
    return list(_blocks(rs, ld, range(1, rs.n), _max_support)) + long_row


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


# the order for each (type, roots.shape_check shape) that needs one
_ORDERS = {
    ("A", "prefix"): _order_type_a,
    ("A", "suffix"): _order_type_a_suffix,
    ("B", "suffix"): _order_type_bd,
    ("C", "prefix"): _order_type_c,
    ("D", "suffix"): _order_type_bd,
    ("D", "chain"): _order_type_d_chain,
}


def fix_order(rs, I):
    """Total order on the u_J^- roots as a tuple of coefficient
    tuples."""
    ld = LeviDatum(rs, I)
    u = list(ld.u_roots)
    if not u:
        return ()
    build = _ORDERS.get((rs.typ, shape_check(rs, ld.I)))
    out = build(rs, ld) if build else sorted(u, key=lambda g: (sum(g), g))
    assert sorted(out) == sorted(u)
    return tuple(out)
