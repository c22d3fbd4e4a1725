"""Bracket-table checks against independent oracles.

The main oracle is the literal trace-zero matrix model: map the simple
generators to elementary matrices, extend to the other root vectors by
the algebra's own normalization, and require equality of every bracket
as an actual matrix identity.  The axiomatic checks (Jacobi, grading,
chain magnitudes, coroot pairings, the restricted identity) pin the
table for the types without a convenient literal model.  Jacobi and the
restricted identity are the module checks on the adjoint module.
Jacobi is checked mod 13, which is exact: every coefficient of
a.(b.c), b.(a.c) and [a,b].c has absolute value at most 4 (pinned
below), so their difference is at most 12 and is 0 mod 13 only when it
is 0 over the integers.
"""

import random

import pytest

from babyverma.roots import RootSystem
from babyverma.chevalley import ChevalleyAlgebra, PChar, make_pchar, basis_label
from babyverma.fplin import addmul
from babyverma.modules import AdjointModule, verify_commutators, verify_frobenius


def _zeros(n):
    return [[0] * n for _ in range(n)]


def _eij(i, j, n):
    m = _zeros(n)
    m[i][j] = 1
    return m


def _madd(a, b, c=1):
    return [[a[i][j] + c * b[i][j] for j in range(len(a))] for i in range(len(a))]


def _mmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _mbracket(a, b):
    return _madd(_mmul(a, b), _mmul(b, a), -1)


def _mscale(a, c):
    return [[c * v for v in row] for row in a]


def _single_entry(m):
    hits = [(i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v]
    return len(hits) == 1 and abs(hits[0][2]) == 1


def _sl_model(alg):
    """Map the basis into (n+1)x(n+1) matrices, simples literally,
    higher root vectors by the algebra's own base decompositions."""
    rs = alg.rs
    n = rs.n + 1
    phi = {}
    for i in range(1, rs.n + 1):
        g = rs.simple(i)
        phi[("x", g)] = _eij(i - 1, i, n)
        phi[("y", g)] = _eij(i, i - 1, n)
        phi[("h", i)] = _madd(_eij(i - 1, i - 1, n), _eij(i, i, n), -1)
    for g in rs.roots:
        if sum(g) == 1:
            continue
        a, b = alg._base_pair[g]
        c = int(alg.nconst(a, b))
        assert abs(c) == 1
        phi[("x", g)] = _mscale(_mbracket(phi[("x", a)], phi[("x", b)]), c)
        phi[("y", g)] = _mscale(_mbracket(phi[("y", b)], phi[("y", a)]), c)
    return phi


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sl_matrix_model(rank):
    alg = ChevalleyAlgebra(RootSystem("A", rank))
    phi = _sl_model(alg)
    for g in alg.rs.roots:
        assert _single_entry(phi[("x", g)])
        assert _single_entry(phi[("y", g)])
    n = rank + 1
    for a in alg.basis:
        for b in alg.basis:
            want = _zeros(n)
            for k, c in alg.bracket(a, b).items():
                want = _madd(want, phi[k], c)
            assert want == _mbracket(phi[a], phi[b]), (
                basis_label(a),
                basis_label(b),
            )


def test_sl2_table_values():
    alg = ChevalleyAlgebra(RootSystem("A", 1))
    g = (1,)
    assert alg.bracket(("x", g), ("y", g)) == {("h", 1): 1}
    assert alg.bracket(("h", 1), ("x", g)) == {("x", g): 2}
    assert alg.bracket(("h", 1), ("y", g)) == {("y", g): -2}
    assert alg.bracket(("x", g), ("x", g)) == {}


def test_sl3_mixed_signs():
    alg = ChevalleyAlgebra(RootSystem("A", 2))
    a1, a2, a12 = (1, 0), (0, 1), (1, 1)
    assert int(alg.nconst(a1, a2)) == 1
    assert alg.bracket(("x", a12), ("y", a1)) == {("x", a2): -1}
    assert alg.bracket(("x", a2), ("y", a12)) == {("y", a1): 1}
    assert alg.bracket(("y", a1), ("y", a2)) == {("y", a12): -1}
    assert alg.bracket(("x", a12), ("y", a12)) == {("h", 1): 1, ("h", 2): 1}


def test_b2_chain_magnitude():
    # alpha2 string through alpha1+alpha2 has q = 1, so |N| = 2
    alg = ChevalleyAlgebra(RootSystem("B", 2))
    assert abs(int(alg.nconst((0, 1), (1, 1)))) == 2
    assert abs(int(alg.nconst((1, 0), (0, 1)))) == 1
    tgt = alg.bracket(("x", (0, 1)), ("x", (1, 1)))
    assert set(tgt) == {("x", (1, 2))} and abs(tgt[("x", (1, 2))]) == 2


@pytest.mark.parametrize(
    "typ,rank",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)],
)
def test_jacobi_integral(typ, rank):
    assert verify_commutators(AdjointModule(ChevalleyAlgebra(RootSystem(typ, rank)), 13))


@pytest.mark.parametrize("sign_flip", [False, True])
@pytest.mark.parametrize(
    "typ,rank",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)],
)
def test_jacobi_terms_are_small(typ, rank, sign_flip):
    # the bound that makes the mod 13 Jacobi check exact: read as signed
    # residues at a large p, a.(b.c) and [a,b].c have coefficients of
    # absolute value at most 4
    p = 10007
    alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=sign_flip)
    mod = AdjointModule(alg, p)
    top = 0
    for a in alg.basis:
        for b in alg.basis:
            for c in range(mod.dim):
                a_bc, ab_c = {}, {}
                for d, cf in mod.act_basis(b, c).items():
                    addmul(a_bc, mod.act_basis(a, d), cf, p)
                for k, cf in alg.bracket(a, b).items():
                    addmul(ab_c, mod.act_basis(k, c), cf, p)
                for v in list(a_bc.values()) + list(ab_c.values()):
                    top = max(top, min(v, p - v))
    assert 0 < top <= 4


@pytest.mark.parametrize(
    "typ,rank,pairs", [("A", 3, 30), ("B", 3, 69), ("C", 3, 69), ("D", 4, 108)]
)
def test_jacobi_catches_every_sign_flip(typ, rank, pairs):
    # negating one bracket and its transpose breaks Jacobi, and the
    # mod 13 check on the adjoint module sees it
    alg = ChevalleyAlgebra(RootSystem(typ, rank))
    flips = [
        (a, b)
        for (a, b) in alg.table
        if a[0] != "h" and b[0] != "h" and alg.basis.index(a) < alg.basis.index(b)
    ]
    assert len(flips) == pairs
    for a, b in flips:
        saved = alg.table[a, b], alg.table[b, a]
        alg.table[a, b] = {k: -c for k, c in saved[0].items()}
        alg.table[b, a] = {k: -c for k, c in saved[1].items()}
        with pytest.raises(AssertionError):
            verify_commutators(AdjointModule(alg, 13))
        alg.table[a, b], alg.table[b, a] = saved
    assert verify_commutators(AdjointModule(alg, 13))


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_antisymmetry(typ, rank):
    alg = ChevalleyAlgebra(RootSystem(typ, rank))
    for a in alg.basis:
        assert (a, a) not in alg.table
        for b in alg.basis:
            ab = alg.bracket(a, b)
            ba = alg.bracket(b, a)
            assert ba == {k: -c for k, c in ab.items()}


@pytest.mark.parametrize("typ,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_bracket_grading(typ, rank):
    alg = ChevalleyAlgebra(RootSystem(typ, rank))
    zero = (0,) * rank

    def wt(key):
        if key[0] == "x":
            return key[1]
        if key[0] == "y":
            return tuple(-v for v in key[1])
        return zero

    for (a, b), combo in alg.table.items():
        s = tuple(u + v for u, v in zip(wt(a), wt(b)))
        for k in combo:
            assert wt(k) == s


@pytest.mark.parametrize("typ,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_coroot_pairing_consistency(typ, rank):
    rng = random.Random(11)
    rs = RootSystem(typ, rank)
    for g in rs.roots:
        m = rs.coroot_weights[g]
        for _ in range(25):
            mu = tuple(rng.randrange(-10, 10) for _ in range(rank))
            assert sum(mi * ui for mi, ui in zip(m, mu)) == rs.pairing(mu, g)


@pytest.mark.parametrize(
    "typ,rank,p", [("A", 2, 3), ("A", 2, 5), ("B", 2, 3), ("D", 4, 3)]
)
def test_restricted_identity(typ, rank, p):
    assert verify_frobenius(AdjointModule(ChevalleyAlgebra(RootSystem(typ, rank)), p))


def test_sign_flip_consistent():
    rs = RootSystem("B", 2)
    plain = ChevalleyAlgebra(rs)
    flip = ChevalleyAlgebra(rs, sign_flip=True)
    assert verify_commutators(AdjointModule(flip, 13))
    assert int(flip.nconst((1, 0), (0, 1))) == -int(plain.nconst((1, 0), (0, 1)))
    assert set(flip.table) == set(plain.table)
    for key, combo in plain.table.items():
        other = flip.table[key]
        assert set(other) == set(combo)
        for k, c in combo.items():
            assert abs(other[k]) == abs(c)


def test_pchar_validation():
    alg = ChevalleyAlgebra(RootSystem("A", 2))
    chi = make_pchar(alg, 5, [1])
    assert chi.I == (1,) and chi.chi_simple(1) == 1 and chi.chi_simple(2) == 0
    chi2 = make_pchar(alg, 5, [2, 1], values={1: 3, 2: 7})
    assert chi2.c == {1: 3, 2: 2}
    with pytest.raises(ValueError):
        make_pchar(alg, 5, [1], values={1: 5})
    with pytest.raises(ValueError):
        make_pchar(alg, 5, [3])
    with pytest.raises(ValueError):
        PChar(5, [1], values={2: 1})


def test_bracket_lines_sl2():
    alg = ChevalleyAlgebra(RootSystem("A", 1))
    assert alg.bracket_lines() == [
        "(x(a1), y(a1)) -> 1*h1",
        "(x(a1), h1) -> -2*x(a1)",
        "(y(a1), h1) -> 2*y(a1)",
    ]
