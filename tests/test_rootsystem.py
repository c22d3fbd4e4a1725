import itertools
import random

import pytest

from _oracles import (
    affine_dot_action,
    decompose_weight,
    in_first_dominant_alcove,
    is_p_regular,
)
from babyverma.roots import RANK_MIN, LeviDatum, RootSystem, root_label, shape_check


def rs(typ, n):
    return RootSystem(typ, n)


def test_counts():
    assert rs("A", 1).N == 1
    assert rs("A", 2).N == 3
    assert rs("A", 3).N == 6
    assert rs("B", 2).N == 4
    assert rs("B", 3).N == 9
    assert rs("C", 3).N == 9
    assert rs("D", 4).N == 12


def test_rank_bounds():
    with pytest.raises(ValueError):
        rs("B", 1)
    with pytest.raises(ValueError):
        rs("D", 3)
    with pytest.raises(ValueError):
        rs("E", 6)


def test_positive_roots_a2():
    assert set(rs("A", 2).roots) == {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_b2():
    # alpha2 short; the long-string root alpha1 + 2 alpha2 exists
    assert set(rs("B", 2).roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_positive_roots_c3():
    R = rs("C", 3)
    assert (2, 2, 1) in R.roots  # 2e1, the long root
    assert (0, 2, 1) in R.roots  # 2e2
    assert (1, 2, 1) in R.roots  # e1+e2
    assert (2, 0, 0) not in R.roots


def test_roots_sorted_by_height():
    for t, n in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        R = rs(t, n)
        hts = [sum(g) for g in R.roots]
        assert hts == sorted(hts)


def test_all_same_sign():
    for t, n in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        for g in rs(t, n).roots:
            assert all(c >= 0 for c in g) and any(c > 0 for c in g)


def test_pairing_examples():
    R = rs("A", 2)
    assert R.pairing((1, 1), (1, 0)) == 1
    assert R.pairing((1, 1), (1, 1)) == 2
    assert R.pairing((0, 0), (1, 1)) == 0
    # negative root
    assert R.pairing((1, 1), (-1, -1)) == -2


def test_pairing_b2_coroots():
    R = rs("B", 2)
    # e1 = a1+a2 is short: coroot weights (2, 1); e1+e2 = a1+2a2 long: (1, 1)
    assert R.coroot_weights[(1, 1)] == (2, 1)
    assert R.coroot_weights[(1, 2)] == (1, 1)


def test_pairing_c3_long_root():
    R = rs("C", 3)
    assert R.coroot_weights[(2, 2, 1)] == (1, 1, 1)


def test_alcove():
    R = rs("A", 2)
    assert in_first_dominant_alcove(R, (0, 0), 5)
    assert not in_first_dominant_alcove(R, (4, 0), 5)
    assert in_first_dominant_alcove(R, (-1, -1), 5)  # all pairings 0


def test_p_regular():
    R = rs("A", 2)
    assert is_p_regular(R, (0, 0), 5)
    assert not is_p_regular(R, (-1, -1), 5)
    assert not is_p_regular(R, (1, 2), 5)  # pairing with a1+a2 is 5


def test_dot_action_identity_and_s1():
    R = rs("A", 2)
    assert R.dot_action([], (3, 1)) == (3, 1)
    assert R.dot_action([1], (0, 0)) == (-2, 1)


def test_dot_action_sigma_orbit_a2():
    # sigma = s1 s2 applied to lam0 with lam0+rho = (1,2)
    R = rs("A", 2)
    lam0 = (0, 1)
    lam1 = R.dot_action([1, 2], lam0)
    lam2 = R.dot_action([1, 2], lam1)
    lam3 = R.dot_action([1, 2], lam2)
    assert tuple(x + 1 for x in lam1) == (-3, 1)
    assert tuple(x + 1 for x in lam2) == (2, -3)
    assert tuple(x + 1 for x in lam3) == (1, 2)


def test_dot_action_sigma_a3():
    R = rs("A", 3)
    lam0 = (0, 1, 2)
    lam1 = R.dot_action([1, 2, 3], lam0)
    assert tuple(x + 1 for x in lam1) == (-6, 1, 2)


def test_dot_action_affine():
    # s_{alpha,1} at p=5 on lam+rho=(1,2) over alpha=a1+a2: pairing 3,
    # shift (3-5)*(1,1) in fundamental coords of a1+a2
    R = rs("A", 2)
    lam = (0, 1)
    out = affine_dot_action(R, [((1, 1), 1)], lam, 5)
    mu = tuple(x + 1 for x in out)
    assert R.pairing(mu, (1, 1)) == 2 * 5 - 3


def test_dot_action_inverse_property():
    random.seed(3)
    for t, n in (("A", 3), ("B", 2), ("C", 3), ("D", 4)):
        R = rs(t, n)
        for _ in range(25):
            word = [random.randrange(1, n + 1) for _ in range(random.randrange(9))]
            lam = tuple(random.randrange(-6, 7) for _ in range(n))
            back = R.dot_action(word, R.dot_action(list(reversed(word)), lam))
            assert back == lam


def test_decompose_weight():
    assert decompose_weight((0, 0), 5) == ((0, 0), (0, 0))
    assert decompose_weight((5, 0), 5) == ((0, 0), (1, 0))
    assert decompose_weight((7, 3), 5) == ((2, 3), (1, 0))
    assert decompose_weight((-4, 1), 5) == ((1, 1), (-1, 0))


def test_decompose_bijection():
    random.seed(17)
    for _ in range(1000):
        lam = tuple(random.randrange(-40, 41) for _ in range(3))
        p = random.choice((3, 5, 7))
        lam0, lam1 = decompose_weight(lam, p)
        assert all(0 <= c < p for c in lam0)
        assert tuple(a + p * b for a, b in zip(lam0, lam1)) == lam


def test_regular_alcove_weights_a2_p5():
    assert rs("A", 2).regular_alcove_weights(5) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]


def test_regular_alcove_weights_b2_p5():
    assert rs("B", 2).regular_alcove_weights(5) == [(0, 0), (0, 1)]


def test_regular_alcove_weights_empty_below_coxeter():
    # p smaller than the Coxeter number leaves no regular alcove weight
    assert rs("A", 3).regular_alcove_weights(3) == []
    assert rs("C", 3).regular_alcove_weights(3) == []
    assert rs("D", 4).regular_alcove_weights(3) == []


def test_evector():
    A = rs("A", 2)
    assert A.evector((1, 1)) == (1, 0, -1)
    B = rs("B", 2)
    assert B.evector((1, 1)) == (1, 0)     # e1
    assert B.evector((1, 2)) == (1, 1)     # e1+e2
    C = rs("C", 3)
    assert C.evector((2, 2, 1)) == (2, 0, 0)   # 2e1
    D = rs("D", 4)
    assert D.evector((0, 0, 0, 1)) == (0, 0, 1, 1)   # e3+e4
    assert D.evector((1, 1, 0, 1)) == (1, 0, 0, 1)   # e1+e4
    assert D.evector((1, 1, 1, 1)) == (1, 0, 1, 0)   # e1+e3


# Bourbaki plates I-IV in the module docstring's numbering:
# alpha_n short in B_n, long in C_n, and D_n forking at alpha_(n-2)
CARTAN = {
    ("A", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    ("B", 2): ((2, -2), (-1, 2)),
    ("B", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    ("C", 2): ((2, -1), (-2, 2)),
    ("C", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    ("D", 5): (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, -1),
        (0, 0, -1, 2, 0),
        (0, 0, -1, 0, 2),
    ),
}


@pytest.mark.parametrize("typ, n", sorted(CARTAN))
def test_cartan_matrix_literal(typ, n):
    assert rs(typ, n).cartan == CARTAN[typ, n]


@pytest.mark.parametrize(
    "typ, n", [(t, n) for t, lo in RANK_MIN.items() for n in range(lo, 9)]
)
def test_derived_root_data_identities(typ, n):
    R = rs(typ, n)
    # <alpha, alpha^vee> = 2 for every positive root
    assert all(R.pairing(R.fund(g), g) == 2 for g in R.roots)
    # the simple root lengths symmetrize the Cartan matrix:
    # cartan[i][j] * (alpha_j, alpha_j)/2 = (alpha_i, alpha_j)
    d = [R.droot[R.simple(i)] for i in range(1, n + 1)]
    for i in range(n):
        for j in range(n):
            assert R.cartan[i][j] * d[j] == R.cartan[j][i] * d[i]
    assert R.droot[R.simple(1)] == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_short_root_counts(n):
    # B_n: the n roots e_i are short; C_n: the n(n-1) roots e_i +- e_j
    for typ, short in (("B", n), ("C", n * (n - 1))):
        R = rs(typ, n)
        top = max(R.droot.values())
        assert sum(1 for g in R.roots if R.droot[g] < top) == short


def test_levi_datum():
    R = rs("A", 2)
    L = LeviDatum(R, [1])
    assert L.J == (2,)
    assert L.levi_roots == ((0, 1),)
    assert set(L.u_roots) == {(1, 0), (1, 1)}
    L0 = LeviDatum(R, [])
    assert L0.u_roots == ()
    Lpi = LeviDatum(R, [1, 2])
    assert Lpi.levi_roots == ()


def test_shape_check():
    assert shape_check(rs("A", 4), [1, 2])
    assert shape_check(rs("A", 4), [3, 4])
    assert not shape_check(rs("A", 4), [2, 3])
    assert shape_check(rs("B", 3), [2, 3])
    assert not shape_check(rs("B", 3), [1, 2])
    assert shape_check(rs("C", 3), [1])
    assert not shape_check(rs("C", 3), [3])
    assert shape_check(rs("D", 4), [2, 3, 4])
    assert shape_check(rs("D", 4), [1, 2, 3])
    assert not shape_check(rs("D", 4), [3, 4])
    assert not shape_check(rs("D", 4), [4])
    assert shape_check(rs("A", 2), [1, 2])  # full set always passes
    assert not shape_check(rs("A", 2), [])


def test_root_label():
    assert root_label((1, 0)) == "a1"
    assert root_label((1, 2)) == "a1+2a2"
    assert root_label((1, 1, 1)) == "a1+a2+a3"


# every admissible I short of the full set, written out by hand; any
# other nonempty proper I has no shape
SHAPES = {
    ("A", 1): {},
    ("A", 2): {(1,): "prefix", (2,): "suffix"},
    ("A", 3): {(1,): "prefix", (1, 2): "prefix", (3,): "suffix", (2, 3): "suffix"},
    ("A", 4): {
        (1,): "prefix", (1, 2): "prefix", (1, 2, 3): "prefix",
        (4,): "suffix", (3, 4): "suffix", (2, 3, 4): "suffix",
    },
    ("A", 5): {
        (1,): "prefix", (1, 2): "prefix", (1, 2, 3): "prefix", (1, 2, 3, 4): "prefix",
        (5,): "suffix", (4, 5): "suffix", (3, 4, 5): "suffix", (2, 3, 4, 5): "suffix",
    },
    ("B", 2): {(2,): "suffix"},
    ("B", 3): {(3,): "suffix", (2, 3): "suffix"},
    ("B", 4): {(4,): "suffix", (3, 4): "suffix", (2, 3, 4): "suffix"},
    ("B", 5): {(5,): "suffix", (4, 5): "suffix", (3, 4, 5): "suffix", (2, 3, 4, 5): "suffix"},
    ("C", 2): {(1,): "prefix"},
    ("C", 3): {(1,): "prefix", (1, 2): "prefix"},
    ("C", 4): {(1,): "prefix", (1, 2): "prefix", (1, 2, 3): "prefix"},
    ("C", 5): {(1,): "prefix", (1, 2): "prefix", (1, 2, 3): "prefix", (1, 2, 3, 4): "prefix"},
    ("D", 4): {(2, 3, 4): "suffix", (1, 2, 3): "chain"},
    ("D", 5): {(3, 4, 5): "suffix", (2, 3, 4, 5): "suffix", (1, 2, 3, 4): "chain"},
}


@pytest.mark.parametrize("typ, n", sorted(SHAPES))
def test_shape_of_every_subset(typ, n):
    R = rs(typ, n)
    for k in range(1, n + 1):
        for I in itertools.combinations(range(1, n + 1), k):
            want = "full" if k == n else SHAPES[typ, n].get(I)
            assert shape_check(R, I) == want, I
            # order and duplicates do not matter
            assert shape_check(R, tuple(reversed(I)) + I[:1]) == want, I
