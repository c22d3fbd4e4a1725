"""Monomial orders and the straightening engine."""

import itertools
import random

import pytest

from _oracles import (
    TupleStraightener,
    drop_int,
    index_of,
    leftmul,
    vector_at,
    weight_int,
)
from babyverma.chevalley import ChevalleyAlgebra, PChar, make_pchar
from babyverma.modules import (
    InducedModule,
    TrivialLevi,
    build_baby_verma,
    build_parabolic_baby_verma,
)
from babyverma.pbw import fix_order
from babyverma.roots import LeviDatum, RootSystem


def _alg(typ, rank):
    return ChevalleyAlgebra(RootSystem(typ, rank))


def _base(alg):
    return TrivialLevi((0,) * alg.rs.n)


GOLDEN_ORDERS = [
    ("A", 2, (1,), [(1, 0), (1, 1)]),
    ("A", 3, (1, 2), [(1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1), (0, 1, 1)]),
    ("A", 3, (2, 3), [(0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 1), (1, 1, 0)]),
    ("B", 2, (2,), [(0, 1), (1, 1), (1, 2)]),
    (
        "B",
        3,
        (2, 3),
        [
            (0, 0, 1),
            (0, 1, 1),
            (0, 1, 2),
            (0, 1, 0),
            (1, 1, 0),
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 2),
        ],
    ),
    (
        "C",
        3,
        (1,),
        [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 1), (2, 2, 1)],
    ),
    (
        "D",
        4,
        (2, 3, 4),
        [
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 1, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (0, 1, 0, 0),
            (1, 1, 0, 0),
            (1, 1, 0, 1),
            (1, 1, 1, 0),
            (1, 1, 1, 1),
            (1, 2, 1, 1),
        ],
    ),
    (
        "D",
        4,
        (1, 2, 3),
        [
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 1, 0, 0),
            (0, 1, 1, 0),
            (1, 1, 1, 0),
            (0, 0, 1, 0),
            (0, 1, 0, 1),
            (0, 1, 1, 1),
            (1, 1, 0, 1),
            (1, 1, 1, 1),
            (1, 2, 1, 1),
        ],
    ),
]


@pytest.mark.parametrize("typ,rank,I,expected", GOLDEN_ORDERS)
def test_fixed_orders(typ, rank, I, expected):
    rs = RootSystem(typ, rank)
    assert list(fix_order(rs, I)) == expected


def test_order_empty_support_has_no_slots():
    rs = RootSystem("A", 2)
    assert fix_order(rs, ()) == ()


def test_order_full_support_falls_back_to_height():
    rs = RootSystem("A", 2)
    assert list(fix_order(rs, (1, 2))) == [(0, 1), (1, 0), (1, 1)]


ALL_SHAPES = []
for typ, rank in [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                  ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5)]:
    rs = RootSystem(typ, rank)
    for size in range(1, rank):
        for I in itertools.combinations(range(1, rank + 1), size):
            ALL_SHAPES.append((typ, rank, I))


@pytest.mark.parametrize("typ,rank,I", ALL_SHAPES)
def test_order_is_permutation_of_nilradical(typ, rank, I):
    rs = RootSystem(typ, rank)
    ld = LeviDatum(rs, I)
    order = fix_order(rs, I)
    assert sorted(order) == sorted(ld.u_roots)
    assert len(set(order)) == len(order)


def test_chival_default_and_custom():
    alg = _alg("B", 2)
    order = fix_order(alg.rs, (2,))
    st = InducedModule(alg, make_pchar(alg, 5, (2,)), order, _base(alg))
    assert st.chival == [1, 0, 0]
    st = InducedModule(alg, make_pchar(alg, 5, (2,), {2: 3}), order, _base(alg))
    assert st.chival == [3, 0, 0]


def test_leftmul_wraps_with_character_power():
    alg = _alg("A", 1)
    order = ((1,),)
    for p, cval, coeff in [(5, 1, 1), (5, 2, 2), (7, 3, 3)]:
        st = InducedModule(alg, PChar(p, [1], {1: cval}), order, _base(alg))
        out = leftmul(st, 0, (p - 1,))
        # y^p acts by the p-th power of the character value
        assert out == {(0,): pow(cval, p, p)}
        assert leftmul(st, 0, (0,)) == {(1,): 1}


def test_leftmul_straightens_out_of_order_product():
    # Borel case in rank 2: multiplying slot 1 onto a monomial that
    # starts at slot 0 costs a correction term at the sum root
    alg = _alg("A", 2)
    order = ((0, 1), (1, 0), (1, 1))
    st = InducedModule(alg, PChar(3, []), order, _base(alg))
    out = leftmul(st, 1, (1, 0, 0))
    assert out == {(1, 1, 0): 1, (0, 0, 1): 2}


@pytest.mark.parametrize(
    "typ,rank,I,p",
    [("A", 2, (1,), 3), ("B", 2, (2,), 5), ("C", 3, (1,), 3), ("A", 3, (1, 2), 3)],
)
def test_leftmul_respects_brackets(typ, rank, I, p):
    """y_k (y_j m) - y_j (y_k m) must equal [y_k, y_j] m."""
    alg = _alg(typ, rank)
    rs = alg.rs
    order = fix_order(rs, I)
    st = InducedModule(alg, make_pchar(alg, p, I), order, _base(alg))
    rng = random.Random(1)
    m = len(order)

    def smul(k, vec):
        out = {}
        for exps, c in vec.items():
            for e2, c2 in leftmul(st, k, exps).items():
                v = (out.get(e2, 0) + c * c2) % p
                if v:
                    out[e2] = v
                elif e2 in out:
                    del out[e2]
        return out

    for _ in range(25):
        exps = tuple(rng.randrange(p) for _ in range(m))
        k = rng.randrange(m)
        j = rng.randrange(m)
        base = {exps: 1}
        lhs = smul(k, smul(j, base))
        for e2, c in smul(j, smul(k, base)).items():
            v = (lhs.get(e2, 0) - c) % p
            if v:
                lhs[e2] = v
            elif e2 in lhs:
                del lhs[e2]
        # bracket of two negative root vectors
        comm = alg.bracket(("y", order[k]), ("y", order[j]))
        rhs = {}
        for gkey, c in comm.items():
            kind, data = gkey
            assert kind == "y", "negative roots close under brackets"
            out = smul(order.index(data), base)
            for e2, c2 in out.items():
                v = (rhs.get(e2, 0) + c * c2) % p
                if v:
                    rhs[e2] = v
                elif e2 in rhs:
                    del rhs[e2]
        assert lhs == rhs


# ---- integer tables against the tuple-keyed reference ----

# Borel and parabolic, types A-D, chi = 0 and chi != 0, trivial and
# non-trivial Levi heads
DIFF_ZOO = [
    (build_baby_verma, "A", 2, 3, (), (1, 0)),
    (build_baby_verma, "A", 2, 3, (1, 2), (0, 0)),
    (build_baby_verma, "B", 2, 3, (), (1, 0)),
    (build_parabolic_baby_verma, "B", 2, 5, (2,), (1, 1)),
    (build_parabolic_baby_verma, "C", 3, 3, (1,), (0, 1, 0)),
    (build_parabolic_baby_verma, "D", 4, 3, (1,), (0, 0, 0, 0)),
    (build_parabolic_baby_verma, "A", 3, 3, (1, 2), (1, 1, 1)),
]


@pytest.mark.parametrize("build,typ,rank,p,I,lam", DIFF_ZOO)
def test_integer_columns_match_tuple_oracle(build, typ, rank, p, I, lam):
    alg = _alg(typ, rank)
    mod = build(alg, make_pchar(alg, p, I), lam)
    ref = TupleStraightener(alg, mod.chi, mod.order, mod.levi)

    def want(key, b):
        exps, l = vector_at(mod, b)
        return {index_of(mod, e, l2): c for (e, l2), c in ref.act(key, exps, l).items()}

    keys = list(mod.alg.basis)
    random.Random(7).shuffle(keys)
    # cold: keys in shuffled order, each from the top index down
    for key in keys:
        for b in reversed(range(mod.dim)):
            assert mod.act_basis(key, b) == want(key, b), (key, b)
    # a fresh module through op_matrix, the path the engine takes
    fresh = build(alg, make_pchar(alg, p, I), lam)
    for key in mod.alg.basis:
        cols = {b: w for b in range(mod.dim) if (w := want(key, b))}
        assert fresh.op_matrix(key) == cols, key
    for b in range(mod.dim):
        exps, l = vector_at(mod, b)
        assert weight_int(mod, b) == ref.weight_int(exps, l)
        assert drop_int(mod, b) == ref.drop_int(exps, l)
    for k in range(mod.m):
        for exps in itertools.product(range(p), repeat=mod.m):
            assert leftmul(mod, k, exps) == ref.leftmul(k, exps), (k, exps)
