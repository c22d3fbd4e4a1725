"""Property tests over random small induced modules: the exact verdict
against Norton's randomized criterion, and the representation checks.

The parabolic modules are induced from Levi heads of dimension one and
more, so both kinds of base module run through the straightening."""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from _oracles import norton_verdict
from babyverma.chevalley import ChevalleyAlgebra, PChar, make_pchar
from babyverma.modules import (
    build_baby_verma,
    build_levi_simple,
    build_parabolic_baby_verma,
    is_irreducible,
    verify_commutators,
    verify_frobenius,
)
from babyverma.pbw import fix_order
from babyverma.roots import RootSystem

MAX_DIM = 60
PRIMES = (3, 5, 7)
ALGS = {
    (typ, rank): ChevalleyAlgebra(RootSystem(typ, rank))
    for typ, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)]
}

# (typ, rank, p, I) whose u_J^- part alone fits in MAX_DIM; I = () is
# the Borel module at chi = 0
SHAPES = []
for (typ, rank), alg in ALGS.items():
    for p in PRIMES:
        if p ** len(alg.rs.roots) <= MAX_DIM:
            SHAPES.append((typ, rank, p, ()))
        for k in range(1, rank + 1):
            for I in itertools.combinations(range(1, rank + 1), k):
                if p ** len(fix_order(alg.rs, I)) <= MAX_DIM:
                    SHAPES.append((typ, rank, p, I))


@st.composite
def small_modules(draw):
    typ, rank, p, I = draw(st.sampled_from(SHAPES))
    values = {i: draw(st.integers(1, p - 1)) for i in I}
    lam = tuple(draw(st.integers(0, p - 1)) for _ in range(rank))
    return typ, rank, p, I, values, lam


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_modules())
@example(("A", 2, 5, (1,), {1: 2}, (0, 1)))
@example(("B", 2, 3, (2,), {2: 1}, (1, 0)))
@example(("A", 2, 3, (), {}, (1, 0)))
def test_verdict_matches_norton_and_checks_pass(case):
    typ, rank, p, I, values, lam = case
    alg = ALGS[typ, rank]
    if I:
        chi = make_pchar(alg, p, I, values)
        levi = build_levi_simple(alg, p, I, lam)
        assume(p ** len(fix_order(alg.rs, I)) * levi.dim <= MAX_DIM)
        mod = build_parabolic_baby_verma(alg, chi, lam, cap=MAX_DIM, levi=levi)
    else:
        mod = build_baby_verma(alg, PChar(p, ()), lam, cap=MAX_DIM)
    want = norton_verdict(mod.xy_ops(), mod.dim, p, seed=5)
    if want is not None:
        assert is_irreducible(mod).irreducible == want
    assert verify_commutators(mod)
    assert verify_frobenius(mod)
