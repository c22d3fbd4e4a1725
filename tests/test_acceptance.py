"""End-to-end acceptance criteria, one test per criterion.

Every check here is exact: integer dimensions, exact verdicts, frozen
orbit data.  The conftest hook prints one ACCEPTANCE line per slug at
the end of the run.
"""

import itertools

from _oracles import (
    cyclic_verdict,
    norton_verdict,
    sl2_matrices,
    span_closure_depth_first,
)
from conftest import record

from babyverma.campaigns import (
    negative_controls,
    subregular_block_a,
    subregular_block_b,
    verify_main_theorem,
)
from babyverma.chevalley import ChevalleyAlgebra, PChar, make_pchar
from babyverma.fplin import span_closure
from babyverma.modules import (
    _kernel_lines,
    build_baby_verma,
    build_parabolic_baby_verma,
    generates,
    is_irreducible,
    radical,
    verify_commutators,
    verify_frobenius,
)
from babyverma.pbw import fix_order
from babyverma.roots import LeviDatum, RootSystem

ALGS = {}


def _alg(typ, rank, flip=False):
    key = (typ, rank, flip)
    if key not in ALGS:
        ALGS[key] = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
    return ALGS[key]


def test_main_theorem_type_a():
    rep = verify_main_theorem("A", 2, 5, (1,))
    dims = {r["lambda"]: r["dim"] for r in rep["rows"]}
    ok = (
        rep["passed"]
        and not rep["vacuous"]
        and rep["counts"] == {"irreducible": 6, "reducible": 0, "skipped": 0}
        and dims
        == {"0,0": 25, "0,1": 50, "0,2": 75, "1,0": 25, "1,1": 50, "2,0": 25}
    )
    vac = verify_main_theorem("A", 3, 3, (1, 2))
    ok = ok and vac["passed"] and vac["vacuous"] and vac["total"] == 0
    record("main-theorem-typeA", ok)


def test_main_theorem_types_bcd():
    rep = verify_main_theorem("B", 2, 5, (2,))
    rows = {r["lambda"]: (r["dim"], r["verdict"]) for r in rep["rows"]}
    ok = rep["passed"] and rows == {
        "0,0": (125, "irreducible"),
        "0,1": (125, "irreducible"),
    }
    for typ, rank, I in (("C", 3, (1,)), ("D", 4, (2, 3, 4))):
        vac = verify_main_theorem(typ, rank, 3, I)
        ok = ok and vac["passed"] and vac["vacuous"]
    record("main-theorem-BCD", ok)


def test_regular_nilpotent_transversal():
    # support on every simple root: over a full transversal of the
    # weights mod p, every module is irreducible of the full dimension
    # p^N, whenever the invariant trace form is non-degenerate
    ok = True
    for typ, rank, p in (
        ("A", 2, 5), ("B", 2, 3), ("C", 2, 3), ("B", 2, 5), ("C", 2, 5), ("A", 3, 3)
    ):
        alg = _alg(typ, rank)
        chi = make_pchar(alg, p, tuple(range(1, rank + 1)))
        full = p ** len(alg.rs.roots)
        for lam in itertools.product(range(p), repeat=rank):
            mod = build_parabolic_baby_verma(alg, chi, lam)
            ok = ok and mod.dim == full and is_irreducible(mod).irreducible
    # boundary: for A_2 at p = 3 the form degenerates (p divides
    # rank+1) and the claim genuinely fails at exactly two weights,
    # confirmed by the independent randomized oracle
    alg = _alg("A", 2)
    chi = make_pchar(alg, 3, (1, 2))
    reducible = []
    for lam in itertools.product(range(3), repeat=2):
        mod = build_parabolic_baby_verma(alg, chi, lam)
        if not is_irreducible(mod).irreducible:
            reducible.append(lam)
            ok = ok and norton_verdict(mod.xy_ops(), mod.dim, 3, seed=11) is False
    ok = ok and reducible == [(0, 0), (1, 1)]
    record("regular-nilpotent-transversal", ok)


def test_subregular_block_type_a():
    rep = subregular_block_a(5, (1, 2))
    rows = rep["rows"]
    ok = (
        rep["passed"]
        and rep["sum_ok"]
        and [r["lambda_plus_rho"] for r in rows] == [[1, 2], [-3, 1], [2, -3]]
        and [r["dim"] for r in rows] == [50, 25, 50]
        and all(r["verdict"] == "irreducible" for r in rows)
        and rep["dim_sum"] == 125
    )
    record("subregular-A", ok)


def test_subregular_block_type_b():
    rep = subregular_block_b(5, (1, 2))
    built = [r for r in rep["rows"] if not r.get("skipped")]
    skipped = [r for r in rep["rows"] if r.get("skipped")]
    ok = (
        rep["passed"]
        and [r["i"] for r in built] == [1, 3]
        and [r["dim"] for r in built] == [125, 125]
        and [r["first_component"] for r in built] == [1, 1]
        and all(r["verdict"] == "irreducible" for r in built)
        and [r["i"] for r in skipped] == [2, 4]
    )
    record("subregular-B", ok)


def _zoo():
    zoo = []
    for p in (3, 5, 7):
        zoo.append(build_baby_verma(_alg("A", 1), PChar(p, []), (1,)))
        zoo.append(build_baby_verma(_alg("A", 1), PChar(p, [1]), (2,)))
    zoo.append(
        build_parabolic_baby_verma(_alg("A", 2), make_pchar(_alg("A", 2), 5, (1,)), (0, 1))
    )
    zoo.append(
        build_parabolic_baby_verma(_alg("A", 2), make_pchar(_alg("A", 2), 3, (1, 2)), (1, 1))
    )
    zoo.append(
        build_parabolic_baby_verma(
            _alg("A", 3), make_pchar(_alg("A", 3), 3, (1, 2)), (0, 0, 0)
        )
    )
    zoo.append(
        build_parabolic_baby_verma(_alg("B", 2), make_pchar(_alg("B", 2), 5, (2,)), (0, 1))
    )
    zoo.append(
        build_parabolic_baby_verma(
            _alg("C", 3), make_pchar(_alg("C", 3), 3, (1,)), (0, 0, 0)
        )
    )
    # 729-dimensional: above the exhaustive limit, checked on sampled triples
    zoo.append(
        build_parabolic_baby_verma(
            _alg("D", 4), make_pchar(_alg("D", 4), 3, (1,)), (0, 0, 0, 0)
        )
    )
    return zoo


def test_representation_correctness_zoo():
    zoo = _zoo()
    dims = [m.dim for m in zoo]
    ok = dims[-3:] == [125, 243, 729] and dims[-4] == 243
    for mod in zoo:
        ok = ok and verify_commutators(mod) and verify_frobenius(mod)
    record("rep-correctness", ok)


def test_graded_closure_matches_flat_on_zoo():
    """Differential check of the graded, early-exit closure used by
    generates against the flat span_closure, the reference."""
    reducible = 0
    for mod in _zoo():
        ops, p = mod.xy_ops(), mod.p
        # the early exit rests on every module being cyclic on high
        assert span_closure([{mod.high: 1}], ops, p, dim=mod.dim).rank() == mod.dim
        _, lines = _kernel_lines(mod, 10000)
        bad = []
        for _, v in lines:
            flat = span_closure([v], ops, p, dim=mod.dim).rank() == mod.dim
            assert generates(mod, v) == flat
            if not flat:
                bad.append(v)
        if bad:
            reducible += 1
            graded = span_closure(bad, ops, p, grade=mod.grades())
            assert graded.rows == span_closure(bad, ops, p).rows
    assert reducible == 4


def test_generates_verdicts_match_depth_first_on_zoo():
    """generates, through the first-in, first-out span_closure, against
    the same stopped closure popped last in, first out, on every kernel
    line of the zoo; a line that does not generate is closed to the end
    in both orders, with equal rows."""
    reducible = 0  # non-generating lines
    for mod in _zoo():
        ops, p, grade = mod.xy_ops(), mod.p, mod.grades()
        _, lines = _kernel_lines(mod, 10000)
        for _, v in lines:
            slow = span_closure_depth_first(
                [v], ops, p, dim=mod.dim, grade=grade, stop=mod.high
            )
            verdict = generates(mod, v)
            assert verdict == slow.contains({mod.high: 1})
            if not verdict:
                reducible += 1
                fast = span_closure([v], ops, p, dim=mod.dim, grade=grade)
                assert fast.rows == slow.rows
    assert reducible == 11


def test_oracle_equivalence():
    ok = True
    g = _alg("A", 1).rs.simple(1)
    for p in (3, 5, 7):
        for chival in (0, 1):
            chi = PChar(p, [1], {1: chival}) if chival else PChar(p, [])
            for lam in range(p):
                mod = build_baby_verma(_alg("A", 1), chi, (lam,))
                ref = sl2_matrices(p, lam, chival)
                ok = (
                    ok
                    and mod.op_matrix(("x", g)) == ref["x"]
                    and mod.op_matrix(("y", g)) == ref["y"]
                    and mod.op_matrix(("h", 1)) == ref["h"]
                )
                verdict = norton_verdict(mod.xy_ops(), mod.dim, p, seed=11)
                ok = ok and verdict == is_irreducible(mod).irreducible
                if chival == 0:
                    # closed form: the radical of the restricted rank-one
                    # module of highest weight r has dimension p - 1 - r
                    ok = ok and radical(mod).rank() == p - 1 - lam
    for lam, chi in (
        ((0, 0), PChar(3, [])),
        ((2, 2), PChar(3, [])),
        ((0, 0), PChar(3, [1, 2])),
    ):
        mod = build_baby_verma(_alg("A", 2), chi, lam)
        verdict = norton_verdict(mod.xy_ops(), mod.dim, mod.p, seed=11)
        ok = ok and verdict == is_irreducible(mod).irreducible
        if not chi.I:
            # second, fully deterministic oracle: enumerate every line in
            # every joint h-eigenspace and test whether it generates
            diags = [mod.op_matrix(("h", i)) for i in (1, 2)]
            slow = cyclic_verdict(mod.xy_ops(), diags, mod.dim, mod.p)
            ok = ok and slow == is_irreducible(mod).irreducible
    ok = ok and negative_controls()["passed"]
    record("oracle-equivalence", ok)


def test_stability_under_construction_choices():
    def sweep(alg, p, I, values=None, order=None):
        out = {}
        chi = make_pchar(alg, p, I, values)
        for lam in alg.rs.regular_alcove_weights(p):
            mod = build_parabolic_baby_verma(alg, chi, lam, order=order)
            rep = is_irreducible(mod)
            out[lam] = (mod.dim, rep.irreducible, tuple(sorted(rep.profile.items())))
        return out

    ok = True
    for typ, rank, p, I in (("A", 2, 5, (1,)), ("B", 2, 5, (2,))):
        rs = RootSystem(typ, rank)
        fallback = tuple(
            sorted(LeviDatum(rs, I).u_roots, key=lambda g: (sum(g), g))
        )
        ref = sweep(_alg(typ, rank), p, I)
        ok = ok and sweep(_alg(typ, rank, flip=True), p, I) == ref
        ok = ok and sweep(_alg(typ, rank), p, I, values={I[0]: 2}) == ref
        ok = ok and sweep(_alg(typ, rank), p, I, order=fallback) == ref
    record("stability", ok)
