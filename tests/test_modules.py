"""Induced modules: construction, action correctness, irreducibility."""

import hashlib
import inspect
import itertools
import random
import sys

import pytest

from _oracles import (
    annihilator_of_top_by_columns,
    check_stable,
    classes_per_index,
    index_of,
    norton_verdict,
    radical_vectors_per_line,
    row_tables_by_recursion,
    simple_dim_low_alcoves,
    sl2_matrices,
    vector_at,
    weyl_dim,
)
from babyverma import modules
from babyverma.chevalley import ChevalleyAlgebra, PChar, make_pchar
from babyverma.fplin import addmul, span_closure
from babyverma.modules import (
    CapExceeded,
    HeadNotSimple,
    QuotientModule,
    TrivialLevi,
    build_baby_verma,
    build_levi_simple,
    build_parabolic_baby_verma,
    generates,
    head,
    is_irreducible,
    maximal_vectors,
    radical,
    verify_commutators,
    verify_frobenius,
)
from babyverma.pbw import fix_order
from babyverma.roots import LeviDatum, RootSystem

A1 = ChevalleyAlgebra(RootSystem("A", 1))
A2 = ChevalleyAlgebra(RootSystem("A", 2))
B2 = ChevalleyAlgebra(RootSystem("B", 2))


def _chi(alg, p, I, values=None):
    return make_pchar(alg, p, I, values)


# ---- rank one against the closed form ----


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("chival", [0, 1, 2])
def test_rank_one_matches_closed_form(p, chival):
    chi = PChar(p, [1], {1: chival}) if chival else PChar(p, [])
    g = A1.rs.simple(1)
    for lam in range(p):
        mod = build_baby_verma(A1, chi, (lam,))
        ref = sl2_matrices(p, lam, chival)
        assert mod.op_matrix(("x", g)) == ref["x"]
        assert mod.op_matrix(("y", g)) == ref["y"]
        assert mod.op_matrix(("h", 1)) == ref["h"]


def test_rank_one_restricted_verdicts():
    # the restricted module of highest weight r has a radical of
    # dimension p-r-1, zero exactly at the top weight
    p = 5
    for r in range(p):
        mod = build_baby_verma(A1, PChar(p, []), (r,))
        rep = is_irreducible(mod)
        assert rep.irreducible == (r == p - 1)
        rad = radical(mod)
        assert rad.rank() == p - r - 1
        hd = head(mod)
        assert hd.dim == r + 1
        assert is_irreducible(hd).irreducible


def test_rank_one_nonzero_character_all_irreducible():
    for p in (3, 5, 7):
        for c in range(1, p):
            chi = PChar(p, [1], {1: c})
            for lam in range(p):
                mod = build_baby_verma(A1, chi, (lam,))
                assert is_irreducible(mod).irreducible


def test_rank_one_head_eigenvalues():
    # head of the restricted module at weight 1, p = 5: the torus
    # generator acts with eigenvalues 1 and -1
    mod = build_baby_verma(A1, PChar(5, []), (1,))
    hd = head(mod)
    assert hd.dim == 2
    eigs = sorted(hd.weight_int(b)[0] % 5 for b in range(hd.dim))
    assert eigs == [1, 4]


# ---- construction contracts ----


def test_basis_enumeration_contract():
    chi = _chi(A2, 5, (1,))
    mod = build_parabolic_baby_verma(A2, chi, (0, 1))
    assert mod.levi.dim == 2
    assert vector_at(mod, 0) == ((0, 0), 0)
    assert vector_at(mod, 1) == ((0, 0), 1)
    assert vector_at(mod, 2) == ((0, 1), 0)
    assert index_of(mod, (0, 0), 1) == 1
    assert mod.dim == 5 ** 2 * 2


def test_dimension_law():
    cases = [
        ("A", 2, (1,), 5, (0, 2)),
        ("B", 2, (2,), 5, (0, 1)),
        ("A", 3, (1, 2), 3, (0, 0, 1)),
    ]
    for typ, rank, I, p, lam in cases:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        chi = _chi(alg, p, I)
        mod = build_parabolic_baby_verma(alg, chi, lam)
        m = len(fix_order(alg.rs, I))
        assert mod.dim == p ** m * mod.levi.dim


def test_trivial_levi_fast_path():
    levi = build_levi_simple(A2, 5, (1,), (3, 0))
    assert isinstance(levi, TrivialLevi)
    assert levi.dim == 1
    levi = build_levi_simple(A2, 5, (1,), (3, 5))
    assert isinstance(levi, TrivialLevi)


def test_levi_head_weights_frozen():
    # I = {1} leaves an A1 Levi on the second node; at weight 1 its
    # head is two dimensional with weights lam and lam - alpha_2
    levi = build_levi_simple(A2, 5, (1,), (0, 1))
    assert levi.dim == 2
    assert levi.high == 0
    assert [levi.weight_int(l) for l in range(2)] == [(0, 1), (1, -1)]
    assert [levi.drop_int(l) for l in range(2)] == [(0, 0), (0, 1)]


def test_act_on_highest_vector():
    g1 = A2.rs.simple(1)
    chi = _chi(A2, 5, (1,))
    # x_1 y_1 (top) = [x_1, y_1] top = <lam, h_1> top
    for lam, want in [((0, 0), {}), ((1, 0), {0: 1})]:
        mod = build_parabolic_baby_verma(A2, chi, lam)
        b = index_of(mod, (1, 0), mod.levi.high)
        assert mod.act_basis(("x", g1), b) == want


def test_character_wrap_on_top_slot():
    p = 5
    for c in (1, 2):
        chi = _chi(A2, p, (1,), {1: c})
        mod = build_parabolic_baby_verma(A2, chi, (0, 0))
        g1 = A2.rs.simple(1)
        b = index_of(mod, (p - 1, 0), 0)
        assert mod.act_basis(("y", g1), b) == {index_of(mod, (0, 0), 0): c}


def test_action_respects_grading():
    # x_i raises the integral weight by alpha_i and lowers the drop
    # vector by alpha_i; y_i does the reverse; h_i is diagonal
    p = 3
    chi = _chi(A2, p, (1,))
    mod = build_parabolic_baby_verma(A2, chi, (0, 1))
    rs = A2.rs
    for i in (1, 2):
        g = rs.simple(i)
        for kind, sign in (("x", 1), ("y", -1)):
            op = mod.op_matrix((kind, g))
            for b, col in op.items():
                wb = mod.weight_int(b)
                db = mod.drop_int(b)
                for b2 in col:
                    w2 = mod.weight_int(b2)
                    d2 = mod.drop_int(b2)
                    assert all(
                        (w2[t] - wb[t] - sign * rs.fund(g)[t]) % p == 0
                        for t in range(rs.n)
                    )
                    assert all(
                        (d2[t] - db[t] + sign * g[t]) % p == 0 for t in range(rs.n)
                    )
        hop = mod.op_matrix(("h", i))
        assert all(set(col) == {b} for b, col in hop.items())


# ---- the Borel induction surjects onto the parabolic one ----


def _levi_lower(levi, order, exps, p):
    vec = {levi.high: 1}
    for k in range(len(order) - 1, -1, -1):
        for _ in range(exps[k]):
            out = {}
            for l, c in vec.items():
                for l2, c2 in levi.act_basis(("y", order[k]), l).items():
                    v = (out.get(l2, 0) + c * c2) % p
                    if v:
                        out[l2] = v
                    elif l2 in out:
                        del out[l2]
            vec = out
    return vec


@pytest.mark.parametrize("lam", [(0, 0), (0, 1), (1, 2)])
def test_borel_induction_surjects_onto_parabolic(lam):
    p = 3
    I = (1,)
    rs = A2.rs
    ld = LeviDatum(rs, I)
    uorder = fix_order(rs, I)
    full_order = uorder + ld.levi_roots
    chi = _chi(A2, p, I)
    big = build_baby_verma(A2, chi, lam, order=full_order)
    small = build_parabolic_baby_verma(A2, chi, lam)
    levi = small.levi
    mu = len(uorder)

    # phi(y^a y^b (x) top) = y^a (x) (y^b . top), linear over the base
    themap = []
    for b in range(big.dim):
        exps, _ = vector_at(big, b)
        down = _levi_lower(levi, ld.levi_roots, exps[mu:], p)
        themap.append(
            {index_of(small, exps[:mu], l): c for l, c in down.items()}
        )

    def push(vec):
        out = {}
        for b, c in vec.items():
            addmul(out, themap[b], c, p)
        return out

    keys = [("h", 1), ("h", 2)]
    for g in rs.roots:
        keys.append(("x", g))
        keys.append(("y", g))
    for key in keys:
        for b in range(big.dim):
            lhs = push(big.act_basis(key, b))
            rhs = {}
            for l, c in themap[b].items():
                addmul(rhs, small.act_basis(key, l), c, p)
            assert lhs == rhs, (key, b)

    # surjectivity: the images span the whole parabolic module
    from babyverma.fplin import Echelon

    ech = Echelon(p)
    for vec in themap:
        ech.insert(dict(vec))
    assert ech.rank() == small.dim


# ---- irreducibility machinery ----


def test_frozen_rank_two_sweep():
    chi = _chi(A2, 5, (1,))
    dims = {}
    for lam in A2.rs.regular_alcove_weights(5):
        mod = build_parabolic_baby_verma(A2, chi, lam)
        rep = is_irreducible(mod)
        assert rep.irreducible
        assert len(rep.profile) == 2
        dims[lam] = mod.dim
    assert dims == {
        (0, 0): 25,
        (0, 1): 50,
        (0, 2): 75,
        (1, 0): 25,
        (1, 1): 50,
        (2, 0): 25,
    }


def test_maximal_vectors_contain_top():
    chi = _chi(A2, 5, (1,))
    mod = build_parabolic_baby_verma(A2, chi, (0, 1))
    mv = maximal_vectors(mod)
    wt = tuple(x % 5 for x in mod.lam)
    kap = (0, 0)
    assert (wt, kap) in mv
    tops = mv[(wt, kap)]
    assert any(set(v) == {mod.high} for v in tops)


def test_head_is_simple_and_radical_is_stable():
    mod = build_baby_verma(A2, PChar(3, []), (1, 0))
    rad = radical(mod)
    assert 0 < rad.rank() < mod.dim
    check_stable(mod, rad)
    q = QuotientModule(mod, rad)
    assert is_irreducible(q).irreducible
    assert radical(q).rank() == 0


def test_restricted_rank_two_controls():
    assert not is_irreducible(build_baby_verma(A2, PChar(3, []), (0, 0))).irreducible
    assert is_irreducible(build_baby_verma(A2, PChar(3, []), (2, 2))).irreducible


def test_generates_detects_proper_submodule():
    mod = build_baby_verma(A1, PChar(5, []), (2,))
    # the singular vector y^{lam+1} (x) top generates a proper piece
    assert not generates(mod, {3: 1})
    assert generates(mod, {0: 1})


def _profile(*rows):
    return [{"weight": list(w), "component": list(k), "count": c} for w, k, c in rows]


_B2_RADICAL_PIVOTS = (
    [1, 3, 5, 7, 9] + list(range(10, 50)) + [53, 55, 57, 59, 60] + list(range(62, 70))
    + [73, 75, 77, 78, 79, 83, 85, 87, 88, 89, 91, 93, 95, 97, 98, 99]
    + [103, 105, 107, 109, 110] + list(range(112, 120))
    + [123, 125, 127, 128, 129, 133, 135, 137, 138, 139, 148, 149]
    + [153, 155, 157, 159, 160] + list(range(162, 170))
    + [173, 175, 177, 178, 179, 183, 185, 187, 188, 189, 198, 199, 249]
)

# (module, to_dict(), witness_key, radical pivots), frozen from the
# line-by-line search: which line is found first, and how many are
# tested before it, are part of the report.
REPORT_GOLDEN = [
    (
        lambda: build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1)),
        {
            "irreducible": False, "dim": 250, "p": 5, "lambda": [1, 1],
            "profile": _profile(
                ((0, 1), (1, 1), 1), ((1, 1), (0, 0), 1),
                ((2, 2), (1, 3), 1), ((3, 2), (0, 2), 1),
            ),
            "witness": {"10": 1, "51": 1},
            "lines_checked": 1,
        },
        (0, 1),
        _B2_RADICAL_PIVOTS,
    ),
    (
        lambda: build_baby_verma(A2, PChar(3, []), (0, 0)),
        {
            "irreducible": False, "dim": 27, "p": 3, "lambda": [0, 0],
            "profile": _profile(
                ((0, 0), (0, 0), 1), ((0, 0), (1, 2), 1), ((0, 0), (2, 1), 1),
                ((1, 1), (0, 1), 1), ((1, 1), (1, 0), 1), ((1, 1), (2, 2), 1),
            ),
            "witness": {"15": 1, "4": 1},
            "lines_checked": 10,
        },
        (0, 0),
        list(range(1, 27)),
    ),
    (
        lambda: build_baby_verma(A2, PChar(3, []), (1, 0)),
        {
            "irreducible": False, "dim": 27, "p": 3, "lambda": [1, 0],
            "profile": _profile(
                ((0, 2), (2, 0), 1), ((1, 0), (0, 0), 2), ((2, 1), (0, 1), 1),
            ),
            "witness": {"6": 1},
            "lines_checked": 1,
        },
        (0, 2),
        [1, 2] + list(range(4, 12)) + list(range(13, 27)),
    ),
    (
        lambda: build_baby_verma(A1, PChar(5, []), (1,)),
        {
            "irreducible": False, "dim": 5, "p": 5, "lambda": [1],
            "profile": _profile(((1,), (0,), 1), ((2,), (2,), 1)),
            "witness": {"2": 1},
            "lines_checked": 2,
        },
        (2,),
        [2, 3, 4],
    ),
    (
        lambda: build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1)),
        {
            "irreducible": True, "dim": 50, "p": 5, "lambda": [0, 1],
            "profile": _profile(((0, 1), (0, 0), 1), ((3, 2), (1, 0), 1)),
            "witness": None,
            "lines_checked": 2,
        },
        None,
        [],
    ),
]


@pytest.mark.parametrize("case", range(len(REPORT_GOLDEN)))
def test_report_and_radical_golden(case):
    build, report, witness_key, pivots = REPORT_GOLDEN[case]
    mod = build()
    rep = is_irreducible(mod)
    assert rep.to_dict() == report
    assert rep.witness_key == witness_key
    assert radical(mod).pivots() == pivots


def test_cap_checked_before_levi_head(monkeypatch):
    # D4 p=7 I={1}: the u_J^- part alone has 7^6 = 117 649 > 50 000
    # basis vectors, and the Levi Verma module behind the head as many
    def no_head(*args):
        raise AssertionError("Levi head built before the cap check")

    monkeypatch.setattr(modules, "build_levi_simple", no_head)
    D4 = ChevalleyAlgebra(RootSystem("D", 4))
    with pytest.raises(CapExceeded, match="at least 117649"):
        build_parabolic_baby_verma(D4, _chi(D4, 7, (1,)), (0, 1, 0, 0))
    with pytest.raises(CapExceeded):
        build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1), cap=24)


def test_cap_exceeded_paths():
    with pytest.raises(CapExceeded):
        build_baby_verma(A2, PChar(3, []), (0, 0), cap=10)
    mod = build_baby_verma(A1, PChar(5, []), (0,))
    with pytest.raises(CapExceeded):
        is_irreducible(mod, cap=1)


def test_verify_commutators_and_frobenius():
    mods = [
        build_baby_verma(A1, PChar(5, [1]), (3,)),
        build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1)),
        build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (0, 1)),
        head(build_baby_verma(A2, PChar(3, []), (1, 0))),
    ]
    for mod in mods:
        assert verify_commutators(mod)
        assert verify_frobenius(mod)


@pytest.mark.parametrize("check", [verify_commutators, verify_frobenius])
def test_verify_checks_reject_a_wrong_column(check):
    # x_alpha fixing one basis vector breaks both the commutator and
    # the p-th power law; at dim 50 both checks are exhaustive
    mod = build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1))
    bad_key, bad_b = ("x", A2.rs.simple(1)), 7
    act = mod.act_basis

    def wrong(key, b):
        return {b: 1} if (key, b) == (bad_key, bad_b) else act(key, b)

    mod.act_basis = wrong
    with pytest.raises(AssertionError):
        check(mod)


def test_lambda_only_matters_mod_p():
    chi = _chi(A2, 3, (1,))
    a = build_parabolic_baby_verma(A2, chi, (0, 1))
    b = build_parabolic_baby_verma(A2, chi, (3, 7))
    assert a.dim == b.dim
    assert is_irreducible(a).irreducible == is_irreducible(b).irreducible


# ---- agreement with the randomized oracle ----


def test_norton_oracle_agreement():
    cases = []
    for p in (3, 5, 7):
        for lam in range(p):
            cases.append(build_baby_verma(A1, PChar(p, []), (lam,)))
            cases.append(build_baby_verma(A1, PChar(p, [1]), (lam,)))
    cases.append(build_baby_verma(A2, PChar(3, []), (0, 0)))
    cases.append(build_baby_verma(A2, PChar(3, []), (2, 2)))
    cases.append(build_baby_verma(A2, PChar(3, [1, 2]), (0, 0)))
    undecided = 0
    for mod in cases:
        want = is_irreducible(mod).irreducible
        got = norton_verdict(mod.xy_ops(), mod.dim, mod.p, seed=11)
        if got is None:
            undecided += 1
        else:
            assert got == want
    assert undecided == 0


def test_cold_straightening_is_not_recursion_bound():
    # a cold cache at the top exponent used to recurse once per unit
    mod = build_baby_verma(A1, PChar(997, []), (5,))
    assert mod.act_basis(("x", (1,)), 996) == {995: 990}


@pytest.mark.parametrize(
    "typ, rank, p, I, lam",
    [
        ("A", 3, 7, (1, 2), (1, 1, 1)),
        ("C", 3, 5, (1,), (0, 1, 0)),
        ("D", 4, 3, (1,), (0, 0, 0, 0)),
        ("B", 2, 13, (2,), (3, 5)),
    ],
)
def test_cold_top_index_calls_stay_shallow_on_multi_slot_modules(typ, rank, p, I, lam):
    # each key meets the module first at its top index, so its column
    # and those of its bracket keys fill from a cold start there
    alg = ChevalleyAlgebra(RootSystem(typ, rank))
    mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
    keys = list(alg.basis)
    random.Random(0).shuffle(keys)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 80)
    try:
        for key in keys:
            mod.act_basis(key, mod.dim - 1)
    finally:
        sys.setrecursionlimit(limit)


def test_u_minus_root_vectors_skip_the_column_tables(monkeypatch):
    # a u_J^- root vector acts by left multiplication on the y^a factor
    # alone, read from the slot table: act_basis makes no table for it,
    # and its op_matrix takes the generic loop, never the straightening
    mod = build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))
    assert mod.levi.dim > 1
    u_y = [("y", g) for g in mod.order]
    for key in u_y:
        for b in range(mod.dim):
            mod.act_basis(key, b)
    assert mod._cols == {}
    generic = []
    fill = modules.ModuleBase._fill
    monkeypatch.setattr(
        modules.ModuleBase, "_fill", lambda self, key: generic.append(key) or fill(self, key)
    )
    for key in mod.alg.basis:
        mod.op_matrix(key)
    assert set(mod._cols) == set(mod.alg.basis)
    assert sorted(generic) == sorted(u_y + [k for k in mod.alg.basis if k[0] == "h"])


BRACKET_ALGEBRAS = [
    ChevalleyAlgebra(RootSystem(typ, n))
    for typ, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (4, 5)))
    for n in ranks
]


@pytest.mark.parametrize("alg", BRACKET_ALGEBRAS, ids=lambda a: "%s%d" % (a.rs.typ, a.rs.n))
def test_bracket_keys_come_before_the_table_they_fill(alg):
    # a column table reads the tables of the keys [g, y_c] for each
    # u_J^- root c; filled in index order on first read, they must never
    # lead back to g: an x key brackets into lower x keys, Levi y keys, h
    # or u_J^- y, a Levi y key into u_J^- y alone
    rs = alg.rs
    for k in range(rs.n + 1):
        for I in itertools.combinations(range(1, rs.n + 1), k):
            order = fix_order(rs, I)
            u = set(order)
            for typ, g in alg.basis:
                if typ == "h" or typ == "y" and g in u:
                    continue
                for c in order:
                    for (btyp, bg), _ in alg.bracket((typ, g), ("y", c)).items():
                        if typ == "y":
                            assert btyp == "y" and bg in u, (I, g, c)
                        elif btyp == "x":
                            assert sum(bg) < sum(g), (I, g, c)


def test_one_cold_call_fills_the_whole_table(monkeypatch):
    # B2 p=5 I={2} at (1,1) has a 2-dim Levi head
    mod = build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))
    assert mod.levi.dim == 2
    keys = [k for k in B2.basis if k[0] == "x" or k[0] == "y" and k[1] not in mod.slot]
    made = []
    op_matrix = modules.ModuleBase.op_matrix
    for key in keys:
        cold = build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))
        cold.act_basis(key, cold.dim // 2)
        tab = cold._cols[key]
        # every later read, op_matrix's included, returns the table's
        # own column dicts and makes nothing more
        monkeypatch.setattr(
            modules.ModuleBase, "op_matrix",
            lambda self, k: made.append(k) or op_matrix(self, k),
        )
        assert all(cold.act_basis(key, b) is tab[b] for b in tab)
        assert not any(cold.act_basis(key, b) for b in range(cold.dim) if b not in tab)
        assert made == []
        monkeypatch.undo()
        assert cold.op_matrix(key) is tab
        assert tab == mod.op_matrix(key)


def test_one_cold_call_makes_each_table_through_op_matrix_once(monkeypatch):
    # every column table a cold x_(a1+2a2) read makes, its bracket keys'
    # and the Levi Verma module's behind the 2-dim head included, passes
    # through ModuleBase.op_matrix exactly once, and _cols holds it
    mod = build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))
    assert mod.levi.dim == 2
    calls = []
    op_matrix = modules.ModuleBase.op_matrix
    monkeypatch.setattr(
        modules.ModuleBase, "op_matrix",
        lambda self, key: calls.append((self, key)) or op_matrix(self, key),
    )
    mod.act_basis(("x", (1, 2)), mod.dim - 1)
    monkeypatch.undo()
    assert len(calls) == len({(id(o), k) for o, k in calls})
    assert ("x", (1, 2)) in mod._cols and len(mod._cols) > 1
    owners = {id(o): o for o, _ in calls}
    assert len(owners) > 1
    for o in owners.values():
        assert {k for o2, k in calls if o2 is o} == set(o._cols)


def test_a3_p7_dim_33614_decides():
    # the 33 614-dimensional module that the flat closure cannot decide
    # in reasonable time; the graded closure stops at the highest vector
    A3 = ChevalleyAlgebra(RootSystem("A", 3))
    mod = build_parabolic_baby_verma(A3, _chi(A3, 7, (1, 2)), (1, 1, 1))
    rep = is_irreducible(mod)
    assert (mod.dim, rep.irreducible, rep.lines_checked) == (33614, True, 6)


def test_radical_matches_per_line_oracle():
    # chi = 0 modules over a one-dimensional base take the transposed
    # closure, the parabolic one the running graded sum; the reference
    # closes every non-generating line, then all of them together
    C2 = ChevalleyAlgebra(RootSystem("C", 2))
    A3 = ChevalleyAlgebra(RootSystem("A", 3))
    C3 = ChevalleyAlgebra(RootSystem("C", 3))
    mods = [
        build_baby_verma(alg, PChar(p, []), lam)
        for alg, p in ((A2, 5), (B2, 3), (C2, 3), (A2, 7))
        for lam in itertools.product(range(p), repeat=2)
    ]
    mods += [
        build_baby_verma(A3, PChar(3, []), lam)
        for lam in ((0, 0, 0), (1, 0, 1), (2, 1, 0), (1, 1, 1))
    ]
    # the Levi Verma module behind the C3 p=5 I={1} head at (0,1,0), as
    # build_levi_simple builds it
    ld = LeviDatum(C3.rs, (1,))
    mods.append(
        modules.InducedModule(
            C3, PChar(5, ()), ld.levi_roots, TrivialLevi((0, 1, 0)), active=ld.J
        )
    )
    mods.append(build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1)))
    for mod in mods:
        vecs = radical_vectors_per_line(mod)
        want = span_closure(vecs, [], mod.p, grade=mod.grades())
        assert radical(mod).rows == want.rows


def test_radical_rejects_non_simple_head():
    # Z(2) + Z(2) for sl2 at p = 3, induced from two copies of the top
    # weight: not cyclic, and its head L(2) + L(2) is not simple
    levi = TrivialLevi((2,))
    levi.dim = 2  # both basis vectors of weight 2, the Levi acting by zero
    mod = build_parabolic_baby_verma(A1, PChar(3, []), (2,), order=((1,),), levi=levi)
    assert mod.dim == 6
    with pytest.raises(HeadNotSimple, match="head is not simple"):
        radical(mod)


def test_radical_refuses_a2_p3_regular_nilpotent():
    # for sl3, p = 3 divides n+1, outside the standard hypotheses: the
    # non-generating lines of this module generate together
    mod = build_baby_verma(A2, PChar(3, [1, 2]), (0, 0))
    assert mod.dim == 27
    for fn in (radical, head):
        with pytest.raises(HeadNotSimple, match="simple-head premise"):
            fn(mod)


@pytest.mark.parametrize("lam, head_dim", [((1, 0, 1), 48), ((1, 1, 0), 63)])
def test_b3_p3_heads_past_the_line_cap(lam, head_dim):
    # the B3 p=3 chi = 0 baby Verma (dim 19 683) has 11 096 kernel lines
    # at (1,0,1) and 31 815 at (1,1,0), over the default line cap; the
    # transposed closure builds its head in one closure of rank head_dim
    B3 = ChevalleyAlgebra(RootSystem("B", 3))
    q = head(build_baby_verma(B3, PChar(3, []), lam))
    assert q.dim == head_dim
    assert is_irreducible(q).irreducible
    assert verify_commutators(q)


def test_radical_path_follows_the_module(monkeypatch):
    # chi = 0 on every slot over a one-dimensional base closes e*_high
    # under the transposed action; a 2-dim base, chi != 0 on a slot and
    # a quotient close kernel lines, which can refuse a non-simple head
    taken = []
    for name in ("_radical_vectors", "_annihilator_of_top"):
        def call(mod, *args, fn=getattr(modules, name), name=name):
            taken.append(name)
            return fn(mod, *args)

        monkeypatch.setattr(modules, name, call)
    levi = TrivialLevi((2,))
    levi.dim = 2
    ld = LeviDatum(B2.rs, (2,))
    cases = [
        (build_baby_verma(A2, PChar(3, []), (1, 0)), "_annihilator_of_top"),
        (
            modules.InducedModule(
                B2, PChar(5, ()), ld.levi_roots, TrivialLevi((1, 1)), active=ld.J
            ),
            "_annihilator_of_top",
        ),
        (build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1)), "_radical_vectors"),
        (head(build_baby_verma(A2, PChar(3, []), (1, 0))), "_radical_vectors"),
    ]
    # chi = 0 over a one-dimensional base, but an active simple root is
    # not a slot: the dim-1 module at I = {} and a hand-built u_J^- order
    # for I = {1}; their radicals still equal the transposition's
    edges = [
        build_parabolic_baby_verma(A2, PChar(3, ()), (0, 0)),
        modules.InducedModule(
            A2, PChar(5, ()), fix_order(A2.rs, (1,)), TrivialLevi((1, 0))
        ),
    ]
    assert [mod.dim for mod in edges] == [1, 25]
    cases += [(mod, "_radical_vectors") for mod in edges]
    for mod, path in cases:
        del taken[:]
        radical(mod)
        assert taken[0] == path
    for mod in edges:
        assert mod.top_rows() is None
        assert radical(mod).rows == annihilator_of_top_by_columns(mod).rows
    # alpha_1 is a slot, but [x_1, y_(alpha_1+alpha_2)] is y_(alpha_2),
    # which is not
    order = fix_order(A2.rs, (1,))
    mod = modules.InducedModule(
        A2, PChar(5, ()), order, TrivialLevi((1, 0)), active=(1,)
    )
    assert mod.top_rows() is None
    refused = [
        build_parabolic_baby_verma(A1, PChar(3, []), (2,), order=((1,),), levi=levi),
        build_baby_verma(A2, PChar(3, [1, 2]), (0, 0)),
    ]
    for mod in refused:
        del taken[:]
        with pytest.raises(HeadNotSimple, match="simple-head premise"):
            radical(mod)
        assert taken == ["_radical_vectors"]


# ---- per-rank tables shared by a family, and the classes read from them ----


def _tables_of(mod):
    return mod._lead, mod._mwt, mod._mdrop, mod._lm


def _levi_verma(alg, p, I, lam):
    # the Levi Verma module behind a Levi head, as build_levi_simple builds it
    ld = LeviDatum(alg.rs, I)
    return modules.InducedModule(
        alg, PChar(p, ()), ld.levi_roots, TrivialLevi(lam), active=ld.J
    )


def test_a_family_shares_one_set_of_tables():
    # the tables read p, the u_J^- order and chi on the slots, never lam;
    # two equal characters are two objects but one family
    alg = ChevalleyAlgebra(RootSystem("A", 2))
    a = build_parabolic_baby_verma(alg, _chi(alg, 5, (1,)), (0, 1))
    b = build_parabolic_baby_verma(alg, _chi(alg, 5, (1,)), (3, 2))
    assert a.lam != b.lam
    assert all(ta is tb for ta, tb in zip(_tables_of(a), _tables_of(b)))
    assert _tables_of(a) == a._tables()


A2_FLIP = ChevalleyAlgebra(RootSystem("A", 2), sign_flip=True)


@pytest.mark.parametrize(
    "build_a, build_b",
    [
        # chi differs on a slot
        (
            lambda: build_parabolic_baby_verma(A2, _chi(A2, 5, (1,), {1: 2}), (1, 2)),
            lambda: build_parabolic_baby_verma(A2, _chi(A2, 5, (1,), {1: 1}), (1, 2)),
        ),
        # another p
        (
            lambda: build_baby_verma(A2, PChar(5, ()), (1, 2)),
            lambda: build_baby_verma(A2, PChar(7, ()), (1, 2)),
        ),
        # another algebra with the same root system
        (
            lambda: build_baby_verma(A2, PChar(5, ()), (1, 2)),
            lambda: build_baby_verma(A2_FLIP, PChar(5, ()), (1, 2)),
        ),
        # another u_J^- order: the Levi Verma module of B2 I={2}
        (
            lambda: build_baby_verma(B2, PChar(5, ()), (1, 1)),
            lambda: _levi_verma(B2, 5, (2,), (1, 1)),
        ),
    ],
    ids=["chi", "p", "sign_flip", "order"],
)
def test_other_families_get_their_own_tables(build_a, build_b):
    # built in both orders, each module's tables equal a fresh build
    for first, second in ((build_a, build_b), (build_b, build_a)):
        a, b = first(), second()
        assert a._lm is not b._lm
        assert a._lm != b._lm
        assert _tables_of(a) == a._tables()
        assert _tables_of(b) == b._tables()


def test_shuffled_family_reports_match_fresh_algebras():
    # lam and chi vary within one algebra; each module built in a fresh
    # algebra, so with tables of its own, must give the same report
    cases = [
        (typ, I, None, lam)
        for typ in ("A", "B")
        for I in ((), (1,), (2,))
        for lam in ((0, 0), (1, 2), (3, 1), (4, 4))
    ]
    cases += [("B", (2,), {2: 3}, lam) for lam in ((1, 1), (2, 0))]
    cases += [("A", (1,), {1: 4}, lam) for lam in ((1, 2), (0, 3))]
    random.Random(7).shuffle(cases)

    def decide(alg, I, values, lam):
        mod = build_parabolic_baby_verma(alg, _chi(alg, 5, I, values), lam)
        return is_irreducible(mod).to_dict(), radical(mod).rows

    shared = {typ: ChevalleyAlgebra(RootSystem(typ, 2)) for typ in ("A", "B")}
    for typ, I, values, lam in cases:
        fresh = ChevalleyAlgebra(RootSystem(typ, 2))
        assert decide(shared[typ], I, values, lam) == decide(fresh, I, values, lam)


def _digest(tables):
    return hashlib.sha256(repr(tables).encode()).hexdigest()


@pytest.mark.parametrize(
    "chi, lams",
    [(PChar(5, ()), [(1, 2), (3, 1)]), (_chi(A2, 5, (1,)), [(0, 1), (0, 3)])],
    ids=["chi0", "chi_I1"],
)
def test_shared_tables_stay_unchanged(chi, lams):
    # over a one-dimensional base act_basis hands out the _lm dicts
    # themselves: no caller may write into them
    alg = ChevalleyAlgebra(RootSystem("A", 2))
    mods = [build_baby_verma(alg, chi, lam) for lam in lams]
    assert mods[0].levi.dim == 1 and mods[0]._lm is mods[1]._lm
    # nor into the family's row tables, whose A^T rows the transposed
    # radical hands out
    before = _digest((_tables_of(mods[0]), mods[0].top_rows()))
    for mod in mods:
        maximal_vectors(mod)
        is_irreducible(mod)
        head(mod)
        assert verify_commutators(mod)
        assert verify_frobenius(mod)
        assert _digest((_tables_of(mods[0]), mods[0].top_rows())) == before


def _ordered(classes):
    return [(wt, list(groups.items())) for wt, groups in classes.items()]


def test_classes_and_grades_match_the_per_index_reading():
    C3 = ChevalleyAlgebra(RootSystem("C", 3))
    parabolic = build_parabolic_baby_verma(C3, _chi(C3, 5, (1,)), (0, 1, 0))
    assert parabolic.levi.dim == 4
    mods = [
        build_baby_verma(A2, PChar(5, ()), (1, 2)),
        parabolic,
        _levi_verma(C3, 5, (1,), (0, 1, 0)),
        parabolic.levi,
        head(build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))),
    ]
    assert isinstance(mods[3], QuotientModule) and isinstance(mods[4], QuotientModule)
    for mod in mods:
        classes, grades = classes_per_index(mod)
        assert _ordered(mod.weight_classes()) == _ordered(classes)
        assert mod.grades() == grades


# ---- the transposed radical, read from the family's row tables ----


def _differential_set():
    # chi = 0 Borel modules at every restricted lam, a sign_flip algebra,
    # and Levi Verma modules behind Levi heads (C3 p=5 I={1}, B2 p=5
    # I={2}, A3 p=5 I={1}, B3 p=3 I={3})
    algs = {key: ChevalleyAlgebra(RootSystem(*key)) for key in
            (("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3))}
    flip = ChevalleyAlgebra(RootSystem("A", 2), sign_flip=True)
    mods = [
        build_baby_verma(alg, PChar(p, ()), lam)
        for alg, p in [
            (algs["A", 1], 7), (algs["A", 2], 5), (algs["A", 2], 7), (algs["B", 2], 3),
            (algs["B", 2], 5), (algs["C", 2], 3), (algs["C", 2], 5), (algs["A", 3], 2),
            (algs["A", 3], 3), (flip, 5),
        ]
        for lam in itertools.product(range(p), repeat=alg.rs.n)
    ]
    mods += [
        _levi_verma(algs["C", 3], 5, (1,), (0, 1, 0)),
        _levi_verma(algs["B", 2], 5, (2,), (1, 1)),
        _levi_verma(algs["B", 2], 5, (2,), (3, 7)),
        _levi_verma(algs["B", 3], 3, (3,), (1, 2, 0)),
    ]
    mods += [
        _levi_verma(algs["A", 3], 5, (1,), (0, a, b))
        for a, b in ((1, 2), (3, 0), (4, 4))
    ]
    return mods


def test_radical_matches_the_column_transposition():
    # the family row tables against the transposes of each module's own
    # column tables, on a fresh module so radical() builds none of them
    mods = _differential_set()
    assert len(mods) == 216
    for mod in mods:
        assert mod.top_rows() is not None
        rebuilt = modules.InducedModule(
            mod.alg, mod.chi, mod.order, mod.levi, active=mod.active
        )
        assert radical(mod).rows == annihilator_of_top_by_columns(rebuilt).rows


def test_row_tables_match_the_recursion():
    # per family, A^T and Y^T equal the one-pass A/B recursion's, dict
    # order included, and at lam_i = 1 every row read is A^T + B^T mod p,
    # so rows whose slot digit is 0 (A's own) and p-1 alike
    seen = set()
    for mod in _differential_set():
        key = (id(mod.alg), mod.p, mod.order, mod.active)
        if key in seen:
            continue
        seen.add(key)
        got, want = mod.top_rows(), row_tables_by_recursion(mod)
        assert len(got) == len(want) == len(mod.active)
        for (a, y, stride), (wa, wb, wy) in zip(got, want):
            assert repr((a, y)) == repr((wa, wy))
            rows = modules._RowsAt(a, stride, 1, mod.p)
            for j in range(mod.dim):
                row = addmul(dict(wa.get(j, {})), wb.get(j, {}), 1, mod.p)
                assert (rows.get(j) or {}) == row
    assert len(seen) == 14


@pytest.mark.parametrize("lam_shift", [0, 1])
def test_x_columns_are_a_plus_lam_b(lam_shift):
    # every column of op_matrix(x_i) equals A_i + lam_i B_i, read back from
    # the family's transposed rows; lam_shift adds p to each coordinate
    C3 = ChevalleyAlgebra(RootSystem("C", 3))
    flip = ChevalleyAlgebra(RootSystem("B", 2), sign_flip=True)
    cases = [
        (A2, 5, None, (1, 3)),
        (B2, 5, None, (4, 2)),
        (flip, 5, None, (2, 3)),
        (C3, 5, (1,), (0, 1, 0)),
        (B2, 5, (2,), (1, 1)),
        (A1, 7, None, (5,)),
    ]
    for alg, p, I, lam in cases:
        lam = tuple(x + lam_shift * p for x in lam)
        if I is None:
            mod = build_baby_verma(alg, PChar(p, ()), lam)
        else:
            mod = _levi_verma(alg, p, I, lam)
        n = mod.dim - 1
        for i, (a, y, stride) in zip(mod.active, mod.top_rows()):
            rows = modules._RowsAt(a, stride, mod.lam[i - 1], p)
            cols = {}
            for j in range(mod.dim):
                for k, c in (rows.get(n - j) or {}).items():
                    cols.setdefault(n - k, {})[j] = c
            g = mod.rs.simple(i)
            assert cols == mod.op_matrix(("x", g))
            ycols = {}
            for j, row in y.items():
                for k, c in row.items():
                    ycols.setdefault(n - k, {})[n - j] = c
            assert ycols == mod.op_matrix(("y", g))


def test_radical_builds_no_column_table():
    for mod in _differential_set()[::7]:
        radical(mod)
        assert mod._cols == {}


# ---- dimension oracles from root data alone ----


def test_heads_match_the_low_alcove_dims():
    # every restricted lam of the heads workload's chi = 0 families whose
    # dim L(lam) the two lowest alcoves give in closed form: 49 + 10 + 10
    # + 1 heads (A3 p=3 has p < h, so only its bottom alcove counts)
    covered = []
    for typ, rank, p in [("A", 2, 7), ("B", 2, 5), ("C", 2, 5), ("A", 3, 3)]:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        for lam in itertools.product(range(p), repeat=rank):
            want = simple_dim_low_alcoves(alg.rs, lam, p)
            if want is not None:
                covered.append((typ, p))
                got = head(build_baby_verma(alg, PChar(p, ()), lam)).dim
                assert got == want, (typ, rank, p, lam)
    assert len(covered) == 70
    assert [covered.count(k) for k in sorted(set(covered))] == [1, 49, 10, 10]


def test_sweep_rows_match_the_levi_weyl_dim():
    # a sweep row is induced from L_J(lam_J): with lam_J in the Levi's
    # closed bottom alcove its dim is p^m times Weyl's formula over R_J^+,
    # m the number of u_J roots; the six perfbench sweep families, 147 rows
    families = [
        ("A", 2, 13, (1,)),
        ("A", 2, 11, (1,)),
        ("B", 2, 7, (2,)),
        ("C", 2, 7, (1,)),
        ("A", 3, 7, (1,)),
        ("A", 3, 5, (1,)),
    ]
    covered = 0
    for typ, rank, p, I in families:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        rs = alg.rs
        levi = [g for g in rs.roots if all(c == 0 or k + 1 not in I for k, c in enumerate(g))]
        for lam in rs.regular_alcove_weights(p):
            if all(rs.pairing([x + 1 for x in lam], g) <= p for g in levi):
                covered += 1
                mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
                want = p ** (len(rs.roots) - len(levi)) * weyl_dim(rs, lam, levi)
                assert mod.dim == want, (typ, rank, p, I, lam)
    assert covered == 147
