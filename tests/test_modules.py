"""Induced modules: construction, action correctness, irreducibility."""

import ast
import hashlib
import inspect
import itertools
import random
import sys

import pytest

from _oracles import (
    RowsAtByRows,
    annihilator_of_top_by_columns,
    apply_columns_by_addmul,
    check_stable,
    classes_by_tuple_sums,
    classes_per_index,
    drop_int,
    index_of,
    levi_rows_per_index,
    maximal_vectors_per_class,
    norton_verdict,
    radical_vectors_per_line,
    row_tables_by_recursion,
    simple_dim_low_alcoves,
    sl2_matrices,
    span_closure_depth_first,
    vector_at,
    verify_commutators_by_apply,
    verify_frobenius_by_apply,
    weight_int,
    weyl_dim,
)
from babyverma import campaigns, modules
from babyverma.chevalley import ChevalleyAlgebra, PChar, make_pchar
from babyverma.fplin import addmul, apply_columns, span_closure
from babyverma.modules import (
    AdjointModule,
    CapExceeded,
    HeadModule,
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
from test_pbw import DIFF_ZOO

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
    eigs = sorted(weight_int(hd, b)[0] % 5 for b in range(hd.dim))
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
    assert [weight_int(levi, l) for l in range(2)] == [(0, 1), (1, -1)]
    assert [drop_int(levi, l) for l in range(2)] == [(0, 0), (0, 1)]


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
                wb = weight_int(mod, b)
                db = drop_int(mod, b)
                for b2 in col:
                    w2 = weight_int(mod, b2)
                    d2 = drop_int(mod, b2)
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
    # the p-th power law.  So does y_alpha killing two vectors, 7 and
    # y_alpha e_7: at chi(y_alpha) = 1, y_alpha permutes the basis up to
    # scalars with y_alpha^p = 1, so every power chain through them dies
    # before its last step and must still be compared.  At dim 50 both
    # checks are exhaustive
    mod = build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1))
    act = mod.act_basis
    x, y = ("x", A2.rs.simple(1)), ("y", A2.rs.simple(1))
    assert mod.chi.at_root(y[1]) == 1 and len(act(y, 7)) == 1
    for bad_key, bad_bs, bad_col in ((x, {7}, {7: 1}), (y, {7, *act(y, 7)}, {})):

        def wrong(key, b):
            return bad_col if key == bad_key and b in bad_bs else act(key, b)

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
    # or u_J^- y.  A Levi root vector g, x or y, normalizes u_J^-: it
    # brackets into u_J^- y alone, which the packed-row fill rests on
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
                        if g not in u:
                            assert btyp == "y" and bg in u, (I, typ, g, c)
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
    # through ModuleBase.op_matrix exactly once, and _cols holds it.  The
    # head's raising table is made before, when build_levi_simple checks
    # that the head is simple
    mod = build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))
    assert mod.levi.dim == 2
    made = {id(mod.levi): set(mod.levi._cols)}
    assert made[id(mod.levi)] == {("x", (1, 0))}
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
        assert {k for o2, k in calls if o2 is o} == set(o._cols) - made.get(id(o), set())


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
    # dim 405 over a 15-dim Levi head, radical ranks 270 and 216: the
    # line path's recursion into the quotient by its first-stage sum
    # adds rows on both
    mods += [
        build_parabolic_baby_verma(A3, _chi(A3, 3, (1,)), lam)
        for lam in ((1, 1, 2), (1, 2, 1))
    ]
    for mod in mods:
        vecs = radical_vectors_per_line(mod)
        want = span_closure(vecs, [], mod.p, grade=mod.grades())
        assert radical(mod).rows == want.rows


def test_line_path_radical_matches_transposed_closure(monkeypatch):
    # both radical paths on every restricted chi = 0 module of A2, B2
    # and C2 at p = 3.  The line path recurses into the quotient by its
    # first-stage sum; on A2 (1,1) that step must add rows, or this test
    # no longer covers it
    added = []
    line_path = modules._radical_vectors

    def spy(mod, cap):
        out = line_path(mod, cap)
        if isinstance(mod, QuotientModule):
            added.append(out.rank())
        return out

    monkeypatch.setattr(modules, "_radical_vectors", spy)
    C2 = ChevalleyAlgebra(RootSystem("C", 2))
    for alg in (A2, B2, C2):
        for lam in itertools.product(range(3), repeat=2):
            mod = build_baby_verma(alg, PChar(3, []), lam)
            del added[:]
            got = modules._radical_vectors(mod, modules.LINES_CAP).rows
            assert got == modules._annihilator_of_top(mod).rows
            if alg is A2 and lam == (1, 1):
                # the outermost quotient's rows are the last recorded
                assert (len(got) - added[-1], len(got)) == (18, 20)


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
    # transposed closure builds its head in one closure of rank head_dim.
    # Deciding and checking the head fills no table of the Verma module
    B3 = ChevalleyAlgebra(RootSystem("B", 3))
    mod = build_baby_verma(B3, PChar(3, []), lam)
    q = head(mod)
    assert q.dim == head_dim
    assert is_irreducible(q).irreducible
    assert verify_commutators(q)
    assert verify_frobenius(q)
    assert mod._cols == {}


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
        TrivialLevi((3, 7, 1)),
    ]
    assert isinstance(mods[3], HeadModule) and isinstance(mods[4], QuotientModule)
    p = 5
    for mod in mods:
        classes, grades, drops = classes_per_index(mod, p)
        assert len(mod.grades()) == len(mod.drops()) == mod.dim
        assert mod.drops() == drops
        if isinstance(mod, TrivialLevi):
            # its weight may stay unreduced: the induced module reduces it
            assert [tuple(v % p for v in w) for w in mod.grades()] == grades
            continue
        assert _ordered(mod.weight_classes()) == _ordered(classes)
        assert mod.grades() == grades
    # the family's per-rank shifts are stored as residues
    for mod in mods[:3]:
        assert all(0 <= v < p for t in (mod._mwt, mod._mdrop) for w in t for v in w)


def _classes_listed(mod):
    return [(wt, list(groups.items())) for wt, groups in mod.weight_classes().items()]


def test_grades_drops_and_classes_match_the_tuple_pass():
    # the family residue ids against the per-index tuple sums, list and
    # dict order included: the differential set, the Levi head cases, the
    # first rows of each sweep family, a probe base, and the widest and
    # longest packed residues (A1 p=101, D4 p=3)
    mods = _differential_set()
    for typ, rank, flip, p, I, lam in LEVI_HEAD_CASES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
        mods.append(build_parabolic_baby_verma(alg, _chi(alg, p, I), lam))
    for typ, rank, p, I in SWEEP_FAMILIES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        for lam in alg.rs.regular_alcove_weights(p)[:3]:
            mods.append(build_parabolic_baby_verma(alg, _chi(alg, p, I), lam))
    tmpl = build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))
    keys = [None] + [("y", b) for b in B2.rs.roots if b not in tmpl.slot]
    mods.append(modules.InducedModule(B2, tmpl.chi, tmpl.order, modules._Probe(keys, 2)))
    D4 = ChevalleyAlgebra(RootSystem("D", 4))
    mods += [build_baby_verma(A1, PChar(101, ()), (lam,)) for lam in (0, 57, 100)]
    mods += [build_parabolic_baby_verma(D4, _chi(D4, 3, (1,)), lam)
             for lam in ((0, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 1))]
    assert {mod.levi.dim > 1 for mod in mods} == {False, True}
    for mod in mods:
        grades, drops, classes = classes_by_tuple_sums(mod)
        assert mod.grades() == grades and mod.drops() == drops
        assert _classes_listed(mod) == _ordered(classes)


def test_reduction_memos_stay_bounded():
    # every row of A3 p=7 I={1} decided: each family's memo, from a packed
    # sum of base-2p digits to its residues, holds at most (2p)^n entries,
    # and the modules of one family share its id tables
    alg = ChevalleyAlgebra(RootSystem("A", 3))
    mods = [build_parabolic_baby_verma(alg, _chi(alg, 7, (1,)), lam)
            for lam in alg.rs.regular_alcove_weights(7)]
    assert all(is_irreducible(mod).irreducible for mod in mods)
    families = [tabs[4] for key, tabs in alg.module_tables.items() if len(key) == 3]
    assert len(families) == 2  # the rows and the Levi Verma modules behind their heads
    assert all(0 < len(memo) <= 14**3 for _, _, memo in families)
    a, b = mods[0], mods[-1]
    assert a.lam != b.lam and a._res is b._res
    assert all(ta is tb for ta, tb in zip(a._res, b._res))


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
    # per family, A^T equals the one-pass A/B recursion's, dict order
    # included, and at lam_i = 1 every row read is A^T + B^T mod p,
    # so rows whose slot digit is 0 (A's own) and p-1 alike
    seen = set()
    for mod in _differential_set():
        key = (id(mod.alg), mod.p, mod.order, mod.active)
        if key in seen:
            continue
        seen.add(key)
        got, want = mod.top_rows(), row_tables_by_recursion(mod)
        assert len(got) == len(want) == len(mod.active)
        for (a, stride), (wa, wb) in zip(got, want):
            assert repr(a) == repr(wa)
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
        for i, (a, stride) in zip(mod.active, mod.top_rows()):
            rows = modules._RowsAt(a, stride, mod.lam[i - 1], p)
            cols = {}
            for j in range(mod.dim):
                for k, c in (rows.get(n - j) or {}).items():
                    cols.setdefault(n - k, {})[j] = c
            g = mod.rs.simple(i)
            assert cols == mod.op_matrix(("x", g))


def test_breadth_first_closures_match_depth_first():
    # fplin.span_closure against the last-in, first-out loop it replaced,
    # both closed to the end.  Transposed: the closure of e*_high under
    # the x_i^T readers gives equal rows in either order, and radical()
    # equals the annihilator of the depth-first closure under every
    # transposed xy column.  Line side: the xy closure of a maximal
    # vector that does not generate.
    mods = _differential_set()
    for mod in mods:
        p, dim, grade = mod.p, mod.dim, mod.grades()
        ops = [
            modules._RowsAt(a, stride, mod.lam[i - 1], p)
            for i, (a, stride) in zip(mod.active, mod.top_rows())
        ]
        seed, rgrade = [{dim - 1 - mod.high: 1}], grade[::-1]
        fast = span_closure(seed, ops, p, dim=dim, grade=rgrade)
        slow = span_closure_depth_first(seed, ops, p, dim=dim, grade=rgrade)
        assert fast.rows == slow.rows
        rebuilt = modules.InducedModule(
            mod.alg, mod.chi, mod.order, mod.levi, active=mod.active
        )
        want = annihilator_of_top_by_columns(rebuilt, span_closure_depth_first)
        assert radical(mod).rows == want.rows
    proper = 0
    for mod in mods[::3]:
        # a full closure's rows are the identity, so close the first
        # maximal vector that does not generate
        p, dim, grade = mod.p, mod.dim, mod.grades()
        vecs = (v for _, vs in sorted(maximal_vectors(mod).items()) for v in vs)
        v = next((v for v in vecs if not generates(mod, v)), None)
        if v is not None:
            xy = mod.xy_ops()
            fast = span_closure([v], xy, p, dim=dim, grade=grade)
            slow = span_closure_depth_first([v], xy, p, dim=dim, grade=grade)
            assert fast.rows == slow.rows
            proper += 1
    assert len(mods) == 216
    assert proper == 67


def test_radical_builds_no_column_table():
    for mod in _differential_set()[::7]:
        radical(mod)
        assert mod._cols == {}


# ---- the closure kernel: closed-form transposed rows, y-only lines ----

# the chi = 0 families of the heads benchmark workload
HEADS_FAMILIES = [(A2, 7), (B2, 5), (ChevalleyAlgebra(RootSystem("C", 2)), 5),
                  (ChevalleyAlgebra(RootSystem("A", 3)), 3)]


def test_closed_form_rows_match_the_formed_rows():
    # _RowsAt.apply against the rows formed one by one and applied by
    # addmul, on every heads family's transposed x_i at every lam_i mod p
    # and at lam_i + p: on each e_j (get too), and on random vectors with
    # coefficients unreduced or 0 mod p
    rng = random.Random(27)
    for alg, p in HEADS_FAMILIES:
        mod = build_baby_verma(alg, PChar(p, ()), (0,) * alg.rs.n)
        for a, stride in mod.top_rows():
            for lam in range(2 * p):
                fast = modules._RowsAt(a, stride, lam, p)
                slow = RowsAtByRows(a, stride, lam, p)
                for j in range(mod.dim):
                    want = apply_columns_by_addmul(slow, {j: 1}, p)
                    assert fast.apply({j: 1}) == fast.get(j) == want
                    assert want == (slow.get(j) or {})
                for _ in range(20):
                    vec = {j: rng.randrange(-p, 2 * p) for j in rng.sample(range(mod.dim), 8)}
                    assert fast.apply(vec) == apply_columns_by_addmul(slow, vec, p)
                    assert apply_columns(fast, vec, p) == fast.apply(vec)


def _closure_to_the_end(mod, vec, kinds, stop=None):
    ops = [mod._reader((t, mod.rs.simple(i))) for i in mod.active for t in kinds]
    return span_closure([vec], ops, mod.p, dim=mod.dim, grade=mod.grades(), stop=stop)


def _y_only_modules():
    mods = _differential_set()
    for build, typ, rank, p, I, lam in DIFF_ZOO:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        mods.append(build(alg, make_pchar(alg, p, I), lam))
    for typ, rank, flip, p, I, lam in LEVI_HEAD_CASES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
        mods.append(build_parabolic_baby_verma(alg, _chi(alg, p, I), lam))
    return mods


def test_kernel_lines_close_under_the_y_alone():
    # a kernel line generates the same submodule under the active y_i as
    # under the x_i and y_i (the is_irreducible docstring), on every kernel
    # line.  Both closures stop at e_high: every module here is cyclic on
    # it, so a closure that reaches it is the whole module run to the end,
    # and one that does not ran to the end, and its rows are compared
    mods = _y_only_modules()
    assert len(mods) == 216 + len(DIFF_ZOO) + len(LEVI_HEAD_CASES)
    lines = proper = 0
    for mod in mods:
        for _, v in modules._kernel_lines(mod, 10000)[1]:
            y = _closure_to_the_end(mod, v, "y", mod.high)
            xy = _closure_to_the_end(mod, v, "xy", mod.high)
            top = xy.contains({mod.high: 1})
            assert y.contains({mod.high: 1}) == top
            if not top:
                assert y.rows == xy.rows
                proper += 1
            lines += 1
    assert (lines, proper) == (2697, 1966)


def test_generates_closes_under_x_and_y(monkeypatch):
    # generates() takes any vector, not only a maximal one, so its closure
    # reads the x_i as well as the y_i
    mod = build_baby_verma(A1, PChar(5, []), (2,))
    kinds = []
    closure = modules._line_closure
    monkeypatch.setattr(
        modules, "_line_closure",
        lambda m, v, k="xy": kinds.append(k) or closure(m, v, k),
    )
    assert not generates(mod, {3: 1})
    assert generates(mod, {0: 1})
    # y v is no kernel line: it reaches the top v only through x_1
    assert generates(mod, {1: 1})
    assert kinds == ["xy"] * 3
    assert not _closure_to_the_end(mod, {1: 1}, "y").contains({mod.high: 1})


def test_a_sweep_row_expands_its_levi_verma_drops_once(monkeypatch):
    # _Kept keeps its drops as it keeps its grades: the row's module reads
    # its Levi head's drops, and so does the head's simplicity check, but
    # the Levi Verma module behind the head expands its drops once a row
    rs = RootSystem("A", 3)
    lams = [lam for lam in rs.regular_alcove_weights(5) if lam[1] % 5 or lam[2] % 5][:3]
    calls, built = [], []
    drops, build = modules.InducedModule.drops, campaigns.build_parabolic_baby_verma
    monkeypatch.setattr(modules.InducedModule, "drops", lambda m: calls.append(m) or drops(m))
    monkeypatch.setattr(campaigns, "build_parabolic_baby_verma",
                        lambda *a, **k: built.append(build(*a, **k)) or built[-1])
    for lam in lams:
        del calls[:]
        campaigns.analyze_weight("A", 3, 5, (1,), lam)
        mod = built[-1]
        assert isinstance(mod.levi, HeadModule)
        assert [m for m in calls if m is not mod] == [mod.levi.parent]


# ---- the head on the transposed path, dual to the closure of e*_high ----


def _head_keys(mod):
    # the h keys, and every x and y key whose root the active simple
    # roots span: the keys a head acts by
    act = set(mod.active)
    return [
        k for k in mod.alg.basis
        if k[0] == "h" or all(c == 0 or i + 1 in act for i, c in enumerate(k[1]))
    ]


def _assert_head_is_the_quotient(mod):
    # head() against the quotient by radical(), table by table
    hd, q = head(mod), QuotientModule(mod, radical(mod))
    assert isinstance(hd, HeadModule)
    assert (hd.dim, hd.high, hd.keep) == (q.dim, q.high, q.keep)
    assert hd.grades() == q.grades() and hd.drops() == q.drops()
    for key in _head_keys(mod):
        assert hd.op_matrix(key) == q.op_matrix(key), key
    return hd


def test_head_tables_match_the_quotient_by_the_radical():
    # the 216 modules of the differential set; the representation checks
    # on the heads of its Borel modules, which act by every key
    borel = 0
    for mod in _differential_set():
        hd = _assert_head_is_the_quotient(mod)
        if len(mod.active) == mod.rs.n:
            assert verify_commutators(hd) and verify_frobenius(hd)
            borel += 1
    assert borel == 209


def test_sweep_levi_heads_match_the_quotient_by_the_radical():
    # the Levi heads of dim > 1 behind the rows of the six sweep families
    dims = []
    for typ, rank, p, I in SWEEP_FAMILIES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        for lam in alg.rs.regular_alcove_weights(p):
            levi = build_levi_simple(alg, p, I, lam)
            if levi.dim > 1:
                assert isinstance(levi, HeadModule)
                dims.append(_assert_head_is_the_quotient(levi.parent).dim)
    assert len(dims) == 113 and min(dims) > 1


def test_levi_heads_have_one_maximal_line():
    # build_levi_simple checks every head of dim > 1: its only maximal
    # line is the one at high.  Every Levi head behind the sweep rows and
    # LEVI_HEAD_CASES passes
    heads = []
    for typ, rank, flip, p, I, lam in LEVI_HEAD_CASES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
        heads.append(build_levi_simple(alg, p, I, lam))
    for typ, rank, p, I in SWEEP_FAMILIES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        heads += [build_levi_simple(alg, p, I, lam) for lam in alg.rs.regular_alcove_weights(p)]
    heads = [hd for hd in heads if hd.dim > 1]
    assert len(heads) == len(LEVI_HEAD_CASES) + 113
    for hd in heads:
        top = (hd.grades()[hd.high], hd.drops()[hd.high])
        assert maximal_vectors(hd) == {top: [{hd.high: 1}]}


def test_build_levi_simple_refuses_a_head_that_is_not_simple(monkeypatch):
    # with head() handing back the Levi Verma module itself, a reducible
    # module with the same interface, the check sees more than one line
    alg = ChevalleyAlgebra(RootSystem("B", 2))
    monkeypatch.setattr(modules, "head", lambda mod, cap=modules.LINES_CAP: mod)
    with pytest.raises(HeadNotSimple, match="maximal lines"):
        build_levi_simple(alg, 5, (2,), (1, 1))
    # nor may the one maximal line lie off the head's high
    def moved_high(mod, cap=modules.LINES_CAP):
        hd = head(mod, cap)
        hd.high = hd.dim - 1 - hd.high
        return hd

    monkeypatch.setattr(modules, "head", moved_high)
    with pytest.raises(HeadNotSimple, match="1 maximal lines"):
        build_levi_simple(alg, 5, (2,), (1, 1))
    monkeypatch.undo()
    assert build_levi_simple(alg, 5, (2,), (1, 1)).dim == 2


def test_head_reads_no_table_of_the_module_it_heads(monkeypatch):
    # on the transposed path head() writes no annihilator, and neither
    # head() nor any table of the head calls op_matrix on the module it
    # heads: only on the head, and on the family's member at lam = 0 whose
    # x_i tables top_rows() transposes once per family
    def no_annihilator(mod):
        raise AssertionError("head() wrote the annihilator")

    monkeypatch.setattr(modules, "_annihilator_of_top", no_annihilator)
    owners = []
    op_matrix = modules.ModuleBase.op_matrix

    def spy(self, key):
        owners.append((self, key))
        return op_matrix(self, key)

    monkeypatch.setattr(modules.ModuleBase, "op_matrix", spy)
    # fresh algebras, so that each family makes its row tables here
    a2, b2, c3 = (ChevalleyAlgebra(RootSystem(*t)) for t in (("A", 2), ("B", 2), ("C", 3)))
    mods = [
        build_baby_verma(a2, PChar(5, ()), (1, 2)),
        build_baby_verma(a2, PChar(3, ()), (0, 0)),
        _levi_verma(b2, 5, (2,), (1, 1)),
        _levi_verma(c3, 5, (1,), (0, 1, 0)),
    ]
    made = 0
    for mod in mods:
        del owners[:]
        hd = head(mod)
        keys = _head_keys(mod)
        for key in keys:
            hd.act_basis(key, 0)
        others = [o for o, _ in owners if o is not hd]
        assert all(o is not mod and o.lam == (0,) * mod.rs.n for o in others)
        assert {key for o, key in owners if o is hd} == set(keys)
        assert mod._cols == {}
        made += len(others) > 0
    # each family filled its member at lam = 0; A2 at p = 3 is a family
    # of its own
    assert made == 4


# ---- dimension oracles from root data alone ----


def test_heads_match_the_low_alcove_dims():
    # every restricted lam of the heads workload's chi = 0 families, and
    # of A3 p=5, whose dim L(lam) the two lowest alcoves give in closed
    # form: 49 + 10 + 10 + 1 + 30 heads (A3 p=3 has p < h, so only its
    # bottom alcove counts; A3 p=5 has 10 in the bottom alcove and 20 in
    # the second)
    covered = []
    for typ, rank, p in [("A", 2, 7), ("B", 2, 5), ("C", 2, 5), ("A", 3, 3), ("A", 3, 5)]:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        for lam in itertools.product(range(p), repeat=rank):
            want = simple_dim_low_alcoves(alg.rs, lam, p)
            if want is not None:
                covered.append((typ, p))
                got = head(build_baby_verma(alg, PChar(p, ()), lam)).dim
                assert got == want, (typ, rank, p, lam)
    assert len(covered) == 100
    assert [covered.count(k) for k in sorted(set(covered))] == [1, 30, 49, 10, 10]


# the six perfbench sweep families, (type, rank, p, I)
SWEEP_FAMILIES = [
    ("A", 2, 13, (1,)),
    ("A", 2, 11, (1,)),
    ("B", 2, 7, (2,)),
    ("C", 2, 7, (1,)),
    ("A", 3, 7, (1,)),
    ("A", 3, 5, (1,)),
]


def test_sweep_rows_match_the_levi_weyl_dim():
    # a sweep row is induced from L_J(lam_J): with lam_J in the Levi's
    # closed bottom alcove its dim is p^m times Weyl's formula over R_J^+,
    # m the number of u_J roots; the sweep families, 147 rows
    covered = 0
    for typ, rank, p, I in SWEEP_FAMILIES:
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


def test_maximal_vectors_match_the_per_class_oracle():
    # one peeled elimination per module against one nullspace per class,
    # key order included: the differential set, the first rows of each
    # sweep family, every LEVI_HEAD_CASES module, every A2 p=11 I={1} row
    # over a Levi head of dim > 1, a quotient by a proper non-maximal
    # submodule and a head.  Over a head of dim > 1 the x_i after the first
    # are joined per column, while the oracle reads every table whole
    mods = _differential_set()
    for typ, rank, p, I in SWEEP_FAMILIES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank))
        for lam in alg.rs.regular_alcove_weights(p)[:3]:
            mods.append(build_parabolic_baby_verma(alg, _chi(alg, p, I), lam))
    for typ, rank, flip, p, I, lam in LEVI_HEAD_CASES:
        alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
        mods.append(build_parabolic_baby_verma(alg, _chi(alg, p, I), lam))
    a2 = ChevalleyAlgebra(RootSystem("A", 2))
    rows = [build_parabolic_baby_verma(a2, _chi(a2, 11, (1,)), lam)
            for lam in a2.rs.regular_alcove_weights(11)]
    rows = [mod for mod in rows if mod.levi.dim > 1]
    assert len(rows) == 36 and all(mod.levi.dim > 1 for mod in mods[-len(LEVI_HEAD_CASES):])
    mods += rows
    z = build_baby_verma(A2, PChar(5, ()), (0, 0))
    _, lines = modules._kernel_lines(z, 1000)
    line = next(v for _, v in lines if not generates(z, v))
    quotient = QuotientModule(z, span_closure([line], z.xy_ops(), 5))
    top = head(build_baby_verma(B2, PChar(5, ()), (1, 2)))
    assert isinstance(top, HeadModule)
    mods += [quotient, top]
    for mod in mods:
        got, want = maximal_vectors(mod), maximal_vectors_per_class(mod)
        assert got == want and list(got) == list(want)
    assert len(maximal_vectors(quotient)) > 1


# ---- Levi root vectors through the family's packed rows ----


def _levi_keys(mod):
    # every x and y key whose root is not a u_J^- slot, simple or not
    return [k for k in mod.alg.basis if k[0] != "h" and k[1] not in mod.slot]


def _levi_rows_made(alg):
    # the module_tables entries that _levi_rows made, by key
    return {k: v for k, v in alg.module_tables.items() if len(k) == 4 and k[3] in alg.basis}


def _first_levi_head_row(typ, rank, p, I):
    # the first sweep row whose Levi head has dim > 1
    rs = RootSystem(typ, rank)
    J = LeviDatum(rs, I).J
    lam = next(lam for lam in rs.regular_alcove_weights(p) if any(lam[j - 1] % p for j in J))
    return typ, rank, False, p, I, lam


LEVI_HEAD_CASES = [
    ("B", 2, False, 5, (2,), (1, 1)),
    ("B", 2, False, 13, (2,), (3, 5)),
    ("C", 3, False, 5, (1,), (0, 1, 0)),
    ("A", 3, False, 5, (1,), (0, 1, 3)),
    ("D", 4, False, 3, (1,), (0, 1, 0, 0)),
    ("A", 3, True, 5, (1,), (0, 1, 3)),
] + [_first_levi_head_row(*family) for family in SWEEP_FAMILIES]


@pytest.mark.parametrize(
    "typ, rank, flip, p, I, lam",
    LEVI_HEAD_CASES,
    ids=[
        "%s%d%s-p%d-I%s-lam%s" % (t, n, "-flip" * f, p, "".join(map(str, I)), "".join(map(str, lam)))
        for t, n, f, p, I, lam in LEVI_HEAD_CASES
    ],
)
def test_levi_tables_match_the_straightening(typ, rank, flip, p, I, lam):
    # over a Levi head of dim > 1 a Levi root vector's table joins the
    # base action to the family's packed rows; the straightening loop is
    # the oracle.  The first module makes the rows in a fresh algebra, the
    # second, of the same family, finds them made
    alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
    for made_before in (False, True):
        mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
        assert mod.levi.dim > 1
        keys = _levi_keys(mod)
        assert {k[0] for k in keys} == {"x", "y"}
        rows = _levi_rows_made(alg)
        assert len(rows) == (len(keys) if made_before else 0)
        for key in keys:
            assert mod.op_matrix(key) == mod._straighten(key), key
        assert set(_levi_rows_made(alg)) == {
            (p, mod.order, tuple(mod.chival), k) for k in keys
        }
        assert all(_levi_rows_made(alg)[k] is v for k, v in rows.items())


def _slot_x_keys(mod):
    # the x keys of the simple roots among the u_J^- slots
    return [("x", g) for g in mod.order if sum(g) == 1]


def test_a_family_shares_its_levi_rows():
    # two weights of one family read one packed rows object per key, the
    # slot x_i's included, and nothing the modules run writes into it
    alg = ChevalleyAlgebra(RootSystem("B", 2))
    mods = [build_parabolic_baby_verma(alg, _chi(alg, 5, (2,)), lam) for lam in ((1, 1), (3, 2))]
    assert [mod.levi.dim for mod in mods] == [2, 4]
    keys = _levi_keys(mods[0]) + _slot_x_keys(mods[0])
    assert _slot_x_keys(mods[0]) == [("x", (0, 1))]
    rows = {key: mods[0]._levi_rows(key) for key in keys}
    before = _digest(rows)
    for mod in mods:
        assert all(mod._levi_rows(key) is rows[key] for key in keys)
        for key in alg.basis:
            mod.op_matrix(key)
        maximal_vectors(mod)
        is_irreducible(mod)
        assert verify_commutators(mod)
        assert verify_frobenius(mod)
        assert _digest(rows) == before
    assert _levi_rows_made(alg) == {
        (5, mods[0].order, tuple(mods[0].chival), key): rows[key] for key in keys
    }


@pytest.mark.parametrize(
    "chi_a, chi_b",
    [((5, {1: 1}), (5, {1: 2})), ((5, None), (7, None))],
    ids=["chi", "p"],
)
def test_other_families_get_their_own_levi_rows(chi_a, chi_b):
    # A3 I={1} at lam=(0,1,3): an A2 Levi head, of dim 18 at p=5, 24 at p=7
    alg = ChevalleyAlgebra(RootSystem("A", 3))
    a, b = (
        build_parabolic_baby_verma(alg, _chi(alg, p, (1,), values), (0, 1, 3))
        for p, values in (chi_a, chi_b)
    )
    assert a.levi.dim == 18 and b.levi.dim == (18 if b.p == 5 else 24)
    keys = _levi_keys(a)
    for key in keys:
        assert a.op_matrix(key) == a._straighten(key)
        assert b.op_matrix(key) == b._straighten(key)
        assert a._levi_rows(key) is not b._levi_rows(key)
    assert len(_levi_rows_made(alg)) == 2 * len(keys)
    # the rows read chi: [x_a2, y_(a1+a2)] is y_a1, whose p-th power wraps
    # to chi(y_a1)^p
    assert a._levi_rows(("x", (0, 1, 0))) != b._levi_rows(("x", (0, 1, 0)))


# ---- slot x_i from the family rows; y columns read as closures need them ----

# weights with a Levi head of dim > 1 in ten families, two in each but
# the B3 one, whose modules reach dim 46 875; those LEVI_HEAD_CASES holds
# are left out
SLOT_X_CASES = [
    (typ, rank, False, p, I, lam)
    for typ, rank, p, I, lams in [
        ("A", 2, 7, (1,), [(0, 3), (2, 6)]),
        ("A", 3, 5, (1,), [(0, 1, 3), (2, 4, 1)]),
        ("A", 3, 5, (3,), [(1, 2, 0), (3, 3, 2)]),
        ("A", 3, 5, (1, 2), [(0, 0, 2), (1, 1, 3)]),
        ("A", 4, 3, (1,), [(0, 1, 1, 0), (1, 2, 0, 1)]),
        ("B", 2, 7, (2,), [(3, 1), (6, 0)]),
        ("B", 3, 5, (3,), [(1, 0, 0)]),
        ("C", 2, 7, (1,), [(0, 3), (1, 5)]),
        ("C", 3, 5, (1,), [(0, 1, 0), (1, 0, 1)]),
        ("D", 4, 3, (4,), [(1, 1, 1, 0), (0, 1, 0, 0)]),
    ]
    for lam in lams
    if (typ, rank, False, p, I, lam) not in LEVI_HEAD_CASES
]


@pytest.mark.parametrize(
    "typ, rank, flip, p, I, lam",
    LEVI_HEAD_CASES + SLOT_X_CASES,
    ids=[
        "%s%d%s-p%d-I%s-lam%s" % (t, n, "-flip" * f, p, "".join(map(str, I)), "".join(map(str, lam)))
        for t, n, f, p, I, lam in LEVI_HEAD_CASES + SLOT_X_CASES
    ],
)
def test_slot_x_tables_match_the_straightening(typ, rank, flip, p, I, lam):
    # over a Levi head of dim > 1 a slot x_i's table joins the family's
    # rows over the probe base to the head's Levi y action, plus
    # lam(l)_i a_s y^(a - e_s); the straightening loop is the oracle.  The
    # second module of the family finds every row made and makes none
    alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
    for made_before in (False, True):
        mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
        assert mod.levi.dim > 1
        keys = _slot_x_keys(mod)
        assert len(keys) == len(mod.chi.I)
        before = dict(alg.module_tables)
        for key in keys:
            assert mod.op_matrix(key) == mod._straighten(key), key
        family = (p, mod.order, tuple(mod.chival))
        assert all(family + (key,) in alg.module_tables for key in keys)
        if made_before:
            assert alg.module_tables == before
            assert all(alg.module_tables[k] is v for k, v in before.items())


@pytest.mark.parametrize(
    "typ, rank, flip, p, I, lam",
    LEVI_HEAD_CASES + [("A", 2, False, 5, (), (1, 3)), ("B", 2, False, 5, (2,), (0, 3))],
)
def test_line_closure_y_columns_match_the_tables(typ, rank, flip, p, I, lam):
    # the columns a line closure reads for each active y_i equal the
    # column table's, and reading them makes no table; over a base of
    # dim 1 a Levi root's y_i is read from its table
    alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
    mod, ref = (build_parabolic_baby_verma(alg, _chi(alg, p, I), lam) for _ in range(2))
    for i in mod.active:
        key = ("y", alg.rs.simple(i))
        reader, table = mod._reader(key), ref.op_matrix(key)
        assert all((reader.get(b) or {}) == table.get(b, {}) for b in range(mod.dim)), key
        assert (key in mod._cols) == (mod.levi.dim == 1 and key[1] not in mod.slot)


def test_closures_through_y_readers_decide_as_through_tables(monkeypatch):
    # reports, witness dims and radical rows on the differential set and
    # the parabolic heads item, against line closures that read every
    # operator from its column table
    def decide():
        mods = _differential_set() + [build_parabolic_baby_verma(B2, _chi(B2, 5, (2,)), (1, 1))]
        out = []
        for mod in mods:
            rep = is_irreducible(mod)
            out.append((rep.to_dict(), rep.witness_dim, radical(mod).rows))
        return out

    lazy = decide()
    assert sum(not d["irreducible"] for d, _, _ in lazy) > 100
    monkeypatch.setattr(modules.InducedModule, "_reader", modules.ModuleBase._reader)
    assert decide() == lazy


def test_sweep_rows_over_levi_heads_straighten_nothing(monkeypatch):
    # a campaign row over a Levi head of dim > 1 straightens no key of its
    # module and makes no y table: slot x_i and the Levi root vectors join
    # the family rows, and the line closures read y columns one at a time.
    # A second weight of the family makes no family rows and straightens
    # nothing at all
    rs = RootSystem("A", 3)
    lams = [lam for lam in rs.regular_alcove_weights(5) if lam[1] % 5 or lam[2] % 5][:2]
    built, straightened = [], []
    build, straighten = campaigns.build_parabolic_baby_verma, modules.InducedModule._straighten

    def spy_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def spy_straighten(self, key, *args):
        straightened.append((self, key))
        return straighten(self, key, *args)

    monkeypatch.setattr(campaigns, "build_parabolic_baby_verma", spy_build)
    monkeypatch.setattr(modules.InducedModule, "_straighten", spy_straighten)
    tables = campaigns._algebra("A", 3).module_tables
    for second, lam in enumerate(lams):
        del straightened[:]
        before = dict(tables)
        row = campaigns.analyze_weight("A", 3, 5, (1,), lam)
        mod = built[-1]
        assert row["verdict"] == "irreducible" and mod.levi.dim > 1
        assert [key for o, key in straightened if o is mod] == []
        assert [key for key in mod._cols if key[0] == "y"] == []
        if second:
            assert straightened == [] and tables == before


@pytest.mark.parametrize(
    "typ, rank, p, I, lam",
    [("A", 3, 7, (1,), (0, 1, 2)), ("A", 2, 13, (1,), (0, 10))],
)
def test_a_row_over_a_levi_head_makes_one_x_table(monkeypatch, typ, rank, p, I, lam):
    # is_irreducible makes the table of the first Levi x_j alone; every
    # other x_i is joined per column where the peel leaves columns live,
    # each column once, and the slot x_i at fewer columns than dim
    reads = {}
    join = modules.InducedModule._join

    def spy_join(self, key):
        cols = join(self, key)

        def logged(ranks, ls):
            reads.setdefault(key, []).extend(r * self.levi.dim + l for r in ranks for l in ls)
            return cols(ranks, ls)

        return logged

    monkeypatch.setattr(modules.InducedModule, "_join", spy_join)
    alg = ChevalleyAlgebra(RootSystem(typ, rank))
    mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
    assert mod.levi.dim > 1
    reads.clear()
    assert is_irreducible(mod).irreducible
    levi_x, slot_x = ("x", alg.rs.simple(2)), ("x", alg.rs.simple(1))
    assert [key for key in mod._cols if key[0] == "x"] == [levi_x]
    assert sorted(reads[levi_x]) == list(range(mod.dim))
    x_reads = {key: cols for key, cols in reads.items() if key[0] == "x" and key != levi_x}
    assert slot_x in x_reads and len(x_reads) == rank - 1
    for cols in x_reads.values():
        assert len(set(cols)) == len(cols) < mod.dim
    assert 0 < len(x_reads[slot_x]) < mod.dim


# ---- the Levi x_j's peel, kept per head ----


def _kernel_starts(monkeypatch):
    # per joint_kernel call of maximal_vectors: the columns it starts from
    starts, jk = [], modules.joint_kernel
    monkeypatch.setattr(modules, "joint_kernel",
                        lambda ops, *a: starts.append(a[3]) or jk(ops, *a))
    return starts


def _levi_part(mod):
    # what picks a row's Levi head: its weight at the Levi's simple roots
    J = LeviDatum(mod.rs, mod.chi.I).J
    return tuple(mod.lam[j - 1] % mod.p for j in J)


def test_kept_levi_peels_give_the_cold_vectors(monkeypatch):
    # maximal_vectors cold, where the first row over each head peels the
    # Levi x_j table and keeps L0, and warm, where every row over a head of
    # dim > 1 starts at L0: equal to each other and to the per-class oracle.
    # Each LEVI_HEAD_CASES module, and every row of three sweep families,
    # twice on one algebra; rows over one head share one entry
    starts = _kernel_starts(monkeypatch)
    families = [[case] for case in LEVI_HEAD_CASES] + [
        [(typ, rank, False, p, I, lam) for lam in RootSystem(typ, rank).regular_alcove_weights(p)]
        for typ, rank, p, I in [("A", 2, 11, (1,)), ("A", 3, 5, (1,)), ("C", 2, 7, (1,))]
    ]
    over_heads = 0
    for family in families:
        typ, rank, flip, p, I, _ = family[0]
        alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
        runs = []
        for warm in (False, True):
            mods = [build_parabolic_baby_verma(alg, _chi(alg, p, I), lam) for *_, lam in family]
            del starts[:]  # the heads' own checks
            runs.append([maximal_vectors(mod) for mod in mods])
            heads = {_levi_part(mod) for mod in mods if mod.levi.dim > 1}
            assert len(alg.levi_peels) == len(heads) > 0
            started = [start is not None for mod, start in zip(mods, starts) if mod.levi.dim > 1]
            assert started.count(False) == (0 if warm else len(heads))
        assert runs[0] == runs[1]
        for mod, got in zip(mods, runs[1]):
            want = maximal_vectors_per_class(mod)
            assert got == want and list(got) == list(want)
        over_heads += len(started)
    assert over_heads == len(LEVI_HEAD_CASES) + 36 + 2 + 2


class _OneColumnChanged:
    """base, read through the module interface, with key's column at b
    replaced by col."""

    def __init__(self, base, key, b, col):
        self.base, self.key, self.b, self.col = base, key, b, col
        self.dim, self.high, self.lam = base.dim, base.high, base.lam
        self.grades, self.drops = base.grades, base.drops

    def act_basis(self, key, b):
        return self.col if (key, b) == (self.key, self.b) else self.base.act_basis(key, b)


def test_a_changed_levi_column_misses_the_kept_peel():
    # a base of the same family and dim whose first Levi x_j kills one more
    # basis vector gets its own entry, with fewer live columns, and its own
    # vectors: a hit on the first entry would give the first module's
    alg = ChevalleyAlgebra(RootSystem("A", 2))
    mod = build_parabolic_baby_verma(alg, _chi(alg, 13, (1,)), (0, 10))
    want = maximal_vectors(mod)
    x2 = ("x", alg.rs.simple(2))
    b = next(b for b in range(mod.levi.dim) if mod.levi.act_basis(x2, b))
    changed = modules.InducedModule(alg, mod.chi, mod.order, _OneColumnChanged(mod.levi, x2, b, {}))
    got = maximal_vectors(changed)
    first, second = alg.levi_peels.values()
    assert len(second) < len(first) and got != want
    assert got == maximal_vectors_per_class(changed)
    again = build_parabolic_baby_verma(alg, _chi(alg, 13, (1,)), (0, 10))
    assert maximal_vectors(again) == maximal_vectors(mod) and len(alg.levi_peels) == 2


@pytest.mark.parametrize(
    "typ, rank, p, I, lams",
    [("A", 3, 7, (1,), [(0, 1, 2), (1, 1, 2)]), ("A", 2, 13, (1,), [(0, 10), (1, 10)])],
)
def test_a_kept_peel_makes_no_x_table(monkeypatch, typ, rank, p, I, lams):
    # a second row over the same head reads every x_i joined per column, at
    # the kept L0 alone, each column once, and makes no x table
    alg = ChevalleyAlgebra(RootSystem(typ, rank))
    first = build_parabolic_baby_verma(alg, _chi(alg, p, I), lams[0])
    maximal_vectors(first)
    ((kept,),) = [alg.levi_peels.values()]
    assert 0 < len(kept) < first.dim
    reads = {}
    join = modules.InducedModule._join

    def spy_join(self, key):
        cols = join(self, key)

        def logged(ranks, ls):
            reads.setdefault(key, []).extend(r * self.levi.dim + l for r in ranks for l in ls)
            return cols(ranks, ls)

        return logged

    monkeypatch.setattr(modules.InducedModule, "_join", spy_join)
    mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lams[1])
    assert _levi_part(mod) == _levi_part(first) and mod.levi.dim > 1
    got = maximal_vectors(mod)
    assert [key for key in mod._cols if key[0] == "x"] == []
    assert sorted(reads) == sorted(("x", alg.rs.simple(i)) for i in range(1, rank + 1))
    assert all(cols == list(kept) for cols in reads.values())
    assert got == maximal_vectors_per_class(mod) and len(alg.levi_peels) == 1


@pytest.mark.parametrize(
    "typ, rank, flip, p, I, lam",
    LEVI_HEAD_CASES,
    ids=[
        "%s%d%s-p%d-I%s-lam%s" % (t, n, "-flip" * f, p, "".join(map(str, I)), "".join(map(str, lam)))
        for t, n, f, p, I, lam in LEVI_HEAD_CASES
    ],
)
def test_levi_rows_match_the_per_index_packer(typ, rank, flip, p, I, lam):
    # the packed rows of every Levi key and slot x_i, grouped in one pass,
    # byte for byte against one pass over the probe's columns per index
    alg = ChevalleyAlgebra(RootSystem(typ, rank), sign_flip=flip)
    mod = build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
    for key in _levi_keys(mod) + _slot_x_keys(mod):
        got, want = mod._levi_rows(key), levi_rows_per_index(mod, key)
        assert [pk for pk, *_ in got] == [pk for pk, *_ in want], key
        for (_, *arrays), (_, *oracle) in zip(got, want):
            assert [(a.typecode, a.tobytes()) for a in arrays] == [
                (a.typecode, a.tobytes()) for a in oracle
            ], key


# ---- representation checks on one memoised column kernel ----


def _check_outcomes(mod):
    # (commutators, Frobenius) outcomes, True or the AssertionError
    # message, of the column kernel and of the step-by-step oracles
    out = []
    for checks in ((verify_commutators, verify_frobenius),
                   (verify_commutators_by_apply, verify_frobenius_by_apply)):
        row = []
        for check in checks:
            try:
                row.append(check(mod))
            except AssertionError as err:
                row.append(str(err))
        out.append(row)
    return out


def test_verify_checks_match_the_oracles():
    # the 209 Borel modules of the differential set are g-modules and
    # pass; its 7 Levi Verma modules are modules of the Levi alone, so
    # both sides fail there on the same triple.  A head, a quotient,
    # the adjoint modules, B2 p=13 I={2} lam=(0,0), dim 2197, where both
    # checks sample, and two modules with chi(y) = 3 and 2, whose y chains
    # carry a coefficient other than 1 to the end, pass
    passed = failed = 0
    for mod in _differential_set():
        new, old = _check_outcomes(mod)
        assert new == old, (mod.lam, mod.active, new, old)
        if len(mod.active) == mod.rs.n:
            assert new == [True, True]
            passed += 1
        else:
            assert new[0].startswith("commutator mismatch")
            failed += 1
    assert (passed, failed) == (209, 7)
    hd = head(build_baby_verma(A2, PChar(3, []), (1, 0)))
    q = head(build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1)))
    assert isinstance(hd, HeadModule) and isinstance(q, QuotientModule)
    big = build_parabolic_baby_verma(B2, _chi(B2, 13, (2,)), (0, 0))
    assert big.dim == 2197 > modules.SAMPLE_LIMIT > modules.EXHAUSTIVE_LIMIT
    others = [AdjointModule(alg, p) for alg in (A2, B2) for p in (13, 5)] + [
        build_baby_verma(A1, PChar(5, [1], {1: 3}), (3,)),
        build_parabolic_baby_verma(A2, _chi(A2, 5, (1,), {1: 2}), (0, 1)),
    ]
    for mod in [hd, q, big] + others:
        assert _check_outcomes(mod) == [[True, True]] * 2


def _faulty(mod, key, b, col):
    # mod with column b of key replaced by col, through act_basis
    act = mod.act_basis

    def wrong(k, c):
        return col if (k, c) == (key, b) else act(k, c)

    mod.act_basis = wrong
    return mod


def test_verify_checks_fail_as_the_oracles_on_a_wrong_column():
    # one corrupted column at a time on A2 p=5 I={1} lam=(0,1), dim 50,
    # where both checks are exhaustive: both sides return or raise alike.
    # Every table is made first, so only the checks read the fault
    def fresh():
        mod = build_parabolic_baby_verma(A2, _chi(A2, 5, (1,)), (0, 1))
        for key in A2.basis:
            mod.op_matrix(key)
        return mod

    mod = fresh()
    x, y, h = ("x", A2.rs.simple(1)), ("y", A2.rs.simple(1)), ("h", 1)
    xy = ("x", (1, 1))
    assert mod.chi.at_root(y[1]) == 1 and len(mod.act_basis(y, 7)) == 1
    b = next(b for b in range(mod.dim) if mod.act_basis(h, b))
    d = mod.act_basis(h, b)[b]
    bx = next(b for b in range(mod.dim) if mod.act_basis(xy, b))
    ((i, c), *rest) = mod.act_basis(xy, bx).items()
    faults = [
        (x, 7, {7: 1}),  # x_alpha fixes e_7: its chain never dies
        (y, 7, {}),  # at chi(y_alpha) = 1 the y chain dies before p steps
        (h, b, {b: d, (b + 1) % mod.dim: 1}),  # not diagonal
        (h, b, {b: d % 5 + 1}),  # diagonal, wrong value
        (xy, bx, dict([(i, c % 5 + 1), *rest])),  # a bracket key's entry
    ]
    outcomes = []
    for fault in faults:
        new, old = _check_outcomes(_faulty(fresh(), *fault))
        assert new == old, fault
        assert new != [True, True], fault
        outcomes.append(new)
    # a diagonal h column with any value mod p satisfies h^p = h
    assert outcomes[3][1] is True


def test_sampled_commutators_check_a_with_itself(monkeypatch):
    # dim 2197 samples triples, some with a == b: a bracket table that
    # gives [a, a] = h_1 must fail there, on both sides, at the same triple
    alg = ChevalleyAlgebra(RootSystem("B", 2))
    mod = build_parabolic_baby_verma(alg, _chi(alg, 13, (2,)), (0, 0))
    assert mod.dim > modules.EXHAUSTIVE_LIMIT
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket", lambda a, b: {("h", 1): 1} if a == b else bracket(a, b))
    msgs = []
    for check in (verify_commutators, verify_commutators_by_apply):
        with pytest.raises(AssertionError, match="commutator mismatch") as err:
            check(mod)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1]
    a, b = ast.literal_eval(msgs[0][len("commutator mismatch at "):msgs[0].index(" on basis")])
    assert a == b


def _key_kind(mod, key):
    if key[0] == "h":
        return "h"
    if key[1] not in mod.slot:
        return "Levi " + key[0]
    return "slot %s, base dim %s" % (key[0], 1 if mod.levi.dim == 1 else "> 1")


def test_act_basis_reads_the_same_columns_from_a_made_table():
    # act_basis reads a made table first; every kind of key gives the
    # same column before op_matrix makes its table and after
    mods = _differential_set() + [
        build_parabolic_baby_verma(alg, _chi(alg, p, I), lam)
        for alg, p, I, lam in [
            (B2, 5, (2,), (1, 1)), (ChevalleyAlgebra(RootSystem("A", 3)), 5, (1,), (0, 1, 3))
        ]
    ]
    kinds = set()
    for mod in mods:
        for key in mod.alg.basis:
            before = [mod.act_basis(key, b) for b in range(mod.dim)]
            table = mod.op_matrix(key)
            assert mod._cols[key] is table
            assert [mod.act_basis(key, b) for b in range(mod.dim)] == before, key
            kinds.add(_key_kind(mod, key))
    assert kinds == {
        "h", "Levi x", "Levi y", "slot x, base dim 1", "slot x, base dim > 1",
        "slot y, base dim 1", "slot y, base dim > 1",
    }
