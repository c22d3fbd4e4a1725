"""Family sweeps and subregular orbit blocks."""

import csv
import json
import multiprocessing
import os
import random
from concurrent.futures import Future

import pytest

from babyverma import campaigns
from babyverma.campaigns import (
    CSV_COLUMNS,
    analyze_weight,
    is_prime,
    negative_controls,
    subregular_block_a,
    subregular_block_b,
    verify_main_theorem,
    write_csv,
    write_json,
)
from babyverma.roots import RootSystem


def _next_prime(k):
    while not is_prime(k):
        k += 1
    return k


def test_main_theorem_rank_two():
    rep = verify_main_theorem("A", 2, 5, (1,))
    assert rep["passed"] and not rep["vacuous"]
    assert rep["counts"] == {"irreducible": 6, "reducible": 0, "skipped": 0}
    got = {r["lambda"]: r["dim"] for r in rep["rows"]}
    assert got == {
        "0,0": 25,
        "0,1": 50,
        "0,2": 75,
        "1,0": 25,
        "1,1": 50,
        "2,0": 25,
    }


def test_main_theorem_rows_keep_weight_order(monkeypatch):
    # at p = 13 the alcove has two-digit coordinates, so "0,10" must
    # still follow "0,9" as in regular_alcove_weights
    def stub(typ, rank, p, I, lam, *caps):
        return dict(campaigns._row(typ, rank, p, I, lam), verdict="irreducible")

    monkeypatch.setattr(campaigns, "analyze_weight", stub)
    rep = verify_main_theorem("A", 2, 13, (1,), workers=1)
    want = RootSystem("A", 2).regular_alcove_weights(13)
    assert [r["lambda"] for r in rep["rows"]] == [",".join(map(str, w)) for w in want]


def test_main_theorem_rank_two_type_b():
    rep = verify_main_theorem("B", 2, 5, (2,))
    assert rep["passed"] and not rep["vacuous"]
    rows = {r["lambda"]: (r["dim"], r["verdict"]) for r in rep["rows"]}
    assert rows == {"0,0": (125, "irreducible"), "0,1": (125, "irreducible")}


@pytest.mark.parametrize(
    "typ,rank,I",
    [("A", 3, (1, 2)), ("C", 3, (1,)), ("D", 4, (2, 3, 4))],
)
def test_main_theorem_vacuous_below_coxeter(typ, rank, I):
    rep = verify_main_theorem(typ, rank, 3, I)
    assert rep["vacuous"]
    assert rep["passed"]
    assert rep["total"] == 0
    # there really are no candidate weights at p = 3
    assert RootSystem(typ, rank).regular_alcove_weights(3) == []


def test_main_theorem_worker_pool_matches_serial():
    serial = verify_main_theorem("A", 2, 5, (1,))
    pooled = verify_main_theorem("A", 2, 5, (1,), workers=2)
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "millis"} for r in rows
    ]
    assert strip(serial["rows"]) == strip(pooled["rows"])


def test_main_theorem_forks_at_most_one_worker_per_row(monkeypatch):
    # a fork pool starts all max_workers processes on the first submit;
    # an in-process stand-in records the count and starts none
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(campaigns, "ProcessPoolExecutor", InProcessPool)
    pooled = verify_main_theorem("A", 2, 5, (1,), workers=50)
    serial = verify_main_theorem("A", 2, 5, (1,))
    assert seen == [6]
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "millis"} for r in rows
    ]
    assert strip(serial["rows"]) == strip(pooled["rows"])


def test_main_theorem_records_error_row(monkeypatch):
    from babyverma import campaigns

    decide = campaigns.is_irreducible

    def flaky(mod, *args, **kwargs):
        if mod.lam == (1, 1):
            raise RuntimeError("boom")
        return decide(mod, *args, **kwargs)

    monkeypatch.setattr(campaigns, "is_irreducible", flaky)
    rep = verify_main_theorem("A", 2, 5, (1,))
    assert not rep["passed"]
    assert rep["counts"] == {"irreducible": 5, "reducible": 0, "skipped": 0, "error": 1}
    (bad,) = [r for r in rep["rows"] if r["verdict"] == "error"]
    assert bad["lambda"] == "1,1" and bad["dim"] == ""
    assert bad["error"] == "RuntimeError: boom"
    assert "RuntimeError: boom" in bad["traceback"]


@pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="the patched decision reaches the workers only through fork",
)
def test_main_theorem_survives_a_dead_worker(monkeypatch):
    # one worker dies as if killed by the OOM killer: the rows it and the
    # queue held become error rows naming the dead worker, the rows
    # already returned stay, and the campaign fails
    decide = campaigns.is_irreducible

    def dying(mod, *args, **kwargs):
        if mod.lam == (1, 1):
            os._exit(9)
        return decide(mod, *args, **kwargs)

    monkeypatch.setattr(campaigns, "is_irreducible", dying)
    rep = verify_main_theorem("A", 2, 5, (1,), workers=2)
    assert not rep["passed"] and rep["total"] == 6
    want = RootSystem("A", 2).regular_alcove_weights(5)
    assert [r["lambda"] for r in rep["rows"]] == [",".join(map(str, w)) for w in want]
    bad = [r for r in rep["rows"] if r["verdict"] == "error"]
    assert "1,1" in [r["lambda"] for r in bad]
    for r in bad:
        assert r["dim"] == "" and r["error"].startswith("BrokenProcessPool: ")
        assert "worker process died" in r["error"]
        assert "BrokenProcessPool" in r["traceback"]
    for r in rep["rows"]:
        assert r in bad or r["verdict"] == "irreducible"
    assert rep["counts"]["error"] == len(bad)


def test_sweep_validation_errors():
    with pytest.raises(ValueError):
        verify_main_theorem("A", 2, 4, (1,))
    with pytest.raises(ValueError):
        verify_main_theorem("A", 2, 3, (1,))  # p divides rank+1
    with pytest.raises(ValueError):
        verify_main_theorem("B", 2, 2, (2,))
    with pytest.raises(ValueError):
        verify_main_theorem("B", 3, 5, (2,))  # not a suffix shape
    with pytest.raises(ValueError):
        verify_main_theorem("A", 2, 5, (5,))


def test_analyze_weight_row_shape():
    row = analyze_weight("A", 2, 5, (1,), (0, 1))
    assert set(CSV_COLUMNS) <= set(row)
    assert row["verdict"] == "irreducible"
    assert row["dim"] == 50
    row = analyze_weight("A", 2, 5, (1,), (0, 1), cap=10)
    assert row["verdict"] == "skipped"
    assert row["dim"] == ""


def test_subregular_block_a_small():
    rep = subregular_block_a(5, (1, 2))
    assert rep["passed"] and rep["sum_ok"]
    rows = rep["rows"]
    assert [r["lambda_plus_rho"] for r in rows] == [[1, 2], [-3, 1], [2, -3]]
    assert [r["dim"] for r in rows] == [50, 25, 50]
    assert all(r["verdict"] == "irreducible" for r in rows)
    assert rep["dim_sum"] == 125


@pytest.mark.parametrize(
    "block,key", [(subregular_block_a, "lambda"), (subregular_block_b, "lambda_primed")]
)
def test_subregular_records_error_row(monkeypatch, block, key):
    want = [r for r in block(5, (1, 2))["rows"] if not r.get("skipped")]
    decide = campaigns.is_irreducible

    def flaky(mod, *args, **kwargs):
        if list(mod.lam) == want[1][key]:
            raise RuntimeError("boom")
        return decide(mod, *args, **kwargs)

    monkeypatch.setattr(campaigns, "is_irreducible", flaky)
    rep = block(5, (1, 2))
    assert not rep["passed"]
    rows = [r for r in rep["rows"] if not r.get("skipped")]
    bad = rows.pop(1)
    assert bad["verdict"] == "error" and bad["dim"] == "" and not bad["ok"]
    assert bad["error"] == "RuntimeError: boom"
    assert "RuntimeError: boom" in bad["traceback"]
    del want[1]
    assert [(r["dim"], r["verdict"]) for r in rows] == [
        (r["dim"], "irreducible") for r in want
    ]


def test_subregular_cap_hit_is_a_skipped_row():
    rep = subregular_block_a(5, (1, 2), cap=30)
    rows = rep["rows"]
    assert [r["verdict"] for r in rows] == ["skipped", "irreducible", "skipped"]
    assert rows[1]["dim"] == 25
    assert not rep["sum_ok"] and not rep["passed"]


def test_subregular_block_a_closed_forms_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        r = tuple(rng.randint(1, 3) for _ in range(n))
        p = _next_prime(sum(r) + 1 + rng.randint(0, 5))
        while (n + 1) % p == 0:
            p = _next_prime(p + 1)
        rep = subregular_block_a(p, r, build=False)
        assert rep["passed"] and rep["sum_ok"], (n, r, p)
        assert rep["dim_sum_expected"] == p ** len(RootSystem("A", n).roots)


def test_subregular_block_b_small():
    rep = subregular_block_b(5, (1, 2))
    assert rep["passed"]
    built = [r for r in rep["rows"] if not r.get("skipped")]
    skipped = [r for r in rep["rows"] if r.get("skipped")]
    assert [r["i"] for r in built] == [1, 3]
    assert [r["dim"] for r in built] == [125, 125]
    assert [r["first_component"] for r in built] == [1, 1]
    assert [r["i"] for r in skipped] == [2, 4]


def test_subregular_block_b_closed_forms_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        r = tuple(rng.randint(1, 3) for _ in range(n))
        bound = 2 * sum(r[: n - 1]) + r[n - 1]
        p = _next_prime(max(3, bound + 1 + rng.randint(0, 5)))
        rep = subregular_block_b(p, r, build=False)
        assert rep["passed"], (n, r, p)


def test_subregular_block_b_frozen_rank_three():
    rep = subregular_block_b(17, (2, 3, 5), build=False)
    assert rep["passed"]
    by_i = {r["i"]: r for r in rep["rows"]}
    assert by_i[3]["skipped"] and by_i[6]["skipped"]
    assert by_i[6]["lambda_plus_rho"] == [-13, 3, 5]
    assert by_i[5]["lambda_primed_plus_rho"] == [2, -10, 5]
    firsts = [by_i[i]["first_component"] for i in (1, 2, 4, 5)]
    assert firsts == [2, 3, 3, 2]


def test_subregular_block_b_frozen_rank_four():
    rep = subregular_block_b(29, (2, 3, 5, 7), build=False)
    assert rep["passed"]
    by_i = {r["i"]: r for r in rep["rows"]}
    assert by_i[4]["skipped"] and by_i[8]["skipped"]
    assert by_i[8]["lambda_plus_rho"] == [-25, 3, 5, 7]
    assert by_i[2]["lambda_primed_plus_rho"] == [3, -5, 10, 7]
    assert by_i[7]["lambda_primed_plus_rho"] == [2, -22, 5, 7]
    firsts = [by_i[i]["first_component"] for i in (1, 2, 3, 5, 6, 7)]
    assert firsts == [2, 3, 5, 5, 3, 2]


def test_subregular_validation():
    with pytest.raises(ValueError):
        subregular_block_a(5, (1, 2, 3))  # sum too large
    with pytest.raises(ValueError):
        subregular_block_a(5, (0, 2))
    with pytest.raises(ValueError):
        subregular_block_a(5, (3,))  # rank too small
    with pytest.raises(ValueError):
        subregular_block_b(5, (2, 2))  # interior condition fails
    with pytest.raises(ValueError):
        subregular_block_b(4, (1, 1))


def test_negative_controls():
    rep = negative_controls()
    assert rep["passed"]
    cases = {r["case"]: r for r in rep["rows"]}
    assert not cases["A2 p3 chi=0 lam=0,0"]["got"]
    assert cases["A2 p3 chi=0 lam=2,2"]["got"]
    assert len(rep["rows"]) == 12


def test_csv_and_json_writers(tmp_path):
    rep = verify_main_theorem("A", 2, 5, (1,))
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "report.json"
    write_csv(rep["rows"], str(csv_path))
    write_json(rep, str(json_path))
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert rows[0]["lambda"] == "0,0"
    assert rows[2]["dim"] == "75"
    assert set(rows[0]) == set(CSV_COLUMNS)
    with open(json_path) as fh:
        back = json.load(fh)
    assert back["passed"] is True
    assert back["counts"]["irreducible"] == 6
