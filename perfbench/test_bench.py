"""Smoke check of the benchmark harness: the cheapest item of each
workload, untraced and traced, must pass its frozen check and report
exactly the metrics BENCHMARK.json lists.

    python3 -m pytest perfbench
"""

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

with open(run.ROOT / "BENCHMARK.json") as fh:
    CONTRACT = json.load(fh)


def cheapest(items):
    return [min(items, key=lambda item: item.expected["dim"])]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_cheapest_item(name, trace):
    result = run.measure(name, seed=1, seconds=0, trace=trace, pick=cheapest)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 1 + trace
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]][1] == m["unit"]
    if trace:
        counts = {k: v for k, (v, unit) in result["metrics"].items()}
        assert counts["pbw.tables_calls"] > 0
        if name == "tables":
            assert counts["fplin.closure_calls"] == 0
        else:
            assert counts["fplin.closure_calls"] > 0
        if name == "sweep":
            assert counts["campaigns.rows"] == 1


def test_workloads_match_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.NAMES)
