#!/usr/bin/env python3
"""Benchmark for babyverma, run from the root of a source checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads are sweep, heads and tables (see README.md); ``--workload
all`` runs the three one after another, each in its own process.  A
run sets the workload up several times (fresh imports each time) and
reports the median set-up time.  It then runs full passes over the
workload's pool, each in an order drawn from the seed, while another
pass still fits in ``--seconds`` (at least one).  Every item is checked
against the values frozen in expected.json.  Reported times are
rescaled by the host speed measured between items (hostspeed.py); the
times as measured are printed and kept in the result file.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and
one traced pass in the same order and reports the per-layer metrics and
the tracing overhead.  The exit code is 1 if any item failed, 2 if the
package cannot be found.
"""

import argparse
import gc
import hashlib
import inspect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("sweep", "heads", "tables")
SETUP_MIN_REPEATS = 9
SETUP_MIN_S = 1.0
P90_MIN_ITEMS = 100


def environment():
    """What identifies the code and the host at the start of a run."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "babyverma").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def item_steps(wl, item, seed):
    """An item's work as a generator.  A workload's run() may itself be
    a generator that yields between the steps of a long item."""
    out = wl.run(item, seed)
    if inspect.isgenerator(out):
        out = yield from out
    return out


def run_pass(wl, order, seed, speed, tracer=None):
    """Run the items once in the given order.  Returns item key ->
    (measured seconds, rescaled seconds, list of problems).  The host
    speed is sampled before each step, outside the timed region."""
    runs = []
    for item in order:
        gc.collect()
        if tracer is not None:
            tracer.item = item.key
        steps = item_steps(wl, item, seed)
        segments, raw, problems = [], None, None
        while raw is None and problems is None:
            before = speed.tick()
            if tracer is not None:
                root = tracer.begin("bench.item")
            t0 = time.perf_counter()
            try:
                next(steps)
            except StopIteration as stop:
                raw = stop.value
            except Exception as exc:  # any engine failure is a failed item
                problems = ["%s: %s" % (type(exc).__name__, exc)]
            segments.append((time.perf_counter() - t0, before))
            if tracer is not None:
                tracer.end(root)
        del steps
        if raw is not None:
            problems = wl.check(item, wl.observe(item, raw))
        del raw
        runs.append((item.key, segments, problems))
    speed.tick(force=True)
    return {
        key: (
            sum(dt for dt, _ in segments),
            sum(dt * speed.scale(b) for dt, b in segments),
            problems,
        )
        for key, segments, problems in runs
    }


def measure(name, seed, seconds, trace, pick=None):
    """One benchmark run in this process; returns the result dict.
    pick, if given, narrows the item list (used by the smoke test)."""
    speed = hostspeed.HostSpeed()
    setups, algebra_s = [], []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        before = speed.tick(force=True)
        t0 = time.perf_counter()
        wl = workloads.setup(name)
        setups.append((time.perf_counter() - t0, before))
        algebra_s.append(wl.algebra_s)
    speed.tick(force=True)
    setup_s = [dt * speed.scale(b) for dt, b in setups]
    items = wl.items if pick is None else pick(wl.items)
    rng = random.Random(seed)

    passes, tracer = [], None
    start = time.perf_counter()
    while True:
        order = rng.sample(items, len(items))
        passes.append(run_pass(wl, order, seed, speed))
        if trace:
            tracer = spans.Tracer()
            tracer.install(wl.bv)
            try:
                passes.append(run_pass(wl, order, seed, speed, tracer))
            finally:
                tracer.uninstall()
            break
        last = sum(dt for dt, _, _ in passes[-1].values())
        if time.perf_counter() - start + last > seconds:
            break

    failures = {
        key: problems
        for p in passes
        for key, (dt, _, problems) in p.items()
        if problems
    }
    failures.update({key: ["pool item not enumerated"] for key in wl.missing})
    attempted = sum(len(p) for p in passes) + len(wl.missing)
    failed = sum(1 for p in passes for _, _, problems in p.values() if problems)
    failed += len(wl.missing)

    walls = [sum(t for _, t, _ in p.values()) for p in passes]
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "items": len(items),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "setup_s_all": setup_s,
        "setup_s_measured": [dt for dt, _ in setups],
        "pass_wall_s": walls,
        "pass_wall_s_measured": [sum(dt for dt, _, _ in p.values()) for p in passes],
        "pass_items": [{k: t for k, (_, t, _) in p.items()} for p in passes],
        "host_kernel_s": speed.samples,
    }
    if trace:
        result["metrics"] = layer_metrics(tracer, statistics.median(algebra_s), walls)
        result["self_s"] = dict(tracer.self_times())
        result["tracer"] = tracer
        return result

    per_item = [
        statistics.median(p[item.key][1] for p in passes) for item in items
    ]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "item_s.p50": (statistics.median(per_item), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    result["metrics"] = metrics
    if len(items) >= P90_MIN_ITEMS:
        result["item_s.p90"] = statistics.quantiles(per_item, n=10, method="inclusive")[8]
    result["item_s"] = {item.key: t for item, t in zip(items, per_item)}
    return result


def layer_metrics(tracer, algebra_s, walls):
    """Per-layer metrics from the traced pass; walls are the untraced
    and the traced pass."""
    s = tracer.self_times()
    c = tracer.counts
    calls = c["fplin.closure_calls"]
    inserts = c["fplin.echelon_inserts"]
    modules_self = sum(v for k, v in s.items() if k.startswith("modules."))
    return {
        "fplin.closure_s": (float(s["fplin.closure"]), "s"),
        "fplin.closure_calls": (calls, "count"),
        "fplin.closure_rank": (c["fplin.closure_rank"], "count"),
        "fplin.closure_full_frac": (c["fplin.closure_full"] / calls if calls else 0.0, "frac"),
        "fplin.echelon_inserts": (inserts, "count"),
        "fplin.insert_yield": (c["fplin.rank_inserts"] / inserts if inserts else 0.0, "frac"),
        "pbw.tables_s": (float(s["pbw.tables"]), "s"),
        "pbw.tables_calls": (c["pbw.tables_calls"], "count"),
        "pbw.table_nnz": (c["pbw.table_nnz"], "count"),
        "modules.weight_classes_s": (float(s["modules.weight_classes"]), "s"),
        "modules.classes": (c["modules.classes"], "count"),
        "modules.maximal_vectors_s": (float(s["modules.maximal_vectors"]), "s"),
        "modules.kernel_vectors": (c["modules.kernel_vectors"], "count"),
        "modules.lines_checked": (c["modules.lines_checked"], "count"),
        "modules.levi_head_s": (float(s["modules.levi_head"]), "s"),
        "modules.levi_head_calls": (c["modules.levi_head_calls"], "count"),
        "modules.radical_s": (float(s["modules.radical"]), "s"),
        "modules.radical_rank": (c["modules.radical_rank"], "count"),
        "modules.verify_s": (float(s["modules.verify"]), "s"),
        "modules.self_s": (float(modules_self), "s"),
        "campaigns.rows": (c["campaigns.rows"], "count"),
        "campaigns.row_self_s": (float(s["campaigns.row"]), "s"),
        "chevalley.algebra_s": (algebra_s, "s"),
        "trace.overhead_frac": (walls[1] / walls[0] - 1.0, "frac"),
    }


def report(result, env):
    """Human-readable lines, then the result file; returns the last line."""
    name = result["workload"]
    print("babyverma benchmark: workload=%s seed=%d trace=%d" % (name, result["seed"], result["trace"]))
    print("env " + " ".join("%s=%s" % kv for kv in env.items()))
    print(
        "items %d, passes %d, attempted %d, failed %d, failed_frac %.4g (%d/%d)"
        % (result["items"], result["passes"], result["attempted"], result["failed"],
           result["failed_frac"], result["failed"], result["attempted"])
    )
    for key, problems in sorted(result["failures"].items()):
        print("FAILED %s: %s" % (key, "; ".join(problems)), file=sys.stderr)
    metrics = result["metrics"]
    for metric, (value, unit) in metrics.items():
        print("  %-28s %14.6g %s" % (metric, value, unit))
    if "item_s.p90" in result:
        print("  %-28s %14.6g %s" % ("item_s.p90", result["item_s.p90"], "s"))
    print(
        "times rescaled to a %.3g s host kernel (median here %.4g s); as measured: "
        "pass wall %s s, set-up median %.4g s"
        % (hostspeed.REF_S, statistics.median(result["host_kernel_s"]),
           ", ".join("%.4g" % w for w in result["pass_wall_s_measured"]),
           statistics.median(result["setup_s_measured"]))
    )
    if result["trace"]:
        traced = result["pass_wall_s_measured"][1]
        print("self time by span (share of the traced pass, %.4g s as measured):" % traced)
        for span, secs in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print("  %-28s %10.4f s %6.1f%%" % (span, secs, 100 * secs / traced))
        layers = {}
        for span, secs in result["self_s"].items():
            layer = span.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + secs
        print("self time by layer:")
        for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            print("  %-28s %10.4f s %6.1f%%" % (layer, secs, 100 * secs / traced))

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (name, result["seed"], result["trace"])
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / (stem + ".spans.jsonl"))
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(dict(result, env=env), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        worst = 0
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd).returncode)
        return worst

    if not (SRC / "babyverma" / "__init__.py").is_file():
        print("babyverma sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import babyverma

    if Path(babyverma.__file__).resolve().parent != SRC / "babyverma":
        print("imported babyverma from %s, not from %s" % (babyverma.__file__, SRC), file=sys.stderr)
        return 2
    env = environment()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(report(result, env), flush=True)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
