"""Verification campaigns over whole families of weights.

verify_main_theorem sweeps every p-regular weight in the interior of
the first dominant alcove for an admissible Levi shape and requires
every induced module to be irreducible.  A sweep can be legitimately
empty: below the Coxeter number no such weight exists and the claim
holds vacuously; the report says so rather than hiding it.

The two block campaigns walk the subregular orbits: type A under the
Coxeter element with the last simple index parabolic, type B with the
first.  They check the closed-form orbit weights, the predicted
dimensions r_i * p^(N-1), the block dimension sum p^N (type A), and
the irreducibility of every built module.  Sweep rows and orbit rows
are built and decided by one row function, under the same caps.
"""

import csv
import functools
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .chevalley import ChevalleyAlgebra, make_pchar
from .fplin import span_closure
from .modules import (
    DIM_CAP,
    LINES_CAP,
    CapExceeded,
    build_parabolic_baby_verma,
    is_irreducible,
)
from .roots import RootSystem, shape_check

CSV_COLUMNS = [
    "type",
    "rank",
    "p",
    "I",
    "lambda",
    "dim",
    "verdict",
    "witness_dim",
    "millis",
]


@functools.lru_cache(maxsize=None)
def _algebra(typ, rank):
    return ChevalleyAlgebra(RootSystem(typ, rank))


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(typ, p):
    """Refuse p unless it is a good prime for the type: prime, and
    odd for types B, C and D, where 2 is a bad prime."""
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if typ != "A" and p == 2:
        raise ValueError("p = 2 is a bad prime: types B, C, D need p > 2")


def check_sweep_params(typ, rank, p, I):
    rs = RootSystem(typ, rank)
    check_prime(typ, p)
    if not shape_check(rs, I):
        raise ValueError("Levi shape %s is not admissible for %s%d" % (list(I), typ, rank))
    if typ == "A" and (rank + 1) % p == 0:
        raise ValueError("type A sweep needs p coprime to rank+1")
    return rs


def _row(typ, rank, p, I, lam):
    return {
        "type": typ,
        "rank": rank,
        "p": p,
        "I": ",".join(str(i) for i in sorted(I)),
        "lambda": ",".join(str(x) for x in lam),
        "dim": "",
        "verdict": "",
        "witness_dim": "",
        "millis": 0,
    }


def _decide(row, alg, chi, lam, cap, lines_cap):
    """Build the induced module at lam, decide it and fill row's dim,
    verdict, witness_dim and millis.  A cap hit makes the row skipped;
    any other exception makes it an error row, so that one failing row
    does not end the campaign but fails it."""
    t0 = time.monotonic()
    try:
        mod = build_parabolic_baby_verma(alg, chi, lam, cap=cap)
        row["dim"] = mod.dim
        rep = is_irreducible(mod, cap=lines_cap)
        if rep.irreducible:
            row["verdict"] = "irreducible"
        else:
            row["verdict"] = "reducible"
            row["witness_dim"] = span_closure(
                [rep.witness], mod.xy_ops(), mod.p, dim=mod.dim, grade=mod.grades()
            ).rank()
    except CapExceeded:
        row["verdict"] = "skipped"
    except Exception as exc:
        row.update(dim="", witness_dim="", verdict="error")
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
        row["traceback"] = traceback.format_exc()
    row["millis"] = int((time.monotonic() - t0) * 1000)
    return row


def analyze_weight(typ, rank, p, I, lam, cap=DIM_CAP, lines_cap=LINES_CAP):
    """One sweep row: build the induced module at lam and decide."""
    alg = _algebra(typ, rank)
    row = _row(typ, rank, p, I, lam)
    return _decide(row, alg, make_pchar(alg, p, I), lam, cap, lines_cap)


def _pooled_row(future, task):
    """The row a pool worker returned.  A worker that dies (killed by
    the OOM killer, say) breaks the pool: every row not yet returned
    becomes an error row, and the rows already returned are kept."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        row = _row(*task[:5])
        row["verdict"] = "error"
        row["error"] = (
            "BrokenProcessPool: a sweep worker process died while this row "
            "was running or queued"
        )
        row["traceback"] = "".join(traceback.format_exception(exc))
        return row


def verify_main_theorem(typ, rank, p, I, cap=DIM_CAP, lines_cap=LINES_CAP, workers=1):
    rs = check_sweep_params(typ, rank, p, I)
    I = tuple(sorted(set(I)))
    weights = rs.regular_alcove_weights(p)
    tasks = [(typ, rank, p, I, lam, cap, lines_cap) for lam in weights]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(analyze_weight, *t) for t in tasks]
            rows = [_pooled_row(f, t) for f, t in zip(futures, tasks)]
    else:
        rows = [analyze_weight(*t) for t in tasks]
    counts = {"irreducible": 0, "reducible": 0, "skipped": 0}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    return {
        "campaign": "main-theorem",
        "type": typ,
        "rank": rank,
        "p": p,
        "I": list(I),
        "rows": rows,
        "total": len(rows),
        "vacuous": not rows,
        "counts": counts,
        "passed": counts["reducible"] == 0 and "error" not in counts,
    }


def _pairings(r):
    """Validated alcove pairings of an orbit's base weight."""
    if len(r) < 2:
        raise ValueError("need rank at least 2")
    r = tuple(int(x) for x in r)
    if any(x < 1 for x in r):
        raise ValueError("entries of r must be positive")
    return r


def _orbit_row(fields, alg, chi, lam, expected_dim, build, cap, lines_cap):
    """One orbit row: fields, then, with build, the decided module at
    lam, which is ok when irreducible of dimension expected_dim.
    build=False leaves dim and verdict empty and the row ok."""
    row = dict(fields, expected_dim=expected_dim, dim="", verdict="", witness_dim="", millis=0)
    if build:
        _decide(row, alg, chi, lam, cap, lines_cap)
    row["ok"] = not build or (row["dim"], row["verdict"]) == (expected_dim, "irreducible")
    return row


def subregular_block_a(p, r, cap=DIM_CAP, lines_cap=LINES_CAP, build=True):
    """Orbit of the Coxeter element in type A_n with I = {1..n-1}.

    r lists the alcove pairings of the base weight: lam_0 + rho = r,
    all entries >= 1 with sum <= p-1.  With build=False only the orbit
    closed forms and predicted dimensions are checked, which keeps
    higher ranks affordable.
    """
    r = _pairings(r)
    n = len(r)
    if sum(r) > p - 1:
        raise ValueError("sum of r must be at most p-1")
    rs = check_sweep_params("A", n, p, tuple(range(1, n)))
    alg = _algebra("A", n)
    chi = make_pchar(alg, p, range(1, n))
    total = sum(r)
    npos = len(rs.roots)
    lam0 = tuple(x - 1 for x in r)
    rows = []
    dimsum = 0
    passed = True
    for i in range(n + 1):
        lam = rs.dot_action([j for j in range(1, n + 1)] * i, lam0)
        lam_rho = tuple(x + 1 for x in lam)
        if i == 0:
            expect_rho = r
        else:
            expect_rho = r[n - i + 1 :] + (-total,) + r[: n - i]
        head = r[n - i - 1] if i < n else p - total
        if lam_rho != expect_rho:
            raise AssertionError(
                "orbit weight %d: %r, expected %r" % (i, lam_rho, expect_rho)
            )
        expected_dim = head * p ** (npos - 1)
        fields = {"i": i, "lambda": list(lam), "lambda_plus_rho": list(lam_rho)}
        row = _orbit_row(fields, alg, chi, lam, expected_dim, build, cap, lines_cap)
        passed = passed and row["ok"]
        dimsum += (row["dim"] or 0) if build else expected_dim
        rows.append(row)
    sum_ok = dimsum == p**npos
    return {
        "campaign": "subregular-A",
        "type": "A",
        "rank": n,
        "p": p,
        "r": list(r),
        "rows": rows,
        "dim_sum": dimsum,
        "dim_sum_expected": p**npos,
        "sum_ok": sum_ok,
        "passed": passed and sum_ok,
    }


def subregular_block_b(p, r, cap=DIM_CAP, lines_cap=LINES_CAP, build=True):
    """Orbit rows in type B_n with I = {2..n}.

    r lists the alcove pairings of the base weight; the interior
    condition is 2(r_1+..+r_{n-1}) + r_n <= p-1.  Rows i = n and 2n
    carry no dimension claim and are skipped.  build=False checks the
    orbit closed forms only; ranks above 2 are too large to build.
    """
    r = _pairings(r)
    n = len(r)
    if 2 * sum(r[: n - 1]) + r[n - 1] > p - 1:
        raise ValueError("2(r_1+..+r_{n-1}) + r_n must be at most p-1")
    rs = check_sweep_params("B", n, p, tuple(range(2, n + 1)))
    alg = _algebra("B", n)
    chi = make_pchar(alg, p, range(2, n + 1))
    npos = len(rs.roots)
    lam1 = tuple(x - 1 for x in r)
    long_sum = r[0] + 2 * sum(r[1 : n - 1]) + r[n - 1]
    rows = []
    passed = True
    for i in range(1, 2 * n + 1):
        if i <= n:
            word = list(range(1, i))
        else:
            word = list(range(1, n + 1)) + list(range(n - 1, 2 * n - i, -1))
        lam = rs.dot_action(word, lam1)
        lam_rho = tuple(x + 1 for x in lam)
        # the generic second-row display needs coordinate 2 to sit on a
        # long root, so it only applies for n >= 3
        if i == 2 and n >= 3:
            expect = (-r[0], r[0] + r[1]) + r[2:]
            if lam_rho != expect:
                raise AssertionError("row 2: %r, expected %r" % (lam_rho, expect))
        if i == 2 * n:
            expect = (-long_sum,) + r[1:]
            if lam_rho != expect:
                raise AssertionError("row 2n: %r, expected %r" % (lam_rho, expect))
        if i in (n, 2 * n):
            rows.append(
                {
                    "i": i,
                    "lambda": list(lam),
                    "lambda_plus_rho": list(lam_rho),
                    "skipped": True,
                }
            )
            continue
        if i == 1:
            lam_p = lam
        elif i <= n - 1:
            lam_p = rs.dot_action(list(range(2, i + 1)), lam)
        else:
            lam_p = rs.dot_action(
                list(range(2, n + 1)) + list(range(n - 1, 2 * n - i, -1)), lam
            )
        first = lam_p[0] + 1
        expect_first = r[i - 1] if i <= n - 1 else r[2 * n - i - 1]
        if first != expect_first:
            raise AssertionError(
                "row %d first component %d, expected %d" % (i, first, expect_first)
            )
        expected_dim = expect_first * p ** (npos - 1)
        fields = {
            "i": i,
            "lambda": list(lam),
            "lambda_primed": list(lam_p),
            "lambda_primed_plus_rho": [x + 1 for x in lam_p],
            "first_component": first,
            "skipped": False,
        }
        row = _orbit_row(fields, alg, chi, lam_p, expected_dim, build, cap, lines_cap)
        passed = passed and row["ok"]
        rows.append(row)
    return {
        "campaign": "subregular-B",
        "type": "B",
        "rank": n,
        "p": p,
        "r": list(r),
        "rows": rows,
        "passed": passed,
    }


def negative_controls():
    """Known reducible and irreducible cases the decision procedure
    must reproduce: restricted rank-one modules are reducible except at
    the top weight, the rank-two restricted module at zero is
    reducible, its top restricted weight is not."""
    from .chevalley import PChar
    from .modules import build_baby_verma

    rows = []

    def record(name, expected, got):
        rows.append(
            {"case": name, "expected": expected, "got": got, "ok": expected == got}
        )

    alg1 = _algebra("A", 1)
    p = 5
    for lam in range(p):
        mod = build_baby_verma(alg1, PChar(p, []), (lam,))
        got = is_irreducible(mod).irreducible
        record("A1 p5 chi=0 lam=%d" % lam, lam == p - 1, got)
        mod = build_baby_verma(alg1, PChar(p, [1]), (lam,))
        got = is_irreducible(mod).irreducible
        record("A1 p5 chi!=0 lam=%d" % lam, True, got)
    alg2 = _algebra("A", 2)
    mod = build_baby_verma(alg2, PChar(3, []), (0, 0))
    record("A2 p3 chi=0 lam=0,0", False, is_irreducible(mod).irreducible)
    mod = build_baby_verma(alg2, PChar(3, []), (2, 2))
    record("A2 p3 chi=0 lam=2,2", True, is_irreducible(mod).irreducible)
    return {
        "campaign": "negative-controls",
        "rows": rows,
        "passed": all(r["ok"] for r in rows),
    }


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)


def write_json(report, path):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
