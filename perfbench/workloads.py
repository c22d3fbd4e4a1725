"""The benchmark's three workloads: which items each pool holds, which
public babyverma calls an item makes, what it observes, and how the
observation is checked.

Items call babyverma only through module attributes looked up at call
time (``bv.modules.radical`` and so on), so the tracer in spans.py can
rebind those attributes from outside the package.
"""

import importlib
import itertools
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

PACKAGE = "babyverma"
SUBMODULES = ("roots", "chevalley", "fplin", "pbw", "modules", "campaigns")
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Main-theorem sweeps: every p-regular weight in the lowest alcove.
# A3 p=7 I={1} brings Levi heads of dim up to 15; the rest keep most
# rows small, so the per-row closure cost dominates.
SWEEP = [
    ("A", 2, 13, (1,)),
    ("A", 2, 11, (1,)),
    ("B", 2, 7, (2,)),
    ("C", 2, 7, (1,)),
    ("A", 3, 7, (1,)),
    ("A", 3, 5, (1,)),
]

# Restricted baby Vermas Z_0(lam) at chi = 0, every restricted lam:
# most closures certify proper submodules and never reach full rank.
HEADS_CHI0 = [("A", 2, 7), ("B", 2, 5), ("C", 2, 5), ("A", 3, 3)]
# One parabolic reducible module, so the Levi-head path is in the pool.
HEADS_PARABOLIC = [("B", 2, 5, (2,), (1, 1))]

# Large parabolic modules, all below the 50 000 build cap.  A3 p=7
# I={1,2} with lam_3 = 2 would be dim 50 421 and raise CapExceeded.
TABLES = [
    ("A", 3, 7, (1, 2), (1, 1, 0)),
    ("A", 3, 7, (1, 2), (1, 1, 1)),
    ("B", 2, 13, (2,), (0, 0)),
    ("B", 2, 13, (2,), (1, 2)),
    ("B", 2, 13, (2,), (3, 5)),
    ("C", 3, 5, (1,), (0, 0, 0)),
    ("C", 3, 5, (1,), (0, 1, 0)),
]


def import_fresh():
    """Import babyverma from scratch, so that every set-up pays for the
    imports a user's process pays for."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(PACKAGE + "." + m) for m in SUBMODULES}
    )


def item_key(typ, rank, p, I, lam):
    return "%s%d p=%d I=%s lam=%s" % (
        typ,
        rank,
        p,
        ",".join(str(i) for i in I) or "-",
        ",".join(str(x) for x in lam),
    )


class Item:
    def __init__(self, typ, rank, p, I, lam, alg, chi):
        self.typ, self.rank, self.p = typ, rank, p
        self.I, self.lam = tuple(I), tuple(lam)
        self.key = item_key(typ, rank, p, I, lam)
        self.alg, self.chi = alg, chi
        self.levi = None
        self.expected = None


def _profile(blocks):
    """(weight, component) -> count, as sorted JSON lists."""
    return sorted([list(wt), list(kap), n] for (wt, kap), n in blocks.items())


def table_checksum(ops, p):
    """Order-independent checksum of column-form operators, so a build
    that fills the same matrices in another order agrees."""
    acc = 0
    for t, op in enumerate(ops):
        for col, vec in op.items():
            for row, val in vec.items():
                acc += ((t + 1) * 1000003 + col * 8191 + row * 131071 + 1) * (val % p)
    return acc % (2**61 - 1)


class Workload:
    """Set-up for one workload: the algebras and the item list, with
    the frozen expected values attached."""

    name = None

    def __init__(self, bv, frozen):
        self.bv = bv
        self.algebra_s = 0.0
        self._algs = {}
        self.items = self._pool()
        for item in self.items:
            item.expected = frozen.get(item.key)
        self.missing = sorted(set(frozen) - {item.key for item in self.items})

    def algebra(self, typ, rank):
        if (typ, rank) not in self._algs:
            t0 = time.perf_counter()
            rs = self.bv.roots.RootSystem(typ, rank)
            self._algs[typ, rank] = self.bv.chevalley.ChevalleyAlgebra(rs)
            self.algebra_s += time.perf_counter() - t0
        return self._algs[typ, rank]

    def check(self, item, obs):
        """Problems with one observation: frozen-value mismatches plus
        the workload's engine-independent anchors."""
        if item.expected is None:
            return ["no frozen expected value"]
        bad = [
            "%s: got %r, expected %r" % (k, obs.get(k), v)
            for k, v in sorted(item.expected.items())
            if obs.get(k) != v
        ]
        return bad + self.anchors(item, obs)

    def anchors(self, item, obs):
        return []


class Sweep(Workload):
    """Main-theorem campaign rows through campaigns.analyze_weight."""

    name = "sweep"

    def _pool(self):
        # analyze_weight builds each row's module and report itself; the
        # report is captured here so its profile can be checked.
        self.reports = []
        decide = self.bv.campaigns.is_irreducible

        def capture(mod, *args, **kwargs):
            rep = decide(mod, *args, **kwargs)
            self.reports.append(rep)
            return rep

        self.bv.campaigns.is_irreducible = capture
        items = []
        for typ, rank, p, I in SWEEP:
            rs = self.bv.campaigns.check_sweep_params(typ, rank, p, I)
            alg = self.algebra(typ, rank)
            for lam in rs.regular_alcove_weights(p):
                items.append(Item(typ, rank, p, I, lam, alg, None))
        return items

    def run(self, item, seed):
        del self.reports[:]
        row = self.bv.campaigns.analyze_weight(item.typ, item.rank, item.p, item.I, item.lam)
        return row, (self.reports[-1] if self.reports else None)

    def observe(self, item, raw):
        row, rep = raw
        return {
            "dim": row["dim"],
            "verdict": row["verdict"],
            "profile": None if rep is None else _profile(rep.profile),
        }

    def anchors(self, item, obs):
        # the paper's main theorem: every module in the sweep is simple
        if obs["verdict"] != "irreducible":
            return ["main theorem: verdict %r, expected irreducible" % obs["verdict"]]
        return []


class Heads(Workload):
    """radical/head of restricted baby Vermas and one parabolic module."""

    name = "heads"

    def _pool(self):
        items = []
        for typ, rank, p in HEADS_CHI0:
            alg = self.algebra(typ, rank)
            chi = self.bv.chevalley.PChar(p, ())
            for lam in itertools.product(range(p), repeat=rank):
                items.append(Item(typ, rank, p, (), lam, alg, chi))
        for typ, rank, p, I, lam in HEADS_PARABOLIC:
            alg = self.algebra(typ, rank)
            chi = self.bv.chevalley.make_pchar(alg, p, I)
            items.append(Item(typ, rank, p, I, lam, alg, chi))
        return items

    def run(self, item, seed):
        m = self.bv.modules
        build = m.build_parabolic_baby_verma if item.I else m.build_baby_verma
        mod = build(item.alg, item.chi, item.lam)
        return mod.dim, m.head(mod).dim

    def observe(self, item, raw):
        dim, head_dim = raw
        return {"dim": dim, "head_dim": head_dim, "radical_rank": dim - head_dim}

    def anchors(self, item, obs):
        if item.I:
            return []
        p, n = item.p, item.rank
        if item.lam == (0,) * n and obs["head_dim"] != 1:
            return ["head of Z_0(0) has dim %r, expected 1" % obs["head_dim"]]
        steinberg = p ** len(item.alg.rs.roots)
        if item.lam == (p - 1,) * n and obs["head_dim"] != steinberg:
            return ["Steinberg head has dim %r, expected %d" % (obs["head_dim"], steinberg)]
        return []


class Tables(Workload):
    """Operator tables, weight classes, maximal vectors and the
    representation checks of large parabolic modules.  The Levi heads
    are built during set-up, so no item runs a closure."""

    name = "tables"

    def _pool(self):
        items = []
        for typ, rank, p, I, lam in TABLES:
            alg = self.algebra(typ, rank)
            chi = self.bv.chevalley.make_pchar(alg, p, I)
            item = Item(typ, rank, p, I, lam, alg, chi)
            item.levi = self.bv.modules.build_levi_simple(alg, p, I, lam)
            items.append(item)
        return items

    def run(self, item, seed):
        # a generator: the runner samples the host speed at each yield,
        # because one item takes seconds
        m = self.bv.modules
        mod = m.build_parabolic_baby_verma(item.alg, item.chi, item.lam, levi=item.levi)
        ops = mod.xy_ops()
        yield
        classes = mod.weight_classes()
        mv = m.maximal_vectors(mod)
        yield
        ok = m.verify_commutators(mod, seed=seed)
        yield
        ok = m.verify_frobenius(mod, seed=seed) and ok
        return mod.dim, ops, classes, mv, ok

    def observe(self, item, raw):
        dim, ops, classes, mv, ok = raw
        return {
            "dim": dim,
            "table_nnz": sum(1 for op in ops for vec in op.values() for v in vec.values() if v % item.p),
            "table_checksum": table_checksum(ops, item.p),
            "classes": sum(len(groups) for groups in classes.values()),
            "profile": _profile({k: len(v) for k, v in mv.items()}),
            "verified": bool(ok),
        }


WORKLOADS = {w.name: w for w in (Sweep, Heads, Tables)}


def load_frozen(name):
    with open(EXPECTED) as fh:
        return json.load(fh)["items"][name]


def setup(name, frozen=None):
    """One full set-up: fresh imports, frozen values, algebras, item list."""
    bv = import_fresh()
    return WORKLOADS[name](bv, load_frozen(name) if frozen is None else frozen)
