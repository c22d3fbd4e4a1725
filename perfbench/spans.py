"""Span recorder for the traced run.

The tracer rebinds babyverma's public functions from the benchmark
process, so the package itself carries no instrumentation.  Each wrapped
call records a span (name, start, end, parent, item) in memory, and
counters are taken from the call's arguments and result at the same
boundary.  A layer's self time is its spans' duration minus the time
covered by their child spans.
"""

import functools
import json
import time
import weakref
from collections import Counter

# (module, attribute, span).  Every module that imported a name gets
# its binding rebound, because calls resolve the name in the caller's
# module.
WRAPS = [
    ("fplin", "span_closure", "fplin.closure"),
    ("modules", "span_closure", "fplin.closure"),
    ("campaigns", "span_closure", "fplin.closure"),
    ("modules", "ModuleBase.op_matrix", "pbw.tables"),
    ("modules", "ModuleBase.weight_classes", "modules.weight_classes"),
    ("modules", "maximal_vectors", "modules.maximal_vectors"),
    ("modules", "build_levi_simple", "modules.levi_head"),
    ("modules", "radical", "modules.radical"),
    ("modules", "build_baby_verma", "modules.build"),
    ("modules", "build_parabolic_baby_verma", "modules.build"),
    ("campaigns", "build_parabolic_baby_verma", "modules.build"),
    ("campaigns", "is_irreducible", "modules.is_irreducible"),
    ("modules", "verify_commutators", "modules.verify"),
    ("modules", "verify_frobenius", "modules.verify"),
    ("campaigns", "analyze_weight", "campaigns.row"),
]

ROOT_SPAN = "bench.item"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, item key]
        self.stack = []
        self.counts = Counter()
        self.item = None
        self._undo = []
        # per module: the operator keys and classes already counted, so
        # a memoised table is counted once however often it is fetched
        self._seen = weakref.WeakKeyDictionary()
        self._t0 = time.perf_counter()

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def in_closure(self):
        return bool(self.stack) and self.spans[self.stack[-1]][0] == "fplin.closure"

    def _first(self, mod, key):
        seen = self._seen.setdefault(mod, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr, name, count):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(args, kwargs, out)
            return out

        self._rebind(owner, attr, wrapped)

    def install(self, bv):
        """Rebind every target in WRAPS.  A missing target raises
        AttributeError: the benchmark then no longer matches the API."""
        counters = {
            "fplin.closure": self._count_closure,
            "pbw.tables": self._count_table,
            "modules.weight_classes": self._count_classes,
            "modules.maximal_vectors": self._count_kernel,
            "modules.levi_head": self._count_calls("modules.levi_head_calls"),
            "modules.radical": self._count_radical,
            "modules.is_irreducible": self._count_lines,
            "modules.verify": self._count_calls("modules.verify_calls"),
            "campaigns.row": self._count_calls("campaigns.rows"),
        }
        for modname, path, name in WRAPS:
            owner = getattr(bv, modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name, counters.get(name))
        self._rebind(bv.fplin, "Echelon", self._counting_echelon(bv.fplin.Echelon))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- counters ----

    def _counting_echelon(self, base):
        tracer = self

        class CountingEchelon(base):
            """Counts inserts made inside span_closure."""

            def __init__(self, p):
                super().__init__(p)
                self._count = tracer.in_closure()

            def insert(self, vec):
                row = super().insert(vec)
                if self._count:
                    tracer.counts["fplin.echelon_inserts"] += 1
                    if row is not None:
                        tracer.counts["fplin.rank_inserts"] += 1
                return row

        return CountingEchelon

    def _count_calls(self, counter):
        def count(args, kwargs, out):
            self.counts[counter] += 1

        return count

    def _count_closure(self, args, kwargs, out):
        rank = out.rank()
        dim = kwargs.get("dim", args[3] if len(args) > 3 else None)
        self.counts["fplin.closure_calls"] += 1
        self.counts["fplin.closure_rank"] += rank
        if dim is not None and rank >= dim:
            self.counts["fplin.closure_full"] += 1

    def _count_table(self, args, kwargs, out):
        mod, key = args[0], args[1]
        self.counts["pbw.tables_calls"] += 1
        if self._first(mod, key):
            self.counts["pbw.table_nnz"] += sum(len(col) for col in out.values())

    def _count_classes(self, args, kwargs, out):
        if self._first(args[0], "weight_classes"):
            self.counts["modules.classes"] += sum(len(g) for g in out.values())

    def _count_kernel(self, args, kwargs, out):
        self.counts["modules.kernel_vectors"] += sum(len(v) for v in out.values())

    def _count_radical(self, args, kwargs, out):
        self.counts["modules.radical_rank"] += out.rank()

    def _count_lines(self, args, kwargs, out):
        self.counts["modules.lines_checked"] += out.lines_checked

    # ---- results ----

    def self_times(self):
        """Span name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path):
        """Spans as JSON lines, times in seconds from tracer creation."""
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                row = [name, start - self._t0, end - self._t0, parent, item]
                fh.write(json.dumps(row) + "\n")
