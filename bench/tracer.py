"""Span and call-count tracing from outside the library.

The tracer replaces public functions of the zinbiel modules by wrappers,
wherever a module holds them: the defining module, and every module that
imported the name with `from .x import name`.  Methods are replaced on
their class.  A span wrapper records (name, start, end, parent) in memory;
a count wrapper, for kernels called far more than 10^5 times per request
set, only counts calls.  `uninstall` puts every original back.

A span's self time is its duration minus the time its direct child spans
cover.  Calls run on one thread and children nest inside their parent, so
the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path) of every traced public function.
SPAN_TARGETS = (
    ("exactlin", "rref"),
    ("exactlin", "nullspace"),
    ("exactlin", "poly_expand_quadratic"),
    ("exactlin", "inverse"),
    ("core", "condition_over_tuples"),
    ("core", "is_zinbiel"),
    ("extending", "verify_datum"),
    ("extending", "build_unified"),
    ("extending", "extract_datum"),
    ("extending", "datums_equivalent"),
    ("products", "crossed"),
    ("products", "bicrossed"),
    ("products", "is_bimodule"),
    ("products", "semidirect"),
    ("products", "search_deformation_maps"),
    ("flag", "solve_reduced"),
    ("flag", "verify_flag"),
    ("flag", "flag_equivalent"),
    ("catalog", "get_flag_datum"),
    ("jsonio", "datum_from_json"),
    ("jsonio", "algebra_from_json"),
    ("jsonio", "report_to_json"),
    ("jsonio", "family_to_json"),
    ("jsonio", "dumps"),
    ("cli", "run"),
)

COUNT_TARGETS = (
    ("exactlin", "Tensor3.combine"),
    ("exactlin", "vunit"),
    ("exactlin", "Matrix.apply"),
    ("products", "is_deformation_map"),
    ("catalog", "get_base_algebra"),
)

PACKAGE = "zinbiel"


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        """Open a span; returns its index for `end`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent))
        self._stack.append(idx)
        return idx

    def end(self, idx):
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _condition_wrapper(self, name, fn):
        # condition_over_tuples also counts lhs evaluations (basis tuples
        # visited) and failed conditions.
        counts = self.counts
        tuples = name + ".tuples"

        def traced(label, arity_dims, lhs, rhs):
            def counted_lhs(*t):
                counts[tuples] += 1
                return lhs(*t)
            idx = self.begin(name)
            try:
                result = fn(label, arity_dims, counted_lhs, rhs)
            finally:
                self.end(idx)
            if not result.passed:
                counts[name + ".failed"] += 1
            return result
        return traced

    def _rref_wrapper(self, name, fn):
        counts = self.counts
        traced = self._span_wrapper(name, fn)

        def sized(m):
            counts[name + ".cells"] += m.rows * m.cols
            return traced(m)
        return sized

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _patch_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, path in SPAN_TARGETS + COUNT_TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{path}"
            is_span = (mod_name, path) in SPAN_TARGETS
            if path == "condition_over_tuples":
                make = self._condition_wrapper
            elif path == "rref":
                make = self._rref_wrapper
            elif is_span:
                make = self._span_wrapper
            else:
                make = self._count_wrapper
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, make(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -----------------------------------------------------------

    def child_time(self, lo=0):
        """Per span index from lo on: the summed duration of its direct
        children."""
        covered = {}
        for idx in range(lo, len(self.spans)):
            _, start, end, parent = self.spans[idx]
            if parent >= lo:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return covered

    def summary(self, lo=0):
        """{name: (calls, total_s, self_s)} over the spans from lo on."""
        covered = self.child_time(lo)
        out = {}
        for idx in range(lo, len(self.spans)):
            name, start, end, _ = self.spans[idx]
            dur = end - start
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, own + dur - covered.get(idx, 0.0))
        return out

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
