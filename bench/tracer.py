"""Per-layer tracing of margshift, done from outside the package.

Each stage wraps named functions.  ``from .tables import from_counts``
copies the name into the importing module, so a wrapper replaces the
function in every ``margshift`` module namespace that holds it, not only in
the module that defines it.  A wrapper records one span per call
(id, parent, stage, start, end) in memory; self time is a span's duration
minus the durations of its child spans.  A stage whose functions a later
change removes reports zero calls.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import re
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "margshift"

# (stage, module, function or Class.method)
STAGES = (
    ("cli.parse", "margshift.cli", "parse_table_csv"),
    ("tables.validate", "margshift.tables", "CountTable.__post_init__"),
    ("tables.from_counts", "margshift.tables", "from_counts"),
    ("tables.marginals", "margshift.tables", "marginals"),
    ("tables.hazards", "margshift.tables", "hazards"),
    ("measures.discordance", "margshift.measures", "discordance"),
    ("measures.phi", "margshift.measures", "phi"),
    ("measures.psi", "margshift.measures", "psi"),
    ("inference.gradient", "margshift.inference", "grad_phi"),
    ("inference.gradient", "margshift.inference", "_grad_psi"),
    ("inference.covariance", "margshift.inference", "multinomial_covariance"),
    ("inference.wald_ci", "margshift.inference", "wald_ci"),
    ("inference.bootstrap_ci", "margshift.inference", "bootstrap_ci"),
    ("simulate.sample_table", "margshift.simulate", "sample_table"),
    ("simulate.coverage_study", "margshift.simulate", "coverage_study"),
    ("mcor.scenario_table", "margshift.mcor", "scenario_table"),
)

# stages whose tracemalloc peak is measured by replaying one call per input size
MEMORY_STAGES = ("inference.wald_ci", "inference.bootstrap_ci")

_DEGENERATE_FLAG = re.compile(r"^(\d+) of \d+ bootstrap replicates degenerate")


class Tracer:
    """Installs span-recording wrappers around margshift's stages."""

    def __init__(self, stages=STAGES):
        self.stages = stages
        self.stage_names = tuple(dict.fromkeys(stage for stage, _, _ in stages))
        self.spans = []  # (id, parent id or 0, stage, start ns, end ns), in end order
        self.counters = Counter()
        self.memory_calls = {}  # (stage, r, replicates) -> (function, args, kwargs)
        self._patches = []  # (owner, attribute, original)

    def reset(self) -> None:
        """Forget spans and counters; remembered memory calls are kept."""
        self.spans = []
        self.counters = Counter()

    @contextmanager
    def installed(self):
        """Wrap every stage for the duration of the block, then restore the originals."""
        ids = itertools.count(1)
        stack = []
        try:
            for stage, module_name, qualname in self.stages:
                self._install(stage, module_name, qualname, ids, stack)
            yield self
        finally:
            for owner, attribute, original in reversed(self._patches):
                setattr(owner, attribute, original)
            self._patches = []

    def _install(self, stage, module_name, qualname, ids, stack) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attribute) if isinstance(owner, type) else None
            if original is not None:
                self._patch(owner, attribute, self._wrap(stage, original, ids, stack))
            return
        original = getattr(module, attribute, None)
        if original is None:
            return
        wrapper = self._wrap(stage, original, ids, stack)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, attr, wrapper)

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, stage, fn, ids, stack):
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span, parent, stage, start, end))
            tracer._observe(stage, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.traced_stage = stage
        return wrapper

    def _observe(self, stage, fn, args, kwargs, result) -> None:
        """Counts that belong to a stage, taken outside its span."""
        if stage == "inference.covariance":
            cells = np.size(args[0] if args else kwargs["p"])
            # diag(p), outer(p, p) and their difference: three r^2 x r^2 float64 arrays
            self.counters["inference.covariance.bytes_computed"] += 3 * 8 * cells * cells
        elif stage == "inference.bootstrap_ci":
            degenerate = sum(
                int(m.group(1)) for m in map(_DEGENERATE_FLAG.match, result.degenerate_flags) if m
            )
            requested = _argument(fn, args, kwargs, "replicates")
            self.counters["bootstrap.requested"] += requested
            self.counters["bootstrap.kept"] += requested - degenerate
            self._remember(stage, fn, args, kwargs, requested)
        elif stage == "inference.wald_ci":
            self._remember(stage, fn, args, kwargs, 0)
        elif stage == "simulate.coverage_study":
            self.counters["coverage.requested"] += result.replicates
            self.counters["coverage.effective"] += result.replicates - result.degenerate_count

    def _remember(self, stage, fn, args, kwargs, replicates) -> None:
        table = args[0] if args else kwargs["table"]
        r = np.shape(getattr(table, "counts", table))[0]
        self.memory_calls.setdefault((stage, r, replicates), (fn, args, kwargs))

    def layer_times(self) -> dict:
        """stage -> (calls, self seconds) over the recorded spans."""
        child_ns = defaultdict(int)
        calls = Counter()
        self_ns = Counter()
        for span, parent, stage, start, end in self.spans:  # children end first
            child_ns[parent] += end - start
            calls[stage] += 1
            self_ns[stage] += end - start - child_ns.pop(span, 0)
        return {stage: (calls[stage], self_ns[stage] / 1e9) for stage in self.stage_names}

    def replay_peaks(self) -> dict:
        """stage -> tracemalloc peak in MB over one replayed call per input size.

        Replays run the original functions after the wrappers are removed.
        """
        peaks = {stage: 0.0 for stage in MEMORY_STAGES}
        for (stage, _, _), (fn, args, kwargs) in sorted(self.memory_calls.items()):
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[stage] = max(peaks[stage], peak / 2**20)
        return peaks

    def write_spans(self, path: str) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,stage,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)



def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]
