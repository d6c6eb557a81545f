"""Spans around the calls into each ggmlearn module, recorded from outside.

The tracer replaces each listed public function (or method) with a wrapper
that records a span: name, layer, start, end, parent span, op id, and
whether it raised.  Callers resolve functions by name in many places
(``harness`` imports ``cmit`` and ``sample``, ``cli`` imports the ``io``
helpers, ``model`` calls ``walk_summability_alpha`` through its own
globals), so every ``ggmlearn`` module attribute bound to an original is
rebound, not only the defining one.  ``installed()`` restores the originals
on exit, so untraced iterations run the unmodified program.

Counters that need a call's arguments or result (pairs scanned, bytes
written, LBP iterations) are evaluated after the traced iteration, outside
every span, so they cost no layer any self time.  A listed function that
does not exist is reported missing, and metrics that only it feeds are
reported absent instead of failing the run.

The span stack assumes one thread calls into ggmlearn, which holds for
every workload: ``cmit`` and ``sweep`` run with their default
``threads=1``.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("graph", "model", "sampler", "estimator", "lbp", "bounds", "harness", "io", "cli")


def _n_subsets(p: int, eta: int, n: int | None) -> int:
    top = eta if n is None else min(eta, n - 1)
    return sum(math.comb(p - 2, k) for k in range(top + 1))


def _cmit_counts(args, kwargs, result) -> dict:
    statuses = [d.status for d in result.pairs.values()]
    return {
        "estimator.pairs": len(statuses),
        "estimator.subsets_full": len(statuses) * _n_subsets(result.p, result.eta, result.n),
        "estimator.pairs_early_exit": statuses.count("early_exit"),
        "estimator.pairs_failed": statuses.count("failed"),
    }


def _path_bytes(path_index: int, key: str):
    def count(args, kwargs, result) -> dict:
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        return {key: os.path.getsize(path)}

    return count


def _sample_bytes(args, kwargs, result) -> dict:
    return {"sampler.bytes_drawn": result.n * result.p * 8}


def _lbp_counts(args, kwargs, result) -> dict:
    return {
        "lbp.iterations": result.iterations,
        "lbp.message_bytes": result.message_precisions.nbytes + result.message_potentials.nbytes,
    }


def _separator_pairs(args, kwargs, result) -> dict:
    return {"graph.separator_pairs": len(result.separators) if hasattr(result, "separators") else 1}


# (layer, group, module, attribute path, counter).  A group's time is the
# summed self time of its spans; its call count counts the spans whose
# parent is not in the same group.
TARGETS = (
    ("graph", "build", "ggmlearn.graph", "EnsembleConfig.build", None),
    ("graph", "build", "ggmlearn.graph", "chain_graph", None),
    ("graph", "build", "ggmlearn.graph", "cycle_graph", None),
    ("graph", "build", "ggmlearn.graph", "torus_grid", None),
    ("graph", "build", "ggmlearn.graph", "generate_er", None),
    ("graph", "build", "ggmlearn.graph", "generate_regular", None),
    ("graph", "build", "ggmlearn.graph", "generate_smallworld", None),
    ("graph", "separator", "ggmlearn.graph", "local_separator", _separator_pairs),
    ("graph", "separator", "ggmlearn.graph", "separation_profile", _separator_pairs),
    ("graph", "other", "ggmlearn.graph", "edit_distance", None),
    ("model", "synthesize", "ggmlearn.model", "synthesize_model", None),
    ("model", "alpha", "ggmlearn.model", "walk_summability_alpha", None),
    ("model", "init", "ggmlearn.model", "GaussianModel.__init__", None),
    ("model", "sigma", "ggmlearn.model", "GaussianModel.sigma", None),
    ("model", "sigma", "ggmlearn.model", "exact_covariance", None),
    ("model", "other", "ggmlearn.model", "conditional_covariance_exact", None),
    ("sampler", "sample", "ggmlearn.sampler", "sample", _sample_bytes),
    ("sampler", "empirical_cov", "ggmlearn.sampler", "empirical_covariance", None),
    ("sampler", "empirical_cov", "ggmlearn.sampler", "SampleSet.empirical_covariance", None),
    ("estimator", "cmit", "ggmlearn.estimator", "cmit", _cmit_counts),
    ("estimator", "cmit", "ggmlearn.estimator", "cmit_mi", None),
    ("estimator", "oracle_gap", "ggmlearn.estimator", "oracle_gap", None),
    ("estimator", "oracle_gap", "ggmlearn.estimator", "min_conditional_statistic", None),
    ("estimator", "other", "ggmlearn.estimator", "EstimationResult.to_dict", None),
    ("lbp", "run", "ggmlearn.lbp", "lbp_run", _lbp_counts),
    ("bounds", "fano", "ggmlearn.bounds", "fano_lower_bound", None),
    ("harness", "self", "ggmlearn.harness", "sweep", None),
    ("harness", "self", "ggmlearn.harness", "run_config", None),
    ("harness", "self", "ggmlearn.harness", "run_trial", None),
    ("harness", "self", "ggmlearn.harness", "run_manifest", None),
    ("io", "read", "ggmlearn.io", "load_samples", None),
    ("io", "read", "ggmlearn.io", "load_model", None),
    ("io", "read", "ggmlearn.io", "read_matrix_csv", _path_bytes(0, "io.bytes_read")),
    ("io", "read", "ggmlearn.io", "read_edge_list", _path_bytes(0, "io.bytes_read")),
    ("io", "read", "ggmlearn.io", "read_json", _path_bytes(0, "io.bytes_read")),
    ("io", "write", "ggmlearn.io", "save_samples", None),
    ("io", "write", "ggmlearn.io", "save_model", None),
    ("io", "write", "ggmlearn.io", "write_matrix_csv", _path_bytes(1, "io.bytes_written")),
    ("io", "write", "ggmlearn.io", "write_edge_list", _path_bytes(1, "io.bytes_written")),
    ("io", "write", "ggmlearn.io", "write_json", _path_bytes(1, "io.bytes_written")),
    ("cli", "self", "ggmlearn.cli", "main", None),
)

# Per-layer metric -> the (layer, group) it is read from.
_TIMES = {
    "graph.build_s": ("graph", "build"),
    "graph.separator_s": ("graph", "separator"),
    "model.synthesize_s": ("model", "synthesize"),
    "model.alpha_s": ("model", "alpha"),
    "model.init_s": ("model", "init"),
    "model.sigma_s": ("model", "sigma"),
    "sampler.sample_s": ("sampler", "sample"),
    "sampler.empirical_cov_s": ("sampler", "empirical_cov"),
    "estimator.cmit_s": ("estimator", "cmit"),
    "estimator.oracle_gap_s": ("estimator", "oracle_gap"),
    "lbp.run_s": ("lbp", "run"),
    "io.read_s": ("io", "read"),
    "io.write_s": ("io", "write"),
    "bounds.fano_s": ("bounds", "fano"),
}
_CALLS = {
    "graph.build_calls": ("graph", "build"),
    "model.synthesize_calls": ("model", "synthesize"),
    "model.alpha_calls": ("model", "alpha"),
    "estimator.cmit_calls": ("estimator", "cmit"),
}
_COUNTS = {
    "graph.separator_pairs": ("graph", "separator"),
    "sampler.bytes_drawn": ("sampler", "sample"),
    "estimator.pairs": ("estimator", "cmit"),
    "estimator.subsets_full": ("estimator", "cmit"),
    "estimator.pairs_early_exit": ("estimator", "cmit"),
    "estimator.pairs_failed": ("estimator", "cmit"),
    "lbp.iterations": ("lbp", "run"),
    "lbp.message_bytes": ("lbp", "run"),
    "io.bytes_read": ("io", "read"),
    "io.bytes_written": ("io", "write"),
}


@dataclass
class Span:
    name: str
    layer: str
    group: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    raised: bool = False
    pending: tuple | None = None


@dataclass
class Tracer:
    """In-memory span recorder; one per benchmark process."""

    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    present_groups: set = field(default_factory=set)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str, layer: str, group: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, group, time.perf_counter(), parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].raised = raised
        self._stack.pop()

    def _wrap(self, fn, name, layer, group, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name, layer, group)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                tracer.close(idx, raised)
                if counter is not None and not raised:
                    tracer.spans[idx].pending = (counter, args, kwargs, out)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def installed(self):
        """Rebind every listed function for the duration of the block."""
        undo = []
        self.present_groups = set()
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "ggmlearn" or n.startswith("ggmlearn.")]
        try:
            for layer, group, mod_name, attr, counter in TARGETS:
                try:
                    owner = importlib.import_module(mod_name)
                    *outer, leaf = attr.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    orig = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(orig, f"{layer}.{attr}", layer, group, counter)
                self.present_groups.add((layer, group))
                if outer:
                    undo.append((owner, leaf, orig))
                    setattr(owner, leaf, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span], present_groups: set, wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced iteration, plus the names of metrics
    that could not be measured because their functions or counters are gone."""
    absent: list[str] = []
    self_time = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            self_time[s.parent] -= s.end - s.start

    group_s: dict = {}
    group_calls: dict = {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    counts: dict = {}
    bad_counters: set = set()
    for idx, s in enumerate(spans):
        key = (s.layer, s.group)
        group_s[key] = group_s.get(key, 0.0) + self_time[idx]
        layer_s[s.layer] += self_time[idx]
        if s.parent is None or (spans[s.parent].layer, spans[s.parent].group) != key:
            group_calls[key] = group_calls.get(key, 0) + 1
        errors[s.layer] += s.raised
        if s.pending is not None:
            counter, args, kwargs, out = s.pending
            try:
                for name, value in counter(args, kwargs, out).items():
                    counts[name] = counts.get(name, 0) + value
            except (AttributeError, KeyError, TypeError, OSError):
                bad_counters.add(counter)

    metrics: dict = {}
    for name, key in _TIMES.items():
        metrics[name] = group_s.get(key, 0.0)
    for name, key in _CALLS.items():
        metrics[name] = group_calls.get(key, 0)
    for name in _COUNTS:
        metrics[name] = counts.get(name, 0)
    for name, key in {**_TIMES, **_CALLS, **_COUNTS}.items():
        if key not in present_groups:
            absent.append(name)
    if bad_counters:
        # A counter that no longer matches the program's result type marks
        # every metric it feeds as absent rather than reporting zero.
        for layer, group, _, _, counter in TARGETS:
            if counter in bad_counters:
                absent.extend(n for n, k in _COUNTS.items() if k == (layer, group))

    init_calls = group_calls.get(("model", "init"), 0)
    metrics["model.alpha_calls_per_model"] = metrics["model.alpha_calls"] / init_calls if init_calls else 0.0
    cmit_s = metrics["estimator.cmit_s"]
    pairs = metrics["estimator.pairs"]
    metrics["estimator.pairs_per_s"] = pairs / cmit_s if cmit_s > 0 else 0.0
    metrics["estimator.early_exit_frac"] = metrics["estimator.pairs_early_exit"] / pairs if pairs else 0.0
    iters = metrics["lbp.iterations"]
    metrics["lbp.s_per_iteration"] = metrics["lbp.run_s"] / iters if iters else 0.0
    for derived, source in (
        ("model.alpha_calls_per_model", "model.alpha_calls"),
        ("estimator.pairs_per_s", "estimator.pairs"),
        ("estimator.early_exit_frac", "estimator.pairs_early_exit"),
        ("lbp.s_per_iteration", "lbp.iterations"),
    ):
        if source in absent:
            absent.append(derived)

    present_layers = {layer for layer, _ in present_groups}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_s[layer]
        metrics[f"{layer}.errors"] = errors[layer]
        if layer not in present_layers:
            absent.extend((f"{layer}.self_s", f"{layer}.errors"))
    metrics["trace.wall_s"] = wall_s
    metrics["bench.self_s"] = wall_s - sum(layer_s.values())
    for name in absent:
        metrics.pop(name, None)
    return metrics, sorted(set(absent))


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "op": s.op,
            "raised": s.raised,
        }
        for s in spans
    ]


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s_per_iteration"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_model"):
        return "calls/model"
    return "count"


PER_LAYER_METRICS = (
    *_TIMES,
    *_CALLS,
    *_COUNTS,
    "model.alpha_calls_per_model",
    "estimator.pairs_per_s",
    "estimator.early_exit_frac",
    "lbp.s_per_iteration",
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"{layer}.errors" for layer in LAYERS),
    "trace.wall_s",
    "bench.self_s",
    "trace.overhead_s",
)
