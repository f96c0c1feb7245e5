"""Spans around contagion_lab's public functions, recorded from outside the package.

The traced run calls the CLI in-process. Before it does, `install` replaces
each wrapped function on its defining module and on every module that imported
it by name (`cli` above all), so internal calls such as `run_ensemble` ->
`run_realization` are caught too. Spans are (name, start, end, parent) and stay
in memory; counters are filled from the wrapped calls' arguments and results.
`restore` puts every original back.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

STEPS = ("synth", "simulate", "calibrate", "train", "decompose", "match")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def _wrapper(self, fn, name, observe):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.counts, bound.arguments, result)
            return result

        return traced

    def _counter(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, make):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(make(original.__func__))
        elif isinstance(original, property):
            new = property(make(original.fget))
        else:
            new = make(original)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def wrap(self, owners, attr, name, observe=None):
        for owner in owners:
            self._replace(owner, attr, lambda fn: self._wrapper(fn, name, observe))

    def count_calls(self, owners, attr, name):
        for owner in owners:
            self._replace(owner, attr, lambda fn: self._counter(fn, name))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------- span arithmetic

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def root_residuals(spans: list[Span], selfs: list[float]) -> dict[int, float]:
    """Root span duration minus the self times of it and all its descendants."""
    root_of = []
    for s in spans:
        root_of.append(len(root_of) if s.parent is None else root_of[s.parent])
    total = defaultdict(float)
    for i, value in enumerate(selfs):
        total[root_of[i]] += value
    return {r: spans[r].duration - total[r] for r in total}


def tracing_overhead(traced_s: float, untraced_s: float, start_s: float) -> float:
    """Traced in-process step time minus the untraced child's time net of its start-up."""
    return traced_s - (untraced_s - start_s)


# ----------------------------------------------------------------- what is wrapped

def _file_bytes(key):
    def observe(counts, a, _result):
        counts[key] = max(counts[key], os.path.getsize(a["path"]))

    return observe


def _realization(counts, a, events):
    n, horizon = a["g"].node_count, a["horizon_days"]
    stopped = len(events) >= a["stop_fraction"] * n
    counts["cascade.adoptions"] += len(events)
    counts["cascade.days"] += max(e.day for e in events) + 1 if stopped else horizon


def _ensemble(counts, _a, result):
    before = sum(result.counts_before.values())
    counts["cascade.dedup_kept"] = sum(result.counts_after.values()) / before if before else 0.0


def _panel(counts, _a, panel):
    counts["matchlab.panel_rows"] += panel.n_rows
    counts["matchlab.panel_bytes"] += sum(
        a.nbytes for a in (panel.ego, panel.day, panel.treatment, panel.outcome, panel.X)
    )


def _match_days(counts, _a, run):
    counts["matchlab.treated"] += sum(r.n_treated for r in run.results)
    counts["matchlab.pairs"] += len(run.pairs)
    counts["matchlab.days"] += len(run.results)


def _set(key, value_of):
    def observe(counts, a, result):
        counts[key] = value_of(a, result)

    return observe


def _add(key, value_of):
    def observe(counts, a, result):
        counts[key] += value_of(a, result)

    return observe


def install(tracer: Tracer):
    """Wrap the public functions the benchmark's pipelines reach."""
    from contagion_lab import (
        calibrate,
        cascade,
        cli,
        features,
        matchlab,
        mechclass,
        netgraph,
        shocks,
        synthgen,
    )

    G, Log, Params = netgraph.DirectedGraph, calibrate.AdoptionLog, calibrate.MechanismParams
    Forest, Report = mechclass.BoostedForest, mechclass.DecompositionReport
    w = tracer.wrap
    w([synthgen, cli], "gen_graph", "synthgen.gen_graph",
      _set("synthgen.edges", lambda a, g: g.edge_count))
    w([G], "save", "netgraph.save", _file_bytes("netgraph.cache_bytes"))
    w([G], "load", "netgraph.load")
    w([G], "mutual_degree", "netgraph.mutual_degree")
    w([cascade, cli], "run_ensemble", "cascade.ensemble", _ensemble)
    w([cascade], "run_realization", "cascade.realization", _realization)
    w([cli], "run_realization", "cascade.replay")
    w([cascade, cli], "dedup_events", "cascade.dedup")
    w([cascade, cli], "write_events", "cascade.write_events", _file_bytes("cascade.events_bytes"))
    w([cascade, cli], "read_events", "cascade.read_events")
    tracer.count_calls([shocks, features], "shock_intensity", "shocks.intensity_calls")
    for fn in ("calibrate_transmission", "calibrate_thresholds", "calibrate_background"):
        w([calibrate, cli], fn, "calibrate.pools")
    w([Log], "from_csv", "calibrate.log_read",
      _set("calibrate.adopters", lambda a, log: len(log.adopters())))
    w([Params], "to_json", "calibrate.params_write")
    w([features, mechclass, cli], "extract_features_log", "features.extract_log",
      _add("features.rows", lambda a, r: len(r[0])))
    w([mechclass, cli], "train", "mechclass.train",
      _set("mechclass.train_rows", lambda a, r: len(a["X"])))
    w([mechclass, cli], "predict_proba", "mechclass.predict",
      _add("mechclass.predict_rows", lambda a, r: len(a["X"])))
    w([mechclass, cli], "decompose", "mechclass.decompose")
    w([Report], "to_json", "mechclass.report_write")
    w([Forest], "save", "mechclass.model_io",
      _set("mechclass.trees", lambda a, r: len(a["self"].trees) * len(a["self"].classes)))
    w([Forest], "load", "mechclass.model_io")
    w([matchlab.CovariateTable], "__init__", "matchlab.covariates")
    w([matchlab, cli], "build_panel", "matchlab.panel", _panel)
    w([matchlab, cli], "fit_propensity", "matchlab.propensity",
      _add("matchlab.newton_iterations", lambda a, m: m.iterations))
    w([matchlab, cli], "match_all_days", "matchlab.match_days", _match_days)
    w([matchlab, cli], "diagnostics", "matchlab.diagnostics")
    w([matchlab, cli], "write_pairs", "matchlab.pairs_write")


# ----------------------------------------------------------------- per-layer metrics

# name -> (unit, source): "span:<name>" sums that span's durations, "count:<key>"
# reads a counter, and anything else is computed in `layer_metrics`.
LAYER_METRICS = {
    "cli.import_s": ("s", None),
    "cli.step_self_s": ("s", None),
    **{f"cli.step_self_s.{step}": ("s", None) for step in STEPS},
    "trace.overhead_s": ("s", None),
    "synthgen.gen_graph_s": ("s", "span:synthgen.gen_graph"),
    "synthgen.edges": ("count", "count:synthgen.edges"),
    "netgraph.save_s": ("s", "span:netgraph.save"),
    "netgraph.load_s": ("s", "span:netgraph.load"),
    "netgraph.cache_bytes": ("bytes", "count:netgraph.cache_bytes"),
    "netgraph.mutual_degree_s": ("s", "span:netgraph.mutual_degree"),
    "cascade.realizations": ("count", None),
    "cascade.realization_s.p50": ("s", None),
    "cascade.realization_s.max": ("s", None),
    "cascade.days": ("count", "count:cascade.days"),
    "cascade.adoptions": ("count", "count:cascade.adoptions"),
    "cascade.adoptions_per_s": ("1/s", None),
    "cascade.replay_s": ("s", "span:cascade.replay"),
    "cascade.dedup_s": ("s", "span:cascade.dedup"),
    "cascade.dedup_kept": ("ratio", "count:cascade.dedup_kept"),
    "cascade.ensemble_self_s": ("s", None),
    "cascade.write_events_s": ("s", "span:cascade.write_events"),
    "cascade.read_events_s": ("s", "span:cascade.read_events"),
    "cascade.events_bytes": ("bytes", "count:cascade.events_bytes"),
    "shocks.intensity_calls": ("count", "count:shocks.intensity_calls"),
    "calibrate.pools_s": ("s", "span:calibrate.pools"),
    "calibrate.adopters": ("count", "count:calibrate.adopters"),
    "calibrate.log_read_s": ("s", "span:calibrate.log_read"),
    "calibrate.params_write_s": ("s", "span:calibrate.params_write"),
    "features.extract_log_s": ("s", "span:features.extract_log"),
    "features.rows": ("count", "count:features.rows"),
    "mechclass.train_s": ("s", "span:mechclass.train"),
    "mechclass.train_rows": ("count", "count:mechclass.train_rows"),
    "mechclass.trees": ("count", "count:mechclass.trees"),
    "mechclass.predict_s": ("s", "span:mechclass.predict"),
    "mechclass.predict_rows": ("count", "count:mechclass.predict_rows"),
    "mechclass.report_write_s": ("s", "span:mechclass.report_write"),
    "mechclass.model_io_s": ("s", "span:mechclass.model_io"),
    "matchlab.covariates_s": ("s", "span:matchlab.covariates"),
    "matchlab.panel_s": ("s", "span:matchlab.panel"),
    "matchlab.panel_rows": ("count", "count:matchlab.panel_rows"),
    "matchlab.panel_bytes": ("bytes", "count:matchlab.panel_bytes"),
    "matchlab.propensity_s": ("s", "span:matchlab.propensity"),
    "matchlab.newton_iterations": ("count", "count:matchlab.newton_iterations"),
    "matchlab.match_days_s": ("s", "span:matchlab.match_days"),
    "matchlab.treated": ("count", "count:matchlab.treated"),
    "matchlab.pairs": ("count", "count:matchlab.pairs"),
    "matchlab.days": ("count", "count:matchlab.days"),
    "matchlab.diagnostics_s": ("s", "span:matchlab.diagnostics"),
    "matchlab.pairs_write_s": ("s", "span:matchlab.pairs_write"),
}


def _median(values):
    v = sorted(values)
    if not v:
        return 0.0
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def layer_metrics(tracer: Tracer, import_s: float, overhead_s: float) -> dict:
    """Every LAYER_METRICS entry; a layer the workload never reaches reads 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
    computed = {"cli.import_s": import_s, "trace.overhead_s": overhead_s}
    for step in STEPS:
        computed[f"cli.step_self_s.{step}"] = sum(
            selfs[i] for i, s in enumerate(spans) if s.name == f"cli.{step}"
        )
    computed["cli.step_self_s"] = sum(computed[f"cli.step_self_s.{s}"] for s in STEPS)
    runs = [s.duration for s in spans if s.name == "cascade.realization"]
    computed["cascade.realizations"] = len(runs)
    computed["cascade.realization_s.p50"] = _median(runs)
    computed["cascade.realization_s.max"] = max(runs, default=0.0)
    run_time = sum(runs)
    computed["cascade.adoptions_per_s"] = (
        tracer.counts["cascade.adoptions"] / run_time if run_time else 0.0
    )
    computed["cascade.ensemble_self_s"] = sum(
        selfs[i] for i, s in enumerate(spans) if s.name == "cascade.ensemble"
    )
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        if source is None:
            value = computed[name]
        elif source.startswith("span:"):
            value = total[source[5:]]
        else:
            value = tracer.counts[source[6:]]
        out[name] = {"value": value, "unit": unit}
    return out
