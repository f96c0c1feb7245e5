"""The benchmark's tracer wraps package functions by name; a rename breaks it.

bench/tests (not part of this suite) runs the whole benchmark; this is the
fast check that the names and row shapes bench/tracing.py relies on still hold.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from contagion_lab import cascade
from contagion_lab.calibrate import MechanismParams
from contagion_lab.netgraph import DirectedGraph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_round_trips(monkeypatch):
    # install looks each wrapped name up on its module (a dropped import such
    # as cli.run_realization raises KeyError), and restore puts every
    # original back on the modules and classes it replaced them on
    from contagion_lab import cli, matchlab, mechclass

    tracing = load_tracing(monkeypatch)
    modules = (cli, cascade, matchlab, mechclass, DirectedGraph)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.predict_proba is not mechclass.predict_proba
    finally:
        tracer.restore()
    for m, names in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in names.items()), m


def test_tracer_sees_each_realization(monkeypatch):
    tracing = load_tracing(monkeypatch)
    rng = np.random.default_rng(0)
    n = 80
    g = DirectedGraph.from_edges(rng.integers(0, n, (n * 5, 2)), n_nodes=n)
    p = MechanismParams(
        beta=np.full(n, 0.3), phi=np.full(n, 0.3), r=0.01, activity=np.full(n, 0.7)
    )
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        cascade.run_ensemble(g, p, n_realizations=2, seed0=1, horizon_days=30, seeds=[0])
    finally:
        tracer.restore()
    assert [s.name for s in tracer.spans].count("cascade.realization") == 2
    assert tracer.counts["cascade.adoptions"] > 0


def test_tracer_sees_the_match_stages(monkeypatch, tmp_path):
    from contagion_lab import cli, matchlab
    from contagion_lab.synthgen import (
        SynthConfig,
        gen_graph,
        gen_homophily_adoptions,
        gen_traits,
    )

    tracing = load_tracing(monkeypatch)
    cfg = SynthConfig(n_nodes=300, mean_degree=8.0, exponent=2.5, homophily=0.9, seed=5)
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    log = gen_homophily_adoptions(g, trait, np.array([0.03, 0.003]), 40, seed=5)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        # called through the module, where install put the wrappers
        cov = matchlab.CovariateTable(g, log, lag=7)
        panel = matchlab.build_panel(cov, matchlab.Timing(d=3))
        model = matchlab.fit_propensity(panel, min_level_rows=5)
        run = matchlab.match_all_days(panel, model)
        matchlab.diagnostics(run)
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    for stage in ("covariates", "panel", "propensity", "match_days", "diagnostics"):
        assert names.count(f"matchlab.{stage}") == 1, stage
    assert tracer.counts["matchlab.panel_rows"] == panel.n_rows > 0
    assert tracer.counts["matchlab.panel_bytes"] > 0
    assert tracer.counts["matchlab.pairs"] == len(run.pairs) > 0
    assert tracer.counts["matchlab.newton_iterations"] == model.iterations

    # a permuted placebo through the CLI, as the benchmark runs it: one panel
    # span, and its rows counted once
    g.save(tmp_path / "g.npz")
    log.to_csv(tmp_path / "log.csv", g)
    pairs = tmp_path / "pairs.csv"
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert cli.main([
            "match", "--graph", str(tmp_path / "g.npz"), "--log", str(tmp_path / "log.csv"),
            "--last-day", str(log.last_day), "--kind", "timing", "--d", "3",
            "--placebo", "permute", "--seed", "2",
            "--min-level-rows", "5", "--out-pairs", str(pairs),
            "--out-risk", str(tmp_path / "risk.json"),
        ]) == 0
    finally:
        tracer.restore()
    summary = json.loads(Path(f"{pairs}.manifest.json").read_text())["summary"]
    assert summary["kind"].startswith("placebo_permuted(")
    assert [s.name for s in tracer.spans].count("matchlab.panel") == 1
    assert tracer.counts["matchlab.panel_rows"] == summary["panel_rows"] == panel.n_rows
