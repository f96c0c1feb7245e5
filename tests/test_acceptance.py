"""End-to-end acceptance gate for the library.

Each test checks one headline guarantee and prints a single [PASS]/[FAIL]
line on the real stdout, so the gate report is visible regardless of
pytest's capture settings.  Worlds are fixed-seed; every check is
deterministic.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import contagion_lab
from contagion_lab.calibrate import (
    NEVER,
    MechanismParams,
    assign_from_pools,
    calibrate_background,
    calibrate_thresholds,
    calibrate_transmission,
)
from contagion_lab.cascade import (
    MECHANISMS,
    complex_fires,
    events_to_log,
    run_ensemble,
    run_realization,
    simple_probability,
)
from contagion_lab.features import events_feature_matrix
from contagion_lab.matchlab import (
    BINARY_LEVELS,
    CovariateTable,
    PropensityModel,
    RiskTable,
    Timing,
    TreatmentPanel,
    build_panel,
    fit_propensity,
    match_all_days,
    naive_risk_table,
    pool_risk_ratio,
)
from contagion_lab.mechclass import decompose, predict_label, train
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.shocks import ShockSchedule, fit_power_law, shock_intensity
from contagion_lab.structtest import degree_order_test
from contagion_lab.synthgen import (
    SynthConfig,
    gen_graph,
    gen_homophily_adoptions,
    gen_pure_cascade,
    gen_traits,
)


@pytest.fixture
def announce(capfd):
    """Gate-line printer that escapes pytest's fd-level capture."""

    def _announce(ok: bool, line: str) -> bool:
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {line}", flush=True)
        return ok

    return _announce


# ------------------------------------------------------------ shared worlds

@pytest.fixture(scope="module")
def mixed_world():
    """Calibrated mixed-mechanism ensemble plus a trained classifier."""
    g = gen_graph(SynthConfig(n_nodes=4000, mean_degree=18.0, exponent=2.05,
                              homophily=0.0, trait_balance=0.5, seed=42))
    n = g.node_count
    base = MechanismParams(beta=np.full(n, 0.01), phi=np.full(n, 2.0),
                           r=2e-3, activity=np.full(n, 0.05))
    ev0 = run_realization(g, base, seed=100, stop_fraction=0.18,
                          horizon_days=300, seeds=10)
    log0 = events_to_log(ev0, n, last_day=299)
    beta_pool = calibrate_transmission(g, log0)
    phi_pool = calibrate_thresholds(g, log0)
    r_hat = calibrate_background(g, log0)
    # middle burst has negligible height: it ends the first burst's tail
    # window so late days carry no shock pressure
    sched = ShockSchedule.from_peaks([8, 16, 60], [1759.0, 2.0, 590.0],
                                     [0.679, 0.5, 0.626])
    params = assign_from_pools(n, beta_pool.values, phi_pool.values, r_hat,
                               np.full(n, 0.05), sched, 0.06, seed=7)
    ens = run_ensemble(g, params, n_realizations=150, seed0=11,
                       stop_fraction=0.18, horizon_days=150, seeds=5)
    X, y = events_feature_matrix(ens.events)
    res = train(X, y, n_rounds=100, max_depth=6, seed=0)
    return SimpleNamespace(g=g, n=n, params=params, sched=sched, ens=ens,
                           res=res)


# --------------------------------------------------- 1. rule formula grids

def test_rule_formulas_exact(announce):
    dev = 0.0
    for beta in (0.011, 0.089, 0.5, 1.0):
        for m in range(21):
            ref = 1.0 - (1.0 - beta) ** m
            got = float(simple_probability(np.array([beta]), np.array([m]))[0])
            dev = max(dev, abs(got - ref))
    ok_simple = dev <= 1e-12

    ok_complex = True
    for k in range(0, 26):
        for m in range(0, k + 1):
            for phi in (0.001, 0.1, 0.146, 0.246, 0.5, 1.0):
                want = k > 0 and m / k >= phi
                got = bool(complex_fires(np.array([m]), np.array([k]),
                                         np.array([phi]))[0])
                ok_complex &= got == want

    taus, heights, alphas = [8, 16, 60], [1759.0, 2.0, 590.0], [0.679, 0.5, 0.626]
    sched = ShockSchedule.from_peaks(taus, heights, alphas)
    peak = max(heights)
    ok_peak = all(
        float(shock_intensity(sched, t)) == h / peak
        for t, h in zip(taus, heights)
    )

    ok = ok_simple and ok_complex and ok_peak
    announce(ok, "adoption-rule formulas: simple-prob grid max dev "
               f"{dev:.1e}, complex trigger exact {ok_complex}, "
               f"burst peak identity exact {ok_peak}")
    assert ok_simple and ok_complex and ok_peak


# ------------------------------------------------- 2. decay-curve recovery

def test_power_law_recovery(announce):
    t = np.arange(0, 80)
    alphas = (0.231, 0.556, 0.679, 0.775)
    worst_clean, worst_r2 = 0.0, 1.0
    for a in alphas:
        fit = fit_power_law(100.0 * (t + 1.0) ** (-a), peak=0)
        worst_clean = max(worst_clean, abs(fit.alpha - a))
        worst_r2 = min(worst_r2, fit.r_squared)
    ok_clean = worst_clean <= 0.01 and worst_r2 > 0.999

    worst_noisy = 0.0
    for a in alphas:
        for seed in range(100):
            rng = np.random.default_rng(seed)
            counts = 100.0 * (t + 1.0) ** (-a) * np.exp(
                rng.normal(0.0, 0.1, t.size))
            fit = fit_power_law(counts, peak=0)
            worst_noisy = max(worst_noisy, abs(fit.alpha - a))
    ok_noisy = worst_noisy <= 0.15

    ok = ok_clean and ok_noisy
    announce(ok, f"decay-curve fits: noiseless max dev {worst_clean:.1e} "
               f"(min R2 {worst_r2:.6f}), noisy max dev over 100 seeds "
               f"{worst_noisy:.3f}")
    assert ok_clean and ok_noisy


# ------------------------------------------- 3. calibration oracle equality

def test_calibration_matches_brute_force(announce):
    g = gen_graph(SynthConfig(n_nodes=1000, mean_degree=10.0, exponent=2.3,
                              homophily=0.0, trait_balance=0.5, seed=90))
    n = g.node_count
    rng = np.random.default_rng(12)
    sched = ShockSchedule.from_peaks([10], [500.0], [0.679])
    params = MechanismParams(beta=rng.uniform(0.05, 0.5, n),
                             phi=rng.uniform(0.05, 0.3, n),
                             r=1e-3, activity=np.full(n, 0.3),
                             shock_schedule=sched, shock_prob_at_peak=0.2)
    ev = run_realization(g, params, seed=55, stop_fraction=0.5,
                         horizon_days=120, seeds=3)
    log = events_to_log(ev, n, last_day=119)
    mask = np.zeros(log.horizon_days, dtype=bool)
    mask[10:17] = True
    log = dataclasses.replace(log, shock_mask=mask)

    days = log.adoption_day
    betas, phis, zero_exp = [], [], 0
    for u in range(n):
        t = int(days[u])
        if t == NEVER or mask[t - log.first_day]:
            continue
        fe = g.followees(u)
        m = int(sum(1 for v in fe if days[v] != NEVER and days[v] < t))
        k = len(fe)
        if m > 0:
            betas.append(1.0 / m)
            if k > 0:
                phis.append(m / k)
        else:
            zero_exp += 1
    sus = sum(int(log.horizon_days if days[u] == NEVER
                  else days[u] - log.first_day) for u in range(n))
    r_ref = zero_exp / sus

    bp = calibrate_transmission(g, log)
    pp = calibrate_thresholds(g, log)
    r_hat = calibrate_background(g, log)
    ok_b = np.array_equal(bp.values, np.asarray(betas))
    ok_p = np.array_equal(pp.values, np.asarray(phis))
    ok_r = r_hat == r_ref
    ok = ok_b and ok_p and ok_r
    announce(ok, f"calibration vs brute force on a 1,000-node log: "
               f"transmission pool ({bp.n} values) {ok_b}, threshold pool "
               f"({pp.n} values) {ok_p}, background rate {ok_r}")
    assert ok_b and ok_p and ok_r


# ------------------------------------ 4. engine stop rule, determinism, perf

def test_engine_stop_determinism_speed(announce):
    # chain: node i follows i-1, so adoption advances one hop per day
    n = 20
    edges = np.array([[i, i - 1] for i in range(1, n)])
    chain = DirectedGraph.from_edges(edges, n_nodes=n)
    p1 = MechanismParams(beta=np.ones(n), phi=np.full(n, 2.0), r=0.0,
                         activity=np.ones(n))
    ev = run_realization(chain, p1, seed=0, stop_fraction=0.18,
                         horizon_days=730, seeds=[0])
    # fractions: day1 0.10, day2 0.15, day3 0.20 -> stop exactly at day 3
    ok_stop = len(ev) == 4 and max(e.day for e in ev) == 3

    p0 = MechanismParams(beta=np.full(n, 0.3), phi=np.full(n, 2.0), r=0.0,
                         activity=np.ones(n))
    ev0 = run_realization(chain, p0, seed=1, stop_fraction=0.18,
                          horizon_days=730, seeds=None)
    ok_zero = len(ev0) == 0

    g = gen_graph(SynthConfig(n_nodes=10_000, mean_degree=25.0, exponent=2.1,
                              homophily=0.0, trait_balance=0.5, seed=17))
    rng = np.random.default_rng(3)
    sched = ShockSchedule.from_peaks([30, 200], [1000.0, 400.0],
                                     [0.679, 0.626])
    params = assign_from_pools(g.node_count, rng.uniform(0.02, 0.2, 400),
                               rng.uniform(0.05, 0.3, 400), 6e-5,
                               np.full(g.node_count, 0.032), sched, 0.05,
                               seed=2)
    t0 = time.monotonic()
    ens_a = run_ensemble(g, params, n_realizations=100, seed0=77,
                         stop_fraction=0.18, horizon_days=730, seeds=20)
    elapsed = time.monotonic() - t0
    ok_speed = elapsed < 300.0

    ens_b = run_ensemble(g, params, n_realizations=100, seed0=77,
                         stop_fraction=0.18, horizon_days=730, seeds=20)
    key = lambda ens: [(e.realization, e.day, e.node, e.mechanism)
                       for e in ens.events]
    ok_det = key(ens_a) == key(ens_b) and ens_a.counts_before == ens_b.counts_before

    ok = ok_stop and ok_zero and ok_det and ok_speed
    announce(ok, f"cascade engine: stop at first crossing {ok_stop}, "
               f"quiet world stays empty {ok_zero}, identical seeds give "
               f"identical runs {ok_det}, 100x10k-node ensemble in "
               f"{elapsed:.1f}s")
    assert ok_stop and ok_zero and ok_det and ok_speed


# --------------------------------------------------- 5. classifier quality

def test_classifier_mixed_and_pure(mixed_world, announce):
    w = mixed_world
    n_generated = sum(w.ens.counts_before.values())
    ok_size = n_generated >= 50_000
    ok_f1 = w.res.macro_f1 >= 0.65

    def pure_events(mech, seed, seeds):
        _, ev = gen_pure_cascade(w.g, mech, w.params, seed=seed, seeds=seeds,
                                 stop_fraction=1.0, horizon_days=120)
        return ev[ev.mechanism == MECHANISMS.index(mech)]

    # label-recovery oracle: fit on its own pure-cascade corpus, score on
    # held-out pure cascades with fresh seeds
    corpus = []
    for s in (30, 31, 32, 33, 34, 35):
        corpus.append(pure_events("Simple", s, 5))
    for s in (40, 41):
        corpus.append(pure_events("Complex", s, 60))
    for s in (60, 61, 62):
        corpus.append(pure_events("Shock", s, None))
    for s in range(50, 60):
        corpus.append(pure_events("Spontaneous", s, None))
    Xc, yc = events_feature_matrix(np.concatenate(corpus).view(np.recarray))
    oracle = train(Xc, yc, n_rounds=100, max_depth=6, seed=0)

    recalls = {}
    for mech, seed, seeds in (("Simple", 23, 5), ("Shock", 24, None)):
        evs = pure_events(mech, seed, seeds)
        Xp, _ = events_feature_matrix(evs)
        recalls[mech] = float(np.mean(predict_label(oracle.model, Xp) == mech))
    ok_rec = all(v >= 0.8 for v in recalls.values())

    ok = ok_size and ok_f1 and ok_rec
    announce(ok, f"classifier: {n_generated} labeled events generated "
               f"({len(w.ens.events)} unique after dedup), held-out "
               f"macro-F1 {w.res.macro_f1:.3f}, pure-cascade recall "
               f"Simple {recalls['Simple']:.3f} / Shock {recalls['Shock']:.3f}")
    assert ok_size and ok_f1 and ok_rec


# ------------------------------------------------ 6. degree-order direction

def test_degree_order_direction(announce):
    g = gen_graph(SynthConfig(n_nodes=5000, mean_degree=12.0, exponent=2.2,
                              homophily=0.0, trait_balance=0.5, seed=5))
    n = g.node_count
    ps = MechanismParams(beta=np.full(n, 0.05), phi=np.full(n, 2.0), r=0.0,
                         activity=np.ones(n))
    pc = MechanismParams(beta=np.zeros(n), phi=np.full(n, 0.12), r=0.0,
                         activity=np.ones(n))
    neg_sig = pair_wins = 0
    for sd in range(100):
        log_s, _ = gen_pure_cascade(g, "Simple", ps, seed=1000 + sd,
                                    seeds=10, stop_fraction=1.0,
                                    horizon_days=150)
        log_c, _ = gen_pure_cascade(g, "Complex", pc, seed=1000 + sd,
                                    seeds=150, stop_fraction=1.0,
                                    horizon_days=150)
        rs = degree_order_test(g, log_s, "in")
        rc = degree_order_test(g, log_c, "in")
        neg_sig += int(rs.rho < 0 and rs.p_value < 0.01)
        pair_wins += int(rc.rho > rs.rho)
    ok = neg_sig >= 95 and pair_wins >= 90
    announce(ok, f"degree-order test: spread-by-exposure negative and "
               f"significant in {neg_sig}/100 seeds, threshold-driven rho "
               f"greater in {pair_wins}/100")
    assert ok


# --------------------------------------------------- 7. matching statistics

def _stub_model(panel, logits_by_row):
    p1 = 1 / (1 + np.exp(-np.asarray(logits_by_row, dtype=float)))
    probs = np.column_stack([1 - p1, p1])
    return PropensityModel(
        classes=(0, 1),
        coef=np.zeros((1, len(panel.names) + 1)),
        mean=np.zeros(len(panel.names)), scale=np.ones(len(panel.names)),
        group=np.arange(len(probs)), rep=np.arange(len(probs)), probs=probs,
        iterations=1,
    )


def _micro_panel(seed, n_treated=3, n_control=5, p=3):
    rng = np.random.default_rng(seed)
    n = n_treated + n_control
    panel = TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.full(n, 4, dtype=np.int64),
        treatment=np.array([1] * n_treated + [0] * n_control, dtype=np.int64),
        outcome=rng.integers(0, 2, n),
        X=np.zeros((n, 0), dtype=np.int8),  # no count columns: all in node_X
        node_X=rng.normal(size=(n, p)),
        names=tuple(f"c{i}" for i in range(p)),
        core_idx=tuple(range(p)),
        levels=BINARY_LEVELS,
    )
    return panel, _stub_model(panel, rng.normal(size=n))


def _oracle_greedy(panel, model, caliper_mult=0.1):
    scores = model.group_logits(1)[model.group]
    caliper = caliper_mult * float(np.std(scores, ddof=1))
    C = panel.covariates(np.arange(panel.n_rows))[:, list(panel.core_idx)]
    Z = (C - C.mean(axis=0)) / np.where(C.std(axis=0) == 0, 1.0,
                                        C.std(axis=0))
    S = np.cov(Z, rowvar=False, ddof=1) + 1e-9 * np.eye(Z.shape[1])
    VI = np.linalg.inv(S)
    row_of = {int(panel.ego[i]): i for i in range(panel.n_rows)}
    controls = sorted(int(e) for e in panel.ego[panel.treatment == 0])
    used, pairs = set(), []
    for t in sorted(int(e) for e in panel.ego[panel.treatment == 1]):
        best = None
        for c in controls:
            if c in used:
                continue
            if abs(scores[row_of[t]] - scores[row_of[c]]) > caliper:
                continue
            d = Z[row_of[t]] - Z[row_of[c]]
            md = math.sqrt(max(float(d @ VI @ d), 0.0))
            if best is None or md < best[0]:
                best = (md, c)
        if best is not None:
            used.add(best[1])
            pairs.append((t, best[1]))
    return pairs


def _homophily_world(seed, h, rates):
    cfg = SynthConfig(n_nodes=400, mean_degree=8.0, exponent=2.5,
                      homophily=h, trait_balance=0.5, seed=seed)
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    log = gen_homophily_adoptions(g, trait, np.array(rates), 50, seed=seed)
    return g, log, trait


def _timing_rr(g, log, trait, include_trait):
    static = (("trait",), trait.astype(float)) if include_trait else None
    cov = CovariateTable(g, log, lag=7, static=static)
    panel = build_panel(cov, Timing(d=3))
    model = fit_propensity(panel, min_level_rows=5)
    return panel, match_all_days(panel, model)


def test_matching_statistics(announce):
    t_rr = RiskTable.from_counts(0, 10, 2, 8)
    ok_rr = abs(t_rr.rr - 0.2) <= 1e-12
    t_k = RiskTable.from_counts(10, 90, 5, 95)
    se = math.sqrt(0.28)
    ok_katz = (abs(t_k.rr - 2.0) <= 1e-12
               and abs(t_k.ci_low - 2.0 * math.exp(-1.96 * se)) <= 1e-12
               and abs(t_k.ci_high - 2.0 * math.exp(1.96 * se)) <= 1e-12
               and round(t_k.ci_low, 3) == 0.709)

    covered = 0
    for seed in range(100):
        g, log, trait = _homophily_world(seed, h=0.0, rates=(0.01, 0.01))
        panel, run = _timing_rr(g, log, trait, include_trait=False)
        table = pool_risk_ratio(run.pairs)
        covered += int(table.ci_low <= 1.0 <= table.ci_high)
    ok_null = covered >= 90

    wins = 0
    for seed in range(100):
        g, log, trait = _homophily_world(seed, h=0.95, rates=(0.025, 0.001))
        panel, run = _timing_rr(g, log, trait, include_trait=True)
        wins += int(naive_risk_table(panel).rr > pool_risk_ratio(run.pairs).rr)
    ok_hom = wins >= 95

    greedy_ok = 0
    for seed in range(1000):
        panel, model = _micro_panel(seed)
        res = match_all_days(panel, model).results[0]
        got = [(p.treated, p.control) for p in res.pairs]
        greedy_ok += int(got == _oracle_greedy(panel, model))
    ok_greedy = greedy_ok == 1000

    ok = ok_rr and ok_katz and ok_null and ok_hom and ok_greedy
    announce(ok, f"matching statistics: hand fixtures exact {ok_rr and ok_katz}, "
               f"null coverage {covered}/100, confounded worlds de-biased in "
               f"{wins}/100, greedy equals exhaustive matcher in "
               f"{greedy_ok}/1000 micro-instances")
    assert ok_rr and ok_katz and ok_null and ok_hom and ok_greedy


# ---------------------------------------------- 8. decomposition recovery

def test_decomposition_share_recovery(mixed_world, announce):
    w = mixed_world
    ev = run_realization(w.g, w.params, seed=11, stop_fraction=0.18,
                         horizon_days=150, seeds=5, realization_id=199)
    gen = Counter(MECHANISMS[e.mechanism] for e in ev)
    total = sum(gen.values())
    log = events_to_log(ev, w.n, last_day=149)
    rep = decompose(w.res.model, log, w.g, w.sched)
    shares = rep.overall_shares()
    diffs = {m: abs(gen.get(m, 0) / total - shares.get(m, 0.0))
             for m in ("Simple", "Complex", "Spontaneous", "Shock")}
    worst = max(diffs.values())
    ok = worst <= 0.10
    announce(ok, f"decomposition on a held-out cascade: worst share gap "
               f"{worst:.3f} over {total} adopters")
    assert ok


# ---------------------------------------------- 9. CLI run reproducibility

def _run_cli(args, cwd):
    # The child runs in a temp dir, where a relative PYTHONPATH entry such as
    # `src` no longer resolves.  Put the directory holding the package this
    # process imported first, so the child runs the same contagion_lab.
    env = dict(os.environ)
    pkg_root = str(Path(contagion_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "contagion_lab", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_pipeline_reproducible(tmp_path, announce):
    d = tmp_path / "pipe"
    d.mkdir()

    def pipeline():
        steps = [
            ["synth", "--nodes", "800", "--mean-degree", "10", "--exponent",
             "2.2", "--seed", "21", "--out", "g.npz"],
            ["simulate", "--graph", "g.npz", "--beta", "0.2", "--phi", "0.3",
             "--r", "0.001", "--activity", "0.4", "--realizations", "6",
             "--horizon", "80", "--seed", "9", "--seed-nodes", "2",
             "--out", "events.jsonl", "--log-out", "log.csv"],
            ["calibrate", "--graph", "g.npz", "--log", "log.csv",
             "--out", "pools.json"],
            ["train", "--events", "events.jsonl", "--rounds", "40",
             "--depth", "4", "--seed", "0", "--out", "model.json",
             "--metrics-out", "metrics.json"],
            ["decompose", "--graph", "g.npz", "--log", "log.csv",
             "--model", "model.json", "--out", "report.json"],
            # follower ties: the propensity fit converges on this log
            ["match", "--graph", "g.npz", "--log", "log.csv", "--kind", "timing",
             "--d", "3", "--direction", "follower", "--out-pairs", "pairs.csv",
             "--out-risk", "risk.json", "--out-diagnostics", "diagnostics.json"],
            # every dose level from one fit, over the simulated 80 days: the
            # log's own horizon ends with its last adoption, on day 7, before
            # the lag is past
            ["match", "--graph", "g.npz", "--log", "log.csv", "--kind", "dose",
             "--lag", "8", "--last-day", "79", "--direction", "follower",
             "--out-pairs", "dose_pairs.csv", "--out-risk", "dose_risk.json",
             "--out-diagnostics", "dose_diagnostics.json"],
        ]
        outs = ["g.npz", "events.jsonl", "log.csv", "pools.json",
                "model.json", "metrics.json", "report.json",
                "pairs.csv", "risk.json", "diagnostics.json",
                "dose_pairs.csv", "dose_risk.json", "dose_diagnostics.json"]
        manifests = ["g.npz.manifest.json", "events.jsonl.manifest.json",
                     "pools.json.manifest.json", "model.json.manifest.json",
                     "report.json.manifest.json", "pairs.csv.manifest.json",
                     "dose_pairs.csv.manifest.json"]
        for step in steps:
            proc = _run_cli(step, d)
            assert proc.returncode == 0, proc.stderr
        return {f: hashlib.sha256((d / f).read_bytes()).hexdigest()
                for f in outs + manifests}

    first = pipeline()
    second = pipeline()
    same = [f for f in first if first[f] == second[f]]
    ok = first == second
    announce(ok, f"command-line pipeline: {len(same)}/{len(first)} artifacts "
               f"byte-identical across two runs")
    assert ok
