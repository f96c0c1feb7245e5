"""Cascade engine: rule arithmetic, determinism, stop rule, dedup."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from contagion_lab.calibrate import NEVER, MechanismParams
from contagion_lab.cascade import (
    EVENT_DTYPE,
    FIRED_NAMES,
    MECHANISMS,
    complex_fires,
    dedup_events,
    events_to_log,
    mechanism_counts,
    read_events,
    run_ensemble,
    run_realization,
    simple_probability,
    write_events,
)
from contagion_lab import cascade
from contagion_lab.errors import DataError, ParseError
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.rngstream import REALIZATION, stream
from contagion_lab.shocks import ShockSchedule, shock_intensity


def graph_from(edges, n):
    return DirectedGraph.from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), n_nodes=n)


def params_for(
    n,
    beta=0.0,
    phi=2.0,
    r=0.0,
    activity=1.0,
    schedule=None,
    shock_prob_at_peak=0.0,
):
    return MechanismParams(
        beta=np.full(n, beta),
        phi=np.full(n, phi),
        r=r,
        activity=np.full(n, activity),
        shock_schedule=schedule or ShockSchedule.empty(),
        shock_prob_at_peak=shock_prob_at_peak,
    )


# -- rule arithmetic ----------------------------------------------------------


def test_simple_probability_grid():
    for beta in (0.011, 0.089, 0.5, 1.0):
        for m in range(21):
            want = 1.0 - (1.0 - beta) ** m
            assert abs(float(simple_probability(beta, m)) - want) <= 1e-12


def test_simple_probability_monotone():
    betas = np.linspace(0.0, 1.0, 41)
    for m in range(0, 15):
        p = simple_probability(betas, m)
        assert np.all(np.diff(p) >= 0)
    for beta in (0.05, 0.3, 0.9):
        p = simple_probability(beta, np.arange(30))
        assert np.all(np.diff(p) >= 0)


def test_complex_trigger_decisions():
    assert bool(complex_fires(2, 10, 0.146))
    assert not bool(complex_fires(1, 10, 0.146))
    assert not bool(complex_fires(0, 0, 0.01))  # k=0 can never fire
    assert bool(complex_fires(3, 20, 0.15))  # boundary: equality fires
    assert not bool(complex_fires(5, 10, 2.0))  # disabled threshold


# -- single realization --------------------------------------------------------


def test_inert_world_zero_events():
    g = graph_from([(0, 1), (1, 2), (2, 0)], 3)
    events = run_realization(g, params_for(3), seed=1, horizon_days=50)
    assert len(events) == 0


def test_saturating_rate_all_adopt_day_zero():
    g = graph_from([(0, 1), (1, 2), (2, 0)], 3)
    events = run_realization(g, params_for(3, r=1.0), seed=1, horizon_days=50)
    assert len(events) == 3
    assert all(e.day == 0 for e in events)
    assert all(MECHANISMS[e.mechanism] == "Spontaneous" for e in events)
    assert all(FIRED_NAMES[e.fired] == ("Spontaneous",) for e in events)


def test_complex_fires_deterministically():
    # node 0 follows 1..10; two of them are seeds; phi=0.146 < 0.2
    g = graph_from([(0, t) for t in range(1, 11)], 11)
    p = params_for(11, beta=0.0, phi=0.146, r=0.0)
    events = run_realization(
        g, p, seed=3, seeds=[1, 2], horizon_days=5, stop_fraction=1.0
    )
    by_node = {e.node: e for e in events}
    assert by_node[0].day == 1
    assert MECHANISMS[by_node[0].mechanism] == "Complex"
    assert FIRED_NAMES[by_node[0].fired] == ("Complex",)
    # eve state: m=2, k=10, saturation 0.2
    assert by_node[0].features[0] == 2
    assert by_node[0].features[1] == 10
    assert by_node[0].features[2] == pytest.approx(0.2)


def test_seed_events_logged_as_spontaneous():
    g = graph_from([(0, 1)], 2)
    events = run_realization(g, params_for(2), seed=0, seeds=[1], horizon_days=3)
    assert len(events) == 1
    e = events[0]
    assert (e.node, e.day, MECHANISMS[e.mechanism]) == (1, 0, "Spontaneous")
    assert e.features[0] == 0 and e.features[3] == -1.0


def test_shock_day_sweeps_everyone():
    g = graph_from([(0, 1), (1, 0), (2, 0)], 3)
    sched = ShockSchedule(np.array([2]), np.array([1.0]), np.array([5.0]))
    p = params_for(3, schedule=sched, shock_prob_at_peak=1.0)
    events = run_realization(g, p, seed=7, horizon_days=10)
    assert len(events) == 3
    for e in events:
        assert e.day == 2
        assert MECHANISMS[e.mechanism] == "Shock"
        assert e.features[5] == 1.0  # peak intensity
        assert e.features[6] == 0.0  # peak day itself


def test_determinism_identical_seeds():
    g = graph_from(np.random.default_rng(0).integers(0, 50, (300, 2)), 50)
    p = params_for(50, beta=0.3, phi=0.25, r=0.01, activity=0.6)
    a = run_realization(g, p, seed=42, seeds=[0], horizon_days=40)
    b = run_realization(g, p, seed=42, seeds=[0], horizon_days=40)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.node, x.day, x.mechanism, x.fired) == (y.node, y.day, y.mechanism, y.fired)
        assert np.array_equal(x.features, y.features)
    c = run_realization(g, p, seed=43, seeds=[0], horizon_days=40)
    assert [(e.node, e.day) for e in a] != [(e.node, e.day) for e in c]


def test_adoption_absorbing_no_repeats():
    g = graph_from(np.random.default_rng(1).integers(0, 40, (200, 2)), 40)
    p = params_for(40, beta=0.5, r=0.02, activity=0.8)
    events = run_realization(g, p, seed=5, horizon_days=60, stop_fraction=1.0)
    nodes = [e.node for e in events]
    assert len(nodes) == len(set(nodes))


def test_no_background_no_shock_adopters_are_exposed():
    g = graph_from(np.random.default_rng(2).integers(0, 60, (500, 2)), 60)
    p = params_for(60, beta=0.6, phi=0.3, r=0.0)
    events = run_realization(g, p, seed=9, seeds=[0, 1], horizon_days=50)
    for e in events:
        if e.day > 0:
            assert e.features[0] >= 1


def test_stop_rule_first_crossing_day():
    for seed in range(5):
        g = graph_from(np.random.default_rng(seed).integers(0, 200, (800, 2)), 200)
        p = params_for(200, beta=0.4, r=0.01, activity=0.9)
        events = run_realization(g, p, seed=seed, horizon_days=100)
        n, stop_at = 200, math.ceil(0.18 * 200)
        per_day = {}
        for e in events:
            per_day[e.day] = per_day.get(e.day, 0) + 1
        cum, crossing = 0, None
        for d in range(101):
            cum += per_day.get(d, 0)
            if cum >= stop_at:
                crossing = d
                break
        if crossing is not None:
            assert max(per_day) == crossing  # no events after the crossing day
        else:
            assert max(per_day, default=0) <= 99


def test_params_graph_size_mismatch():
    g = graph_from([(0, 1)], 2)
    from contagion_lab.errors import DataError

    with pytest.raises(DataError):
        run_realization(g, params_for(3), seed=0)


@pytest.mark.parametrize("seeds", [-1, 4, [-1], [3], [1, 1]])
def test_bad_seeds_are_data_errors(seeds):
    # numpy would wrap id -1 to node n-1, and a repeated id would adopt twice
    g = graph_from([(0, 1), (1, 2)], 3)
    from contagion_lab.errors import DataError

    with pytest.raises(DataError):
        run_realization(g, params_for(3), seed=0, seeds=seeds)
    for ok in (0, 3, [0, 2]):
        run_realization(g, params_for(3), seed=0, seeds=ok)


# -- full replay oracle ---------------------------------------------------------


def replay_oracle(g, p, seed, seeds, horizon):
    """Plain-python reimplementation consuming the same draw stream."""
    n = g.node_count
    rng = stream(seed, REALIZATION, 0)
    if isinstance(seeds, int):
        seeds = rng.choice(n, size=seeds, replace=False).tolist()
    adopted = {}
    for s in seeds:
        adopted[s] = 0
    out = []
    for s in sorted(seeds):
        out.append((s, 0, "Spontaneous", ("Spontaneous",)))
    k = {u: len(g.followees(u)) for u in range(n)}
    peak = p.shock_schedule.gamma.max() if len(p.shock_schedule) else 1.0
    for day in range(horizon):
        ua, us, ur, uh, ut = (rng.random(n) for _ in range(5))
        lam = shock_intensity(p.shock_schedule, day)
        p_shock = min(1.0, p.shock_prob_at_peak * lam / peak) if len(p.shock_schedule) and p.shock_prob_at_peak else 0.0
        todays = []
        for u in range(n):
            if u in adopted:  # extended only at day end: eve snapshot
                continue
            if ua[u] >= p.activity[u]:
                continue
            m = sum(1 for v in g.followees(u) if v in adopted and adopted[v] < day)
            names = []
            if us[u] < 1.0 - (1.0 - p.beta[u]) ** m:
                names.append("Simple")
            if k[u] > 0 and m / k[u] >= p.phi[u]:
                names.append("Complex")
            if ur[u] < p.r:
                names.append("Spontaneous")
            if uh[u] < p_shock:
                names.append("Shock")
            if names:
                todays.append((u, names, names[int(ut[u] * len(names))]))
        for u, names, label in todays:
            adopted[u] = day
            out.append((u, day, label, tuple(names)))
    return out


# seeds: explicit ids or a count; hot: every rule's rate high, so ties of
# two, three and four rules reach the vectorized pick
ORACLE_CASES = {
    "explicit-seeds": dict(seed=77, seeds=[3, 8], stop=1.0, hot=False),
    "int-seeds": dict(seed=5, seeds=4, stop=1.0, hot=False),
    "early-stop": dict(seed=19, seeds=[0, 1], stop=0.5, hot=False),
    "every-rule-hot": dict(seed=42, seeds=[5], stop=1.0, hot=True),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_engine_matches_replay_oracle(case):
    c = ORACLE_CASES[case]
    rng = np.random.default_rng(33)
    g = graph_from(rng.integers(0, 30, (150, 2)), 30)
    sched = ShockSchedule(np.array([4, 11]), np.array([0.5, 1.0]), np.array([0.8, 1.2]))
    if c["hot"]:
        p = MechanismParams(
            beta=rng.uniform(0.6, 0.95, 30),
            phi=rng.uniform(0.02, 0.1, 30),
            r=0.5,
            activity=rng.uniform(0.1, 0.3, 30),
            shock_schedule=sched,
            shock_prob_at_peak=1.0,
        )
    else:
        p = MechanismParams(
            beta=rng.uniform(0.05, 0.9, 30),
            phi=rng.uniform(0.1, 0.6, 30),
            r=0.03,
            activity=rng.uniform(0.3, 1.0, 30),
            shock_schedule=sched,
            shock_prob_at_peak=0.4,
        )
    events = run_realization(
        g, p, seed=c["seed"], seeds=c["seeds"], horizon_days=15, stop_fraction=c["stop"]
    )
    got = [(e.node, e.day, MECHANISMS[e.mechanism], FIRED_NAMES[e.fired]) for e in events]
    want = replay_oracle(g, p, seed=c["seed"], seeds=c["seeds"], horizon=15)
    # the oracle runs the whole horizon; the engine stops after the first
    # day on which the adopted count reaches stop * n
    crossing = next((w[1] for i, w in enumerate(want) if i + 1 >= c["stop"] * 30), 15)
    want = [w for w in want if w[1] <= crossing]
    assert got == want
    if c["hot"]:
        assert {2, 3, 4} <= {len(fired) for *_, fired in got}


# -- ensembles -------------------------------------------------------------------


def make_world(seed=0, n=120):
    rng = np.random.default_rng(seed)
    g = graph_from(rng.integers(0, n, (n * 6, 2)), n)
    p = params_for(n, beta=0.35, phi=0.4, r=0.005, activity=0.7)
    return g, p


def test_ensemble_dedup_matches_hash_oracle():
    g, p = make_world()
    res = run_ensemble(g, p, n_realizations=10, seed0=4, horizon_days=40, seeds=[0])
    seen = set()
    merged = []
    for i in range(10):
        merged.extend(
            run_realization(g, p, seed=4, seeds=[0], horizon_days=40, realization_id=i)
        )
    for e in merged:
        seen.add((e.mechanism, tuple(e.features)))
    assert len(res.events) == len(seen)
    assert sum(res.counts_before.values()) == len(merged)
    assert sum(res.counts_after.values()) == len(res.events)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"horizon_days": 0}, "horizon must be at least 1 day, got 0"),
        ({"horizon_days": -3}, "horizon must be at least 1 day, got -3"),
        ({"stop_fraction": float("nan")}, "stop fraction must be > 0, got nan"),
        ({"stop_fraction": 0.0}, "stop fraction must be > 0, got 0.0"),
        ({"stop_fraction": -0.5}, "stop fraction must be > 0, got -0.5"),
    ],
)
def test_ensemble_rejects_a_horizon_or_stop_it_cannot_use(monkeypatch, bad, message):
    g, p = make_world()

    def never(*args, **kwargs):
        raise AssertionError("a realization ran")

    monkeypatch.setattr(cascade, "run_realization", never)
    with pytest.raises(DataError, match=message):
        run_ensemble(g, p, n_realizations=2, **{"horizon_days": 10, **bad})


def test_ensemble_stop_fraction_above_one_runs_to_the_horizon():
    # nobody adopts once everyone has, so a fraction above 1 gives the events of 1
    g, p = make_world()
    a, b = (run_ensemble(g, p, n_realizations=2, seed0=4, horizon_days=12, seeds=[0],
                         stop_fraction=stop) for stop in (1.0, 1.5))
    assert len(a.events) and a.events.tobytes() == b.events.tobytes()


def test_ensemble_parallel_equals_serial():
    g, p = make_world(1)
    a = run_ensemble(g, p, n_realizations=6, seed0=2, horizon_days=30, n_jobs=1, seeds=[0])
    b = run_ensemble(g, p, n_realizations=6, seed0=2, horizon_days=30, n_jobs=3, seeds=[0])
    assert len(a.events) == len(b.events)
    for x, y in zip(a.events, b.events):
        assert (x.node, x.day, x.realization, x.mechanism) == (
            y.node,
            y.day,
            y.realization,
            y.mechanism,
        )
    assert a.counts_before == b.counts_before


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_ensemble_merged_as_it_arrives_is_the_one_pass_dedup(n_jobs):
    # dedup of (rows kept so far ++ next tables) keeps first occurrences, so
    # merging tables as they arrive (here six dedups for nine tables, some
    # joining two at once) gives the bytes of one pass over them all
    g, p = make_world(5)
    tables = [run_realization(g, p, seed=7, seeds=[0], horizon_days=30, realization_id=i)
              for i in range(9)]
    merged = np.concatenate(tables).view(np.recarray)
    res = run_ensemble(g, p, n_realizations=9, seed0=7, horizon_days=30, seeds=[0],
                       n_jobs=n_jobs)
    assert len(res.events) < len(merged)
    assert res.events.tobytes() == dedup_events(merged).tobytes()
    assert res.first_realization.tobytes() == tables[0].tobytes()
    assert res.counts_before == mechanism_counts(merged)
    assert res.counts_after == mechanism_counts(res.events)


def test_ensemble_holds_the_kept_rows_not_every_table(monkeypatch):
    # between realizations an ensemble holds realization 0's table, the
    # deduplicated rows so far and the tables waiting to join them: 152.4 kB
    # at most here (90.5 kB of them the two tables it returns), where keeping
    # every table until the last one ended held 1,714.9 kB
    g, p = make_world(6, n=2000)
    held = []
    run = cascade.run_realization

    def observed(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(cascade, "run_realization", observed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run_ensemble(g, p, n_realizations=40, seed0=8, horizon_days=30, seeds=[0])
    finally:
        tracemalloc.stop()
    assert sum(res.counts_before.values()) > 8 * len(res.events)
    tables = res.events.nbytes + res.first_realization.nbytes
    assert max(held) - base <= 3 * tables


def test_identical_realizations_collapse():
    g, p = make_world(2)
    single = run_realization(g, p, seed=6, seeds=[0], horizon_days=30)
    doubled = dedup_events(np.concatenate([single, single]).view(np.recarray))
    assert len(doubled) == len(dedup_events(single))


def test_mechanism_counts():
    g = graph_from([(0, 1)], 2)
    events = run_realization(g, params_for(2, r=1.0), seed=0, horizon_days=2)
    counts = mechanism_counts(events)
    assert counts["Spontaneous"] == 2
    assert counts["Simple"] == 0


# -- serialization -----------------------------------------------------------------


def test_events_jsonl_round_trip(tmp_path):
    g, p = make_world(3)
    events = run_realization(g, p, seed=10, seeds=[0], horizon_days=25)
    path = tmp_path / "events.jsonl"
    write_events(events, path)
    back = read_events(path)
    assert len(back) == len(events)
    for x, y in zip(events, back):
        assert (x.node, x.day, x.mechanism, x.fired, x.realization) == (
            y.node,
            y.day,
            y.mechanism,
            y.fired,
            y.realization,
        )
        assert np.array_equal(x.features, y.features)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(mechanism="Shock", fired=["Simple"], day=-5, node=-3), "not in its fired set"),
        (dict(node=-3), "node -3"),
        (dict(day=-5), "day -5"),
        (dict(realization=-1), "realization -1"),
    ],
    ids=["edited record", "negative node", "negative day", "negative realization"],
)
def test_read_events_rejects_records_the_engine_never_writes(tmp_path, change, message):
    g, p = make_world(3)
    path = tmp_path / "events.jsonl"
    write_events(run_realization(g, p, seed=10, seeds=[0], horizon_days=25), path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **change})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as err:
        read_events(path)
    assert (err.value.path, err.value.line) == (str(path), 2)


def test_read_events_fills_its_table_a_line_at_a_time(tmp_path):
    # the table is sized by the file's newlines and filled row by row: 83.1
    # bytes at peak per 82-byte event, where a list of per-line records
    # peaked at 503
    n = 20_000
    rng = np.random.default_rng(9)
    events = np.zeros(n, dtype=EVENT_DTYPE).view(np.recarray)
    events.node = rng.permutation(n)
    events.day = rng.integers(0, 730, n)
    events.mechanism = rng.integers(0, len(MECHANISMS), n)
    events.fired = 1 << events.mechanism
    events.features = rng.random((n, events.features.shape[1]))
    path = tmp_path / "events.jsonl"
    write_events(events, path)
    read_events(path)  # warm: the first read pays for imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = read_events(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.tobytes() == events.tobytes()
    assert peak / n <= 120


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\n\n\n"])
def test_read_events_reads_any_line_ending_and_skips_blank_lines(tmp_path, newline):
    # a lone carriage return ends a line but is no newline byte, so the
    # table grows; blank lines leave rows the table is trimmed of
    g, p = make_world(3)
    events = run_realization(g, p, seed=10, seeds=[0], horizon_days=25)
    path = tmp_path / "events.jsonl"
    write_events(events, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_bytes(newline.join(lines).encode())
    assert read_events(path).tobytes() == events.tobytes()


def test_events_to_log():
    g, p = make_world(4)
    events = run_realization(g, p, seed=11, seeds=[0], horizon_days=25)
    log = events_to_log(events, g.node_count, last_day=24)
    for e in events:
        assert log.adoption_day[e.node] == e.day
    assert len(log.adopters()) == len(events)
    assert np.all(log.adoption_day[log.adoption_day != NEVER] <= 24)
