"""Adoption-time feature extraction."""

import numpy as np
import pytest

from contagion_lab.calibrate import NEVER, AdoptionLog, MechanismParams
from contagion_lab.cascade import events_to_log, run_realization
from contagion_lab.errors import DataError, ParseError
from contagion_lab.features import (
    FEATURE_NAMES,
    eve_features,
    events_feature_matrix,
    extract_features_log,
    read_feature_csv,
    write_feature_csv,
)
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.shocks import ShockSchedule, shock_intensity


def graph_from(edges, n):
    return DirectedGraph.from_edges(np.array(edges, dtype=np.int64), n_nodes=n)


def extract_features(g, adoption_day, shocks, u, t_u):
    """One node's feature row, node u adopting on day t_u."""
    return eve_features(g, adoption_day, shocks, np.array([u]), np.array([t_u]))[0]


def days_of(n, **assigned):
    days = np.full(n, NEVER, dtype=np.int64)
    for node, day in assigned.items():
        days[int(node)] = day
    return days


NO_SHOCKS = ShockSchedule.empty()


def reference_features(g, adoption_day, shocks, u, t_u):
    """Eve features of one node, computed from the definitions node by node."""
    followees = g.followees(u)
    t_v = adoption_day[followees]
    earlier = t_v[(t_v != NEVER) & (t_v < t_u)]
    m = len(earlier)
    k = len(followees)
    sat = m / k if k > 0 else 0.0
    dur = float(t_u - earlier.min()) if m > 0 else -1.0
    rec = float(t_u - earlier.max()) if m > 0 else -1.0
    lam = shock_intensity(shocks, t_u)
    tau = shocks.tau
    if len(tau) == 0 or t_u < tau[0]:
        shock_rec = -1.0
    else:
        j = int(np.searchsorted(tau, t_u, side="right")) - 1
        shock_rec = float(t_u - tau[j])
    return np.array([m, k, sat, dur, rec, lam, shock_rec], dtype=float)


def test_twelve_followee_ego():
    # u follows 12 nodes; two adopted on days 5 and 8; u adopts day 9
    g = graph_from([(0, t) for t in range(1, 13)], 13)
    days = days_of(13, **{"1": 5, "2": 8})
    f = extract_features(g, days, NO_SHOCKS, 0, 9)
    assert f[0] == 2
    assert f[1] == 12
    assert f[2] == pytest.approx(2 / 12)
    assert f[3] == 4.0  # first exposure day 5
    assert f[4] == 1.0  # latest exposure day 8
    assert f[5] == 0.0
    assert f[6] == -1.0


def test_never_exposed_sentinels():
    g = graph_from([(0, 1)], 2)
    f = extract_features(g, days_of(2), NO_SHOCKS, 0, 7)
    assert f[0] == 0 and f[2] == 0.0
    assert f[3] == -1.0 and f[4] == -1.0


def test_zero_degree_saturation():
    g = graph_from([(1, 0)], 2)  # node 0 follows nobody
    f = extract_features(g, days_of(2), NO_SHOCKS, 0, 3)
    assert f[1] == 0 and f[2] == 0.0


def test_peak_day_shock_fields():
    g = graph_from([(0, 1)], 2)
    sched = ShockSchedule(np.array([6]), np.array([1.0]), np.array([0.7]))
    f = extract_features(g, days_of(2), sched, 0, 6)
    assert f[5] == 1.0
    assert f[6] == 0.0
    f2 = extract_features(g, days_of(2), sched, 0, 8)
    assert f2[5] == pytest.approx(3.0 ** (-0.7))
    assert f2[6] == 2.0
    f3 = extract_features(g, days_of(2), sched, 0, 5)
    assert f3[5] == 0.0 and f3[6] == -1.0


def test_no_lookahead():
    g = graph_from([(0, t) for t in range(1, 5)], 5)
    base = days_of(5, **{"1": 2})
    noisy = base.copy()
    noisy[2] = 9  # same day as t_u
    noisy[3] = 20  # future
    f_base = extract_features(g, base, NO_SHOCKS, 0, 9)
    f_noisy = extract_features(g, noisy, NO_SHOCKS, 0, 9)
    assert np.array_equal(f_base, f_noisy)


def test_saturation_times_degree_equals_m():
    rng = np.random.default_rng(8)
    g = graph_from(rng.integers(0, 50, (400, 2)), 50)
    days = np.where(rng.random(50) < 0.5, rng.integers(0, 30, 50), NEVER)
    for u in range(50):
        f = extract_features(g, days, NO_SHOCKS, u, 30)
        if f[1] > 0:
            assert f[2] * f[1] == pytest.approx(f[0])


def test_eve_features_match_reference():
    sched = ShockSchedule(np.array([8, 14]), np.array([0.5, 1.0]), np.array([0.7, 1.3]))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 60
        g = graph_from(rng.integers(0, n, (90, 2)), n)  # sparse: some k = 0
        days = np.where(rng.random(n) < 0.6, rng.integers(0, 25, n), NEVER)
        nodes = rng.integers(0, n, 200)
        # own adoption day where there is one, any day for every other query
        t = np.where(days[nodes] != NEVER, days[nodes], rng.integers(0, 30, 200))
        t[::2] = rng.integers(0, 30, 100)
        shocks = sched if seed % 2 else NO_SHOCKS
        X = eve_features(g, days, shocks, nodes, t)
        assert X.shape == (200, 7)
        for row, u, t_u in zip(X, nodes, t):
            expect = reference_features(g, days, shocks, int(u), int(t_u))
            assert np.array_equal(row, expect), (seed, u, t_u)
        assert np.any(g.in_degree[nodes] == 0) and np.any(t < sched.tau[0])
        assert np.any(days == NEVER) and np.any(t[::2] != days[nodes[::2]])
        assert any(np.any(days[g.followees(int(u))] == t_u) for u, t_u in zip(nodes, t))


def test_round_trip_with_engine_logged_features():
    rng = np.random.default_rng(21)
    g = graph_from(rng.integers(0, 80, (600, 2)), 80)
    sched = ShockSchedule(np.array([5]), np.array([1.0]), np.array([0.9]))
    p = MechanismParams(
        beta=rng.uniform(0.1, 0.8, 80),
        phi=rng.uniform(0.1, 0.5, 80),
        r=0.01,
        activity=rng.uniform(0.4, 1.0, 80),
        shock_schedule=sched,
        shock_prob_at_peak=0.3,
    )
    events = run_realization(g, p, seed=13, seeds=[0, 1], horizon_days=30)
    log = events_to_log(events, 80, last_day=29)
    for e in events:
        f = reference_features(g, log.adoption_day, sched, e.node, e.day)
        assert np.array_equal(f, e.features), (e.node, e.day)


def test_extract_features_log_alignment():
    g = graph_from([(0, 1), (2, 0), (2, 1)], 3)
    log = AdoptionLog(np.array([4, 1, 6]), last_day=9)
    nodes, X = extract_features_log(g, log, NO_SHOCKS)
    assert list(nodes) == [0, 1, 2]
    assert X.shape == (3, 7)
    assert X[0][0] == 1  # node 0 saw node 1 adopt on day 1
    assert X[2][0] == 2  # node 2 saw both


def test_events_feature_matrix():
    g = graph_from([(0, 1)], 2)
    p = MechanismParams(
        beta=np.zeros(2), phi=np.full(2, 2.0), r=1.0, activity=np.ones(2)
    )
    events = run_realization(g, p, seed=2, horizon_days=3)
    X, y = events_feature_matrix(events)
    assert X.shape == (2, 7)
    assert set(y) == {"Spontaneous"}


def test_feature_csv_round_trip(tmp_path):
    X = np.array([[1, 5, 0.2, 3, 1, 0.0, -1], [0, 2, 0.0, -1, -1, 0.5, 2]], dtype=float)
    labels = np.array(["Simple", "Shock"])
    p = tmp_path / "features.csv"
    write_feature_csv(X, p, labels=labels)
    X2, y2 = read_feature_csv(p)
    assert np.array_equal(X, X2)
    assert list(y2) == ["Simple", "Shock"]
    assert p.read_text().splitlines()[0] == ",".join(FEATURE_NAMES) + ",label"


def test_feature_csv_without_labels(tmp_path):
    X = np.array([[1, 5, 0.2, 3, 1, 0.125, -1]])
    p = tmp_path / "features.csv"
    write_feature_csv(X, p)
    X2, y2 = read_feature_csv(p)
    assert np.array_equal(X, X2)
    assert y2 is None


def test_feature_csv_exact_floats(tmp_path):
    # repr round-trip must preserve values bit-for-bit
    X = np.array([[3, 7, 3 / 7, 11, 2, 0.1 + 0.2, -1]])
    p = tmp_path / "f.csv"
    write_feature_csv(X, p)
    X2, _ = read_feature_csv(p)
    assert X2[0][2].tobytes() == X[0][2].tobytes()
    assert X2[0][5].tobytes() == X[0][5].tobytes()


def test_feature_csv_bad_header(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_feature_csv(p)


def test_feature_matrix_wrong_arity(tmp_path):
    with pytest.raises(DataError):
        write_feature_csv(np.ones((2, 5)), tmp_path / "f.csv")


def test_empty_log_raises():
    g = graph_from([(0, 1)], 2)
    log = AdoptionLog(np.array([NEVER, NEVER]), last_day=5)
    with pytest.raises(DataError):
        extract_features_log(g, log, NO_SHOCKS)
