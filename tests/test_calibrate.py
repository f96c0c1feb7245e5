"""Parameter estimation from adoption logs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_lab import calibrate, errors
from contagion_lab.calibrate import (
    NEVER,
    AdoptionLog,
    ExposureIndex,
    MechanismParams,
    assign_from_pools,
    calibrate_activity,
    calibrate_background,
    calibrate_thresholds,
    calibrate_transmission,
    eve_counts,
)
from contagion_lab.errors import DataError, ParseError
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.shocks import ShockSchedule


def graph_from(edges, n):
    return DirectedGraph.from_edges(np.array(edges, dtype=np.int64), n_nodes=n)


def log_from(days, **kw):
    return AdoptionLog(np.array(days, dtype=np.int64), **kw)


def traced(f):
    """(f(), the bytes it keeps, its peak bytes), by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


# -- transmission ------------------------------------------------------------


def test_beta_reciprocal_of_exposure():
    # node 0 follows 1..5; 1..4 adopt day 1, 5 adopts day 3 (same day as 0)
    g = graph_from([(0, t) for t in range(1, 6)], 6)
    log = log_from([3, 1, 1, 1, 1, 3])
    pool = calibrate_transmission(g, log)
    assert pool.values[pool.nodes == 0] == pytest.approx(0.25)


def test_beta_single_exposure_is_one():
    g = graph_from([(0, 1)], 2)
    log = log_from([5, 2])
    pool = calibrate_transmission(g, log)
    assert list(pool.nodes) == [0]
    assert pool.values[0] == 1.0


def test_zero_exposure_adopters_excluded():
    g = graph_from([(0, 1)], 2)
    log = log_from([2, 5])  # followee adopts after node 0: no eve exposure
    with pytest.raises(DataError):
        calibrate_transmission(g, log)


def brute_pools(g, log):
    """Plain-python recomputation of both pools and the background rate."""
    betas, phis, zero_exp = {}, {}, 0
    for u in range(g.node_count):
        t = log.adoption_day[u]
        if t == NEVER or (log.shock_mask is not None and log.shock_mask[t - log.first_day]):
            continue
        m = sum(
            1
            for v in g.followees(u)
            if log.adoption_day[v] != NEVER and log.adoption_day[v] < t
        )
        k = len(g.followees(u))
        if m > 0:
            betas[u] = 1.0 / m
            if k > 0:
                phis[u] = m / k
        else:
            zero_exp += 1
    sus = sum(
        log.horizon_days if log.adoption_day[u] == NEVER else int(log.adoption_day[u]) - log.first_day
        for u in range(g.node_count)
    )
    return betas, phis, zero_exp / sus if sus else None


def random_world(seed, n=200, n_edges=1200, adopt_frac=0.4, horizon=60):
    rng = np.random.default_rng(seed)
    g = graph_from(rng.integers(0, n, size=(n_edges, 2)), n)
    days = np.full(n, NEVER, dtype=np.int64)
    adopters = rng.choice(n, size=int(n * adopt_frac), replace=False)
    days[adopters] = rng.integers(0, horizon, size=len(adopters))
    return g, AdoptionLog(days, first_day=0, last_day=horizon - 1)


def shock_masked_world(seed, first_day=10, horizon=60):
    g, log = random_world(seed, horizon=horizon)
    days = np.where(log.adoption_day == NEVER, NEVER, log.adoption_day + first_day)
    mask = np.zeros(horizon, dtype=bool)
    mask[[3, 4, 5, 30, 31]] = True
    return g, AdoptionLog(
        days, first_day=first_day, last_day=first_day + horizon - 1, shock_mask=mask
    )


def test_pools_match_brute_force():
    worlds = [random_world(seed) for seed in range(3)] + [shock_masked_world(3)]
    for g, log in worlds:
        eb, ep, er = brute_pools(g, log)
        beta = calibrate_transmission(g, log)
        phi = calibrate_thresholds(g, log)
        r = calibrate_background(g, log)
        assert {int(u): v for u, v in zip(beta.nodes, beta.values)} == eb
        assert {int(u): v for u, v in zip(phi.nodes, phi.values)} == ep
        assert r == er


def test_pool_ranges():
    g, log = random_world(11)
    beta = calibrate_transmission(g, log)
    phi = calibrate_thresholds(g, log)
    assert np.all(beta.values > 0) and np.all(beta.values <= 1)
    assert np.all(phi.values > 0) and np.all(phi.values <= 1)


# -- thresholds ----------------------------------------------------------------


def test_phi_fraction_of_followees():
    # node 0 follows 20 nodes; 3 adopt day 1; node 0 adopts day 2
    g = graph_from([(0, t) for t in range(1, 21)], 21)
    days = [NEVER] * 21
    days[0] = 2
    for v in (1, 2, 3):
        days[v] = 1
    pool = calibrate_thresholds(g, log_from(days))
    assert list(pool.nodes) == [0]
    assert pool.values[0] == pytest.approx(0.15)


def test_phi_k_zero_excluded():
    # node 2 has no followees but adopts; node 0 qualifies
    g = graph_from([(0, 1), (1, 0)], 3)
    pool = calibrate_thresholds(g, log_from([4, 1, 4]))
    assert 2 not in pool.nodes


def test_phi_constant_half_pool():
    # every adopter has exactly half its followees adopted earlier
    edges = []
    for u in (0, 1):
        edges += [(u, 2), (u, 3), (u, 4), (u, 5)]
    g = graph_from(edges, 6)
    days = [5, 5, 1, 1, NEVER, NEVER]
    pool = calibrate_thresholds(g, log_from(days))
    assert set(pool.values) == {0.5}


# -- background ----------------------------------------------------------------


def test_background_rate_hand_case():
    # 3 isolated day-0 adopters, 100 nodes never adopting over 500 days
    g = graph_from(np.empty((0, 2)), 103)
    days = [0, 0, 0] + [NEVER] * 100
    r = calibrate_background(g, log_from(days, first_day=0, last_day=499))
    assert r == pytest.approx(6.0e-5, abs=1e-15)


def test_background_zero_when_all_exposed():
    # the seed adopter falls inside a shock period; the one qualifying
    # adopter has positive exposure, so the numerator is empty
    g = graph_from([(1, 0)], 2)
    mask = np.zeros(10, dtype=bool)
    mask[0] = True
    log = log_from([0, 3], last_day=9, shock_mask=mask)
    assert calibrate_background(g, log) == 0.0


def test_background_relabel_invariance():
    g, log = random_world(5)
    r = calibrate_background(g, log)
    perm = np.random.default_rng(0).permutation(g.node_count)
    edges = g.edges()
    g2 = graph_from(np.column_stack([perm[edges[:, 0]], perm[edges[:, 1]]]), g.node_count)
    days2 = np.empty_like(log.adoption_day)
    days2[perm] = log.adoption_day
    log2 = AdoptionLog(days2, first_day=log.first_day, last_day=log.last_day)
    assert calibrate_background(g2, log2) == r


def test_background_zero_person_time_raises():
    g = graph_from(np.empty((0, 2)), 2)
    with pytest.raises(DataError):
        calibrate_background(g, log_from([0, 0], last_day=0))


# -- shock-period exclusion ------------------------------------------------------


def test_shock_adopters_excluded_from_pools():
    g = graph_from([(0, 1), (2, 1)], 3)
    days = np.array([3, 1, 3], dtype=np.int64)
    mask = np.zeros(6, dtype=bool)
    mask[3] = True  # day 3 is a shock day
    clean = AdoptionLog(days, last_day=5)
    shocked = AdoptionLog(days, last_day=5, shock_mask=mask)
    assert calibrate_transmission(g, clean).n == 2
    with pytest.raises(DataError):
        calibrate_transmission(g, shocked)  # both exposed adopters fall in shock


def test_shock_exclusion_never_grows_pool():
    for seed in range(3):
        g, log = random_world(seed, horizon=40)
        mask = np.zeros(log.horizon_days, dtype=bool)
        mask[10:20] = True
        masked = AdoptionLog(
            log.adoption_day, log.first_day, log.last_day, shock_mask=mask
        )
        assert calibrate_transmission(g, masked).n <= calibrate_transmission(g, log).n


# -- activity ---------------------------------------------------------------------


def test_activity_equal_counts_hit_target():
    a = calibrate_activity(np.full(50, 17))
    assert np.allclose(a, 0.032)


def test_activity_zero_and_unit():
    a = calibrate_activity(np.array([0.0, np.e - 1.0]))
    assert a[0] == 0.0
    assert a[1] == pytest.approx(0.064)
    assert a.mean() == pytest.approx(0.032)


def test_activity_oracle_recomputation():
    counts = np.array([0, 1, 4, 9, 99])
    a = calibrate_activity(counts, target_mean=0.05)
    raw = np.log1p(counts.astype(float))
    assert np.allclose(a, raw * 0.05 / raw.mean())
    doubled = calibrate_activity(counts * 2, target_mean=0.05)
    raw2 = np.log1p(2.0 * counts)
    assert np.allclose(doubled, raw2 * 0.05 / raw2.mean())


def test_activity_all_zero_raises():
    with pytest.raises(DataError):
        calibrate_activity(np.zeros(5))


# -- log container -----------------------------------------------------------------


def test_log_csv_round_trip(tmp_path):
    g, log = random_world(2, n=40, n_edges=100)
    p = tmp_path / "log.csv"
    log.to_csv(p, g)
    log2 = AdoptionLog.from_csv(p, g, first_day=0, last_day=log.last_day)
    assert np.array_equal(log.adoption_day, log2.adoption_day)


def test_log_duplicate_node_raises(tmp_path):
    g = graph_from([(0, 1)], 2)
    p = tmp_path / "log.csv"
    p.write_text("node,day\n0,1\n0,2\n")
    with pytest.raises(ParseError):
        AdoptionLog.from_csv(p, g)


def test_log_read_keeps_one_day_per_node(tmp_path):
    # labels are resolved against the id text: 8.0 bytes per node stay (the
    # day array), where an id tuple and an id dict on the graph kept 118
    n = 20_000
    g = DirectedGraph.from_edges(np.empty((0, 2), np.int64), n_nodes=n)
    days = np.where(np.random.default_rng(1).random(n) < 0.25, 3, NEVER)
    log_from(days, last_day=10).to_csv(tmp_path / "log.csv", g)
    g = DirectedGraph.from_edges(np.empty((0, 2), np.int64), n_nodes=n)
    log, kept, _ = traced(lambda: AdoptionLog.from_csv(tmp_path / "log.csv", g))
    assert np.array_equal(log.adoption_day, days)
    assert kept <= 16 * n


def test_log_day_outside_horizon_raises():
    with pytest.raises(DataError):
        log_from([5], first_day=0, last_day=3)


def test_exposure_strictly_before_day():
    g = graph_from([(0, 1), (0, 2)], 3)
    log = log_from([NEVER, 4, 6], last_day=9)
    index = ExposureIndex(g.followee_csr(), log.adoption_day)
    m, first, last = index.exposure([0, 0, 0, 1], [4, 5, 7, 7])
    assert list(m) == [0, 1, 2, 0]  # same-day excluded; node 1 follows nobody
    assert list(first) == [NEVER, 4, 4, NEVER]
    assert list(last) == [NEVER, 4, 6, NEVER]
    # cutoffs at or before day 0 see nothing; past the last adoption, everything
    m, first, last = index.exposure([0, 0, 0, 2], [-3, 0, 10**6, 10**6])
    assert list(m) == [0, 0, 2, 0]
    assert list(first) == [NEVER, NEVER, 4, NEVER]
    assert list(last) == [NEVER, NEVER, 6, NEVER]
    # a log with no adopters
    none = ExposureIndex(g.followee_csr(), np.full(3, NEVER))
    m, first, last = none.exposure([0, 1, 2, 0], [0, 5, 10**6, -1])
    assert list(m) == [0, 0, 0, 0]
    assert list(first) == list(last) == [NEVER] * 4


def test_exposure_huge_days_match_loop():
    # days near 2e15 on 5k nodes: a raw node * (max_day + 2) + day key would
    # overflow int64, so the index must key days by rank
    rng = np.random.default_rng(8)
    n, base = 5000, 2 * 10**15
    g = graph_from(rng.integers(0, n, size=(40_000, 2)), n)
    days = base + rng.integers(0, 50, size=n)
    days[rng.random(n) < 0.5] = NEVER
    days[:2] = [0, base + 10**6]
    log = log_from(days)
    nodes = rng.integers(0, n, size=3000)
    cut = rng.choice(np.array([0, 1, base, base + 25, base + 60, base + 10**6 + 1]), 3000)
    m, first, last = ExposureIndex(g.followee_csr(), log.adoption_day).exposure(nodes, cut)
    for i, (u, t) in enumerate(zip(nodes, cut)):
        t_v = log.adoption_day[g.followees(u)]
        t_v = t_v[(t_v != NEVER) & (t_v < t)]
        assert m[i] == len(t_v)
        assert first[i] == (t_v.min() if len(t_v) else NEVER)
        assert last[i] == (t_v.max() if len(t_v) else NEVER)


def old_exposure_index(csr, adoption_day):
    """(_days, _span, _key, _start) as the index once built them, from every
    edge's day and an edge-length owner column."""
    ptr, nbr = csr
    n = len(ptr) - 1
    t_v = adoption_day[nbr]
    hit = t_v != NEVER
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))[hit]
    d = np.sort(adoption_day[adoption_day != NEVER])
    days = d[np.diff(d, prepend=NEVER) != 0]
    span = len(days) + 1
    key = np.sort(owner * span + np.searchsorted(days, t_v[hit]))
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    return days, span, key, start


def test_exposure_index_from_adopted_edges_equals_edge_scan():
    # the index reads only the adopted neighbors' entries; its arrays must be
    # the ones a scan of every edge gives
    rng = np.random.default_rng(12)
    for trial in range(500):
        n = int(rng.integers(1, 40))
        deg = rng.integers(0, 6, n) * (rng.random(n) < 0.7)  # many zero-degree nodes
        ptr = np.r_[0, np.cumsum(deg)].astype(np.int64)
        nbr = rng.integers(0, n, int(ptr[-1])).astype(np.int64)
        days = rng.integers(-3, 12, n)
        days[rng.random(n) < rng.choice([0.0, 0.5, 1.0])] = NEVER  # some logs adopt nobody
        index = ExposureIndex((ptr, nbr), days)
        want_days, want_span, want_key, want_start = old_exposure_index((ptr, nbr), days)
        assert index._span == want_span, trial
        for got, want in ((index._days, want_days), (index._key, want_key),
                          (index._start, want_start)):
            assert got.dtype == want.dtype and np.array_equal(got, want), trial


@pytest.mark.parametrize("chunk", [1, 4])
def test_exposure_index_chunks_may_split_a_node_list(chunk, monkeypatch):
    # the key is built a chunk of nbr at a time; a chunk may start or end
    # inside a node's list, or hold only part of one
    monkeypatch.setattr(calibrate, "_CHUNK", chunk)
    test_exposure_index_from_adopted_edges_equals_edge_scan()


def test_exposure_index_build_stays_under_30_bytes_per_entry():
    # beyond the one adopted-or-not byte per edge: the key, the gathered day
    # ranks and one int32 gather, 20.8 bytes per adopted-neighbor entry here
    # (five int64 columns peaked at 37.4)
    rng = np.random.default_rng(6)
    n = 20_000
    g = graph_from(rng.integers(0, n, size=(240_000, 2)), n)
    days = np.where(rng.random(n) < 0.3, rng.integers(0, 50, n), NEVER)
    ptr, nbr = g.followee_csr()
    entries = np.count_nonzero((days != NEVER)[nbr])
    _, _, peak = traced(lambda: ExposureIndex((ptr, nbr), days))
    assert peak - len(nbr) <= 30 * entries


def test_exposure_index_build_writes_its_key_a_chunk_at_a_time():
    # the key is written into a buffer a counting pass sized, so no
    # edge-length mask, position array or gathered day ranks are held whole:
    # 15.6 bytes per adopted-neighbor entry here in all (it was 24.1)
    rng = np.random.default_rng(6)
    n = 20_000
    g = graph_from(rng.integers(0, n, size=(240_000, 2)), n)
    days = np.where(rng.random(n) < 0.3, rng.integers(0, 50, n), NEVER)
    ptr, nbr = g.followee_csr()
    entries = np.count_nonzero((days != NEVER)[nbr])
    index, _, peak = traced(lambda: ExposureIndex((ptr, nbr), days))
    assert peak <= 20 * entries, peak / entries
    nodes = np.arange(n)
    want = [np.count_nonzero((days[nbr[ptr[v] : ptr[v + 1]]] != NEVER)
                             & (days[nbr[ptr[v] : ptr[v + 1]]] < 30)) for v in nodes]
    assert np.array_equal(index.count(nodes, 30), want)


@st.composite
def exposure_worlds(draw):
    """A small graph, adoption days on 0..9 (some NEVER) and one-day queries
    from before the first to past the last adoption day, each with its nodes
    (repeats allowed)."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    days = draw(st.lists(st.sampled_from([NEVER, *range(10)]), min_size=n, max_size=n))
    queries = draw(st.lists(st.tuples(st.integers(-2, 12), st.lists(node, max_size=2 * n)),
                            min_size=1, max_size=12))
    return graph_from(edges or np.empty((0, 2)), n), np.array(days, dtype=np.int64), queries


def brute_count(csr, days, nodes, day):
    ptr, nbr = csr
    return [np.count_nonzero((days[nbr[ptr[v] : ptr[v + 1]]] != NEVER)
                             & (days[nbr[ptr[v] : ptr[v + 1]]] < day)) for v in nodes]


@settings(max_examples=200, deadline=None)
@given(exposure_worlds())
def test_one_day_counts_equal_a_neighbor_scan(world):
    # the running counts must give every query order what a scan of each
    # node's neighbors gives: as drawn (repeats and jumps back), forward,
    # backward, with fewer cursors than query days, and with no adopters
    g, days, queries = world
    forward = sorted(queries, key=lambda q: q[0])
    orders = (queries, forward, forward[::-1], queries + queries)
    for csr in (g.followee_csr(), g.follower_csr(), g.mutual_csr()):
        for log_days in (days, np.full(len(days), NEVER)):
            for cursors in (1, calibrate._CURSORS):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(calibrate, "_CURSORS", cursors)
                    for order in orders:
                        index = ExposureIndex(csr, log_days)
                        for day, nodes in order:
                            got = index.count(np.array(nodes, dtype=np.int64), day)
                            want = index.count(nodes, np.full(len(nodes), day))
                            assert got.dtype == want.dtype == np.int64
                            assert got.tolist() == brute_count(csr, log_days, nodes, day)
                            assert np.array_equal(got, want)
                        assert len(index._cursors) <= cursors


def test_per_row_days_never_build_the_day_ordered_copy(monkeypatch):
    # calibrate and features query with one day per row, so their indexes
    # never hold the day-ordered copy or a cursor
    from contagion_lab import features
    from contagion_lab.shocks import ShockSchedule

    built = []

    class Recorded(ExposureIndex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(calibrate, "ExposureIndex", Recorded)
    monkeypatch.setattr(features, "ExposureIndex", Recorded)
    rng = np.random.default_rng(3)
    n = 200
    g = graph_from(rng.integers(0, n, size=(1500, 2)), n)
    days = np.where(rng.random(n) < 0.4, rng.integers(0, 30, n), NEVER)
    log = log_from(days, last_day=40)
    calibrate_background(g, log)
    nodes = log.adopters()
    features.eve_features(g, days, ShockSchedule.empty(), nodes, days[nodes])
    index = Recorded(g.followee_csr(), days)
    nodes = rng.integers(0, n, 500)
    index.count(nodes, rng.integers(-1, 32, 500))
    index.exposure(nodes, rng.integers(-1, 32, 500))
    assert len(built) == 3
    assert all("_by_day" not in vars(ix) and ix._cursors == [] for ix in built)
    # a one-day query builds it, and keeps one count per node per cursor used
    want = index.count(nodes, np.full(500, 12))
    assert np.array_equal(index.count(nodes, 12), want)
    assert "_by_day" in vars(index) and len(index._cursors) == 1
    assert index._cursors[0][1].shape == (n,)


# -- params container ----------------------------------------------------------------


def test_params_json_round_trip(tmp_path):
    sched = ShockSchedule(np.array([4]), np.array([1.0]), np.array([0.7]))
    p = MechanismParams(
        beta=np.array([0.1, 0.5]),
        phi=np.array([0.2, 2.0]),
        r=6e-5,
        activity=np.array([0.03, 0.5]),
        shock_schedule=sched,
        shock_prob_at_peak=0.02,
    )
    path = tmp_path / "params.json"
    p.to_json(path)
    q = MechanismParams.from_json(path)
    assert np.allclose(p.beta, q.beta)
    assert np.allclose(p.phi, q.phi)
    assert q.r == p.r
    assert np.allclose(p.activity, q.activity)
    assert np.array_equal(p.shock_schedule.tau, q.shock_schedule.tau)
    assert q.shock_prob_at_peak == 0.02


def test_params_json_peak_is_bounded_by_the_chunk_not_the_nodes(tmp_path):
    # the per-node columns are written a chunk at a time: 2.1 MiB (137 bytes
    # per chunk row) at 100k nodes, where one json.dumps of their lists
    # peaked at 20.7 MiB
    n = 100_000
    rng = np.random.default_rng(4)
    p = MechanismParams(beta=rng.random(n), phi=rng.random(n) + 0.1, r=0.01,
                        activity=rng.random(n))
    _, _, peak = traced(lambda: p.to_json(tmp_path / "params.json"))
    assert peak <= 256 * errors._CHUNK_ROWS
    assert MechanismParams.from_json(tmp_path / "params.json").beta.tolist() == p.beta.tolist()


def test_params_validation():
    ok = dict(
        beta=np.array([0.5]), phi=np.array([0.5]), r=0.0, activity=np.array([0.5])
    )
    MechanismParams(**ok)
    with pytest.raises(DataError):
        MechanismParams(**{**ok, "beta": np.array([1.5])})
    with pytest.raises(DataError):
        MechanismParams(**{**ok, "phi": np.array([0.0])})
    with pytest.raises(DataError):
        MechanismParams(**{**ok, "r": -0.1})
    with pytest.raises(DataError):
        MechanismParams(**{**ok, "activity": np.array([1.5])})


def test_assign_from_pools_deterministic():
    beta_pool = np.array([0.1, 0.25, 1.0])
    phi_pool = np.array([0.05, 0.146])
    act = np.full(100, 0.032)
    p1 = assign_from_pools(100, beta_pool, phi_pool, 6e-5, act, seed=9)
    p2 = assign_from_pools(100, beta_pool, phi_pool, 6e-5, act, seed=9)
    assert np.array_equal(p1.beta, p2.beta)
    assert np.array_equal(p1.phi, p2.phi)
    assert set(p1.beta) <= set(beta_pool)
    assert set(p1.phi) <= set(phi_pool)
    p3 = assign_from_pools(100, beta_pool, phi_pool, 6e-5, act, seed=10)
    assert not np.array_equal(p1.beta, p3.beta)
