"""Degree vs adoption-order correlation test."""

import numpy as np
import pytest
from scipy import stats

from contagion_lab.calibrate import NEVER, AdoptionLog
from contagion_lab.errors import DataError
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.structtest import average_ranks, degree_order_test
from contagion_lab.synthgen import SynthConfig, gen_graph, gen_pure_cascade
from tests.test_synthgen import base_params


def graph_with_followee_counts(counts, pool=40):
    """Node i follows the first counts[i] pool nodes (ids len(counts)..)."""
    edges = []
    n = len(counts)
    for i, c in enumerate(counts):
        for j in range(c):
            edges.append((i, n + j))
    return DirectedGraph.from_edges(np.array(edges), n_nodes=n + pool)


def log_over(n_total, days_by_node, horizon):
    days = np.full(n_total, NEVER, dtype=np.int64)
    for node, day in days_by_node.items():
        days[node] = day
    return AdoptionLog(days, first_day=0, last_day=horizon - 1)


def test_descending_degree_order_perfect_negative():
    counts = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    g = graph_with_followee_counts(counts, pool=10)
    log = log_over(g.node_count, {i: i for i in range(9)}, 20)
    res = degree_order_test(g, log)
    assert res.rho == pytest.approx(-1.0)
    assert res.p_value == 0.0
    assert res.n == 9


def test_matches_scipy_oracle():
    rng = np.random.default_rng(3)
    for seed in range(5):
        counts = rng.integers(1, 30, size=50).tolist()
        g = graph_with_followee_counts(counts, pool=35)
        days = {i: int(d) for i, d in enumerate(rng.integers(0, 25, size=50))}
        log = log_over(g.node_count, days, 30)
        res = degree_order_test(g, log)
        deg = g.in_degree[:50]
        day_arr = np.array([days[i] for i in range(50)])
        want_rho, want_p = stats.spearmanr(deg, day_arr)
        assert res.rho == pytest.approx(want_rho, abs=1e-12)
        assert res.p_value == pytest.approx(want_p, abs=1e-10)


@pytest.mark.parametrize(
    "a",
    [
        [7.5],
        [3.0, 3.0, 3.0, 3.0],
        np.array([4, 1, 4, 2, 1, 4, 0, 2], dtype=np.int64),
        [np.inf, -1.0, -np.inf, np.inf, 0.0, -np.inf, 2.5, 0.0],
        [-np.inf, -np.inf],
    ],
)
def test_average_ranks_match_scipy(a):
    want = stats.rankdata(a, method="average")
    got = average_ranks(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_average_ranks_match_scipy_random_ties():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        a = rng.integers(-4, 5, size=n).astype(float)
        a[rng.random(n) < 0.1] = np.inf
        a[rng.random(n) < 0.1] = -np.inf
        assert np.array_equal(average_ranks(a), stats.rankdata(a, method="average"))


def test_monotone_degree_transform_invariance():
    base = [1, 2, 3, 5, 8, 13, 21]
    squared = [c * c for c in base]
    days = {i: (3 * i + 1) % 7 for i in range(7)}
    g1 = graph_with_followee_counts(base, pool=max(base) + 1)
    g2 = graph_with_followee_counts(squared, pool=max(squared) + 1)
    r1 = degree_order_test(g1, log_over(g1.node_count, days, 10))
    r2 = degree_order_test(g2, log_over(g2.node_count, days, 10))
    assert r1.rho == pytest.approx(r2.rho, abs=1e-12)


def test_reversed_order_negates_rho():
    rng = np.random.default_rng(8)
    counts = rng.integers(1, 20, size=40).tolist()
    g = graph_with_followee_counts(counts, pool=25)
    days = {i: int(d) for i, d in enumerate(rng.integers(0, 15, size=40))}
    fwd = degree_order_test(g, log_over(g.node_count, days, 16))
    flipped = {i: 15 - d for i, d in days.items()}
    rev = degree_order_test(g, log_over(g.node_count, flipped, 16))
    assert fwd.rho == pytest.approx(-rev.rho, abs=1e-12)


def test_permutation_null_rarely_significant():
    rng = np.random.default_rng(5)
    counts = rng.integers(1, 40, size=200).tolist()
    g = graph_with_followee_counts(counts, pool=45)
    base_days = np.arange(200) % 37
    hits = 0
    for _ in range(100):
        perm = rng.permutation(200)
        days = {i: int(base_days[perm[i]]) for i in range(200)}
        res = degree_order_test(g, log_over(g.node_count, days, 40))
        if res.p_value > 0.05:
            hits += 1
    assert hits >= 90


def test_degree_kinds():
    rng = np.random.default_rng(2)
    g = DirectedGraph.from_edges(rng.integers(0, 30, (150, 2)), n_nodes=30)
    days = {i: int(d) for i, d in enumerate(rng.integers(0, 10, size=30))}
    log = log_over(30, days, 12)
    r_in = degree_order_test(g, log, "in")
    r_out = degree_order_test(g, log, "out")
    r_tot = degree_order_test(g, log, "total")
    deg_map = {
        "in": g.in_degree,
        "out": g.out_degree,
        "total": g.in_degree + g.out_degree,
    }
    for res, kind in ((r_in, "in"), (r_out, "out"), (r_tot, "total")):
        day_arr = np.array([days[i] for i in range(30)], dtype=float)
        want, _ = stats.spearmanr(deg_map[kind][:30], day_arr)
        assert res.rho == pytest.approx(want, abs=1e-12)
    with pytest.raises(DataError):
        degree_order_test(g, log, "between")


def test_too_few_adopters():
    g = graph_with_followee_counts([1, 2], pool=3)
    with pytest.raises(DataError):
        degree_order_test(g, log_over(g.node_count, {0: 0, 1: 1}, 5))


def test_zero_degree_variance():
    g = graph_with_followee_counts([3, 3, 3], pool=4)
    with pytest.raises(DataError):
        degree_order_test(g, log_over(g.node_count, {0: 0, 1: 1, 2: 2}, 5))


def test_single_day_adoptions():
    g = graph_with_followee_counts([1, 2, 3], pool=4)
    with pytest.raises(DataError):
        degree_order_test(g, log_over(g.node_count, {0: 2, 1: 2, 2: 2}, 5))


def test_simple_negative_complex_greater():
    # directional check on mechanism-pure cascades over a handful of seeds
    cfg = SynthConfig(n_nodes=600, mean_degree=6.0, exponent=2.3, seed=40)
    g = gen_graph(cfg)
    rng = np.random.default_rng(0)
    p_simple = base_params(600, beta=np.full(600, 0.4), phi=np.full(600, 2.0))
    p_complex = base_params(600, beta=np.zeros(600), phi=np.full(600, 0.18))
    simple_neg, gaps = 0, []
    for seed in range(6):
        seeds = rng.choice(600, size=8, replace=False).tolist()
        log_s, _ = gen_pure_cascade(
            g, "Simple", p_simple, seed=seed, seeds=seeds,
            stop_fraction=0.5, horizon_days=60,
        )
        log_c, _ = gen_pure_cascade(
            g, "Complex", p_complex, seed=seed, seeds=seeds,
            stop_fraction=0.5, horizon_days=60,
        )
        rs = degree_order_test(g, log_s)
        rc = degree_order_test(g, log_c)
        if rs.rho < 0:
            simple_neg += 1
        gaps.append(rc.rho - rs.rho)
    assert simple_neg >= 5
    assert np.mean(gaps) > 0
