"""Synthetic graph, homophily-world, and pure-cascade generators."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from contagion_lab import synthgen
from contagion_lab.calibrate import NEVER, MechanismParams
from contagion_lab.cascade import MECHANISMS
from contagion_lab.errors import DataError
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.rngstream import GRAPH_GEN, stream
from contagion_lab.shocks import ShockSchedule
from contagion_lab.synthgen import (
    SynthConfig,
    gen_graph,
    gen_homophily_adoptions,
    gen_pure_cascade,
    gen_traits,
    mask_params,
)


def base_params(n, **kw):
    defaults = dict(
        beta=np.full(n, 0.5),
        phi=np.full(n, 0.25),
        r=0.01,
        activity=np.ones(n),
        shock_schedule=ShockSchedule.empty(),
        shock_prob_at_peak=0.0,
    )
    defaults.update(kw)
    return MechanismParams(**defaults)


# -- graphs -------------------------------------------------------------------


def test_edge_count_near_target():
    g = gen_graph(SynthConfig(n_nodes=100, mean_degree=5.0, seed=3))
    assert 400 <= g.edge_count <= 600  # 500 +- 20%


def test_same_seed_identical_graphs():
    cfg = SynthConfig(n_nodes=80, mean_degree=6.0, seed=9)
    g1, g2 = gen_graph(cfg), gen_graph(cfg)
    assert g1 == g2
    g3 = gen_graph(SynthConfig(n_nodes=80, mean_degree=6.0, seed=10))
    assert g1 != g3


def test_heavy_tail_present():
    g = gen_graph(SynthConfig(n_nodes=2000, mean_degree=8.0, exponent=2.2, seed=1))
    k = g.in_degree
    assert k.min() >= 1
    assert k.max() >= 4 * k.mean()


def test_homophily_tilts_edges():
    cfg = SynthConfig(n_nodes=300, mean_degree=6.0, homophily=0.9, seed=5)
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    edges = g.edges()
    same = trait[edges[:, 0]] == trait[edges[:, 1]]
    assert same.mean() > 0.5  # strong homophily: same-trait ties dominate
    g0 = gen_graph(SynthConfig(n_nodes=300, mean_degree=6.0, homophily=0.0, seed=5))
    same0 = trait[g0.edges()[:, 0]] == trait[g0.edges()[:, 1]]
    assert same.mean() > same0.mean()


def test_full_homophily_no_cross_edges():
    cfg = SynthConfig(n_nodes=200, mean_degree=4.0, homophily=1.0, seed=7)
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    edges = g.edges()
    assert np.all(trait[edges[:, 0]] == trait[edges[:, 1]])


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n_nodes=1)
    with pytest.raises(DataError):
        SynthConfig(n_nodes=10, exponent=1.0)
    with pytest.raises(DataError):
        SynthConfig(n_nodes=10, homophily=1.5)
    with pytest.raises(DataError):
        SynthConfig(n_nodes=10, mean_degree=40.0)


@pytest.mark.parametrize("exponent", [float("nan"), float("inf"), 1.0, -2.0])
def test_tail_exponent_must_be_finite_and_exceed_one(exponent):
    # NaN once reached np.repeat as negative counts, inf a constant degree
    with pytest.raises(DataError, match=f"tail exponent .* got {exponent}"):
        SynthConfig(n_nodes=10, exponent=exponent)


# -- homophily adoptions --------------------------------------------------------


def test_zero_rates_empty_log():
    cfg = SynthConfig(n_nodes=50, mean_degree=3.0, seed=2)
    g = gen_graph(cfg)
    trait = gen_traits(cfg)
    log = gen_homophily_adoptions(g, trait, np.array([0.0, 0.0]), 30, seed=1)
    assert len(log.adopters()) == 0


def test_saturating_rate_one_trait():
    cfg = SynthConfig(n_nodes=60, mean_degree=3.0, seed=4)
    g = gen_graph(cfg)
    trait = gen_traits(cfg)
    log = gen_homophily_adoptions(g, trait, np.array([1.0, 0.0]), 30, seed=1)
    adopters = log.adopters()
    assert set(adopters) == set(np.flatnonzero(trait == 0))
    assert np.all(log.adoption_day[adopters] == 0)


def test_rate_frequencies_within_binomial_bounds():
    cfg = SynthConfig(n_nodes=4000, mean_degree=3.0, seed=6)
    g = gen_graph(cfg)
    trait = gen_traits(cfg)
    horizon = 100
    rates = np.array([0.01, 0.001])
    log = gen_homophily_adoptions(g, trait, rates, horizon, seed=11)
    for t in (0, 1):
        members = np.flatnonzero(trait == t)
        p_adopt = 1.0 - (1.0 - rates[t]) ** horizon
        realized = np.mean(log.adoption_day[members] != NEVER)
        sd = np.sqrt(p_adopt * (1 - p_adopt) / len(members))
        assert abs(realized - p_adopt) <= 3 * sd


def test_homophily_adoptions_deterministic():
    cfg = SynthConfig(n_nodes=100, mean_degree=3.0, seed=1)
    g = gen_graph(cfg)
    trait = gen_traits(cfg)
    a = gen_homophily_adoptions(g, trait, np.array([0.05, 0.01]), 50, seed=3)
    b = gen_homophily_adoptions(g, trait, np.array([0.05, 0.01]), 50, seed=3)
    assert np.array_equal(a.adoption_day, b.adoption_day)


# -- pure cascades ------------------------------------------------------------------


def test_spontaneous_with_zero_rate_empty():
    cfg = SynthConfig(n_nodes=40, mean_degree=4.0, seed=8)
    g = gen_graph(cfg)
    log, events = gen_pure_cascade(g, "Spontaneous", base_params(40, r=0.0), seed=1)
    assert len(events) == 0
    assert len(log.adopters()) == 0


def test_simple_beta_one_is_bfs_wave():
    rng = np.random.default_rng(14)
    from contagion_lab.netgraph import DirectedGraph

    g = DirectedGraph.from_edges(rng.integers(0, 60, (240, 2)), n_nodes=60)
    p = base_params(60, beta=np.ones(60))
    log, events = gen_pure_cascade(
        g, "Simple", p, seed=5, seeds=[7], horizon_days=80
    )
    # oracle: BFS over follower edges from the seed
    dist = {7: 0}
    frontier = [7]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.followers(v):
                if int(u) not in dist:
                    dist[int(u)] = dist[v] + 1
                    nxt.append(int(u))
        frontier = nxt
    for u in range(60):
        expect = dist.get(u, NEVER)
        assert log.adoption_day[u] == expect
    assert all(MECHANISMS[e.mechanism] == "Simple" for e in events if e.day > 0)


def test_complex_unreachable_threshold():
    cfg = SynthConfig(n_nodes=50, mean_degree=5.0, seed=3)
    g = gen_graph(cfg)
    p = base_params(50, phi=np.full(50, 1.5))
    log, events = gen_pure_cascade(g, "Complex", p, seed=2, seeds=[0, 1, 2])
    assert sorted(e.node for e in events) == [0, 1, 2]
    assert len(log.adopters()) == 3


def test_complex_cascade_labels():
    cfg = SynthConfig(n_nodes=150, mean_degree=5.0, seed=12)
    g = gen_graph(cfg)
    p = base_params(150, phi=np.full(150, 0.2))
    seeds = list(range(12))
    log, events = gen_pure_cascade(g, "Complex", p, seed=4, seeds=seeds)
    non_seed = [e for e in events if e.day > 0]
    assert len(non_seed) > 0
    assert all(MECHANISMS[e.mechanism] == "Complex" for e in non_seed)


def test_shock_cascade_labels():
    cfg = SynthConfig(n_nodes=80, mean_degree=4.0, seed=2)
    g = gen_graph(cfg)
    sched = ShockSchedule(np.array([3]), np.array([1.0]), np.array([1.0]))
    p = base_params(80, shock_schedule=sched, shock_prob_at_peak=0.8)
    log, events = gen_pure_cascade(g, "Shock", p, seed=6)
    assert len(events) > 0
    assert all(MECHANISMS[e.mechanism] == "Shock" for e in events)
    assert all(e.day >= 3 for e in events)


def test_mask_params_fields():
    p = base_params(10, shock_prob_at_peak=0.5)
    m = mask_params(p, "Simple")
    assert np.array_equal(m.beta, p.beta)
    assert np.all(m.phi == 2.0) and m.r == 0.0 and m.shock_prob_at_peak == 0.0
    m = mask_params(p, "Complex")
    assert np.all(m.beta == 0.0) and np.array_equal(m.phi, p.phi)
    m = mask_params(p, "Spontaneous")
    assert m.r == p.r and np.all(m.beta == 0.0)
    m = mask_params(p, "Shock")
    assert m.shock_prob_at_peak == 0.5 and m.r == 0.0
    with pytest.raises(DataError):
        mask_params(p, "Viral")


# -- graph construction against the candidate-array reference -------------------


def csr_digest(g):
    """sha256 over the four CSR arrays, each widened to int64, so that the
    digest pins the values whatever width the graph stores them in."""
    h = hashlib.sha256()
    for a in (*g.followee_csr(), *g.follower_csr()):
        assert a.dtype.kind == "i"
        h.update(a.astype(np.int64).tobytes())
    return h.hexdigest()


def draw_counts(rng, cfg):
    """Each node's Pareto followee count: the first draws of the graph stream."""
    n = cfg.n_nodes
    u = rng.random(n)
    raw = np.power(1.0 - u, -1.0 / (cfg.exponent - 1.0))
    return np.clip(np.rint(raw * (cfg.mean_degree / raw.mean())), 1, n - 1).astype(
        np.int64
    )


def reference_trait_blind_edges(cfg):
    """Reference trait-blind selection: choose from an explicit candidate
    array of every id but i, one array per node."""
    rng = stream(cfg.seed, GRAPH_GEN, 0)
    n = cfg.n_nodes
    k = draw_counts(rng, cfg)
    all_ids = np.arange(n)
    src, dst = [], []
    for i in range(n):
        cand = np.concatenate([all_ids[:i], all_ids[i + 1 :]])
        chosen = rng.choice(cand, size=k[i], replace=False)
        src.append(np.full(len(chosen), i, dtype=np.int64))
        dst.append(chosen.astype(np.int64))
    return np.column_stack([np.concatenate(src), np.concatenate(dst)]), k


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig(n_nodes=2, mean_degree=1.0, seed=0),
        SynthConfig(n_nodes=60, mean_degree=4.0, seed=1),
        SynthConfig(n_nodes=500, mean_degree=12.0, exponent=1.8, seed=5),
        SynthConfig(n_nodes=800, mean_degree=6.0, trait_balance=0.3, seed=2),
        # above 10,000 candidates with k > (n-1)//50, Generator.choice takes
        # its tail-shuffle path instead of Floyd's algorithm
        SynthConfig(n_nodes=10_002, mean_degree=6.0, exponent=1.6, seed=3),
    ],
)
def test_trait_blind_graph_matches_candidate_reference(cfg):
    edges, k = reference_trait_blind_edges(cfg)
    if cfg.n_nodes > 10_001:
        assert k.max() > (cfg.n_nodes - 1) // 50
    expect = DirectedGraph.from_edges(edges, n_nodes=cfg.n_nodes)
    # a trait vector with homophily 0 takes the same trait-blind branch
    for g in (gen_graph(cfg), gen_graph(cfg, gen_traits(cfg))):
        assert g == expect
        assert g.load_report == expect.load_report
        for a, b in zip(
            (*g.followee_csr(), *g.follower_csr()),
            (*expect.followee_csr(), *expect.follower_csr()),
        ):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_trait_blind_graph_build_stays_under_26_bytes_per_edge():
    # the draws go straight into the key buffer that the graph build sorts in
    # place: the key, the two int32 id arrays and chunk-sized temporaries,
    # 20.1 bytes per edge here (an (m, 2) edge array and a second key: 32.7)
    cfg = SynthConfig(n_nodes=20_000, mean_degree=12.0, seed=5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = gen_graph(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.edge_count > 200_000
    assert peak <= 26 * g.edge_count


def test_graph_bytes_pinned():
    # any change to the draws changes these; say so in CHANGES.md
    blind = gen_graph(SynthConfig(n_nodes=200, mean_degree=6.0, seed=4))
    assert csr_digest(blind) == (
        "599442513f26fd400f5489717b13258e3a219bcb14ec9ed24b13405b3b1eb59a"
    )
    cfg = SynthConfig(n_nodes=200, mean_degree=6.0, homophily=0.7, seed=4)
    assert csr_digest(gen_graph(cfg)) == (
        "5a5f72734fea8f58f156802120e26a089ec31b649cf007cb010acf30a60665aa"
    )


# -- homophily sampling: the law of successive weighted sampling ------------------


def reference_homophily_graph(cfg, trait):
    """The first homophily sampler: an n-length weight vector and one
    Generator.choice(replace=False, p=w) call per node, O(n) each."""
    rng = stream(cfg.seed, GRAPH_GEN, 0)
    n = cfg.n_nodes
    k = draw_counts(rng, cfg)
    dst = []
    for i in range(n):
        w = np.where(trait == trait[i], 1.0, 1.0 - cfg.homophily)
        w[i] = 0.0
        total = w.sum()
        if total == 0:
            raise DataError("node has no eligible followees under homophily 1")
        ki = min(k[i], int(np.count_nonzero(w)))
        dst.append(rng.choice(n, size=ki, replace=False, p=w / total).astype(np.int64))
    src = np.repeat(np.arange(n, dtype=np.int64), [len(d) for d in dst])
    return DirectedGraph.from_edges(np.column_stack([src, np.concatenate(dst)]), n_nodes=n)


HOMOPHILY_SAMPLERS = pytest.mark.parametrize(
    "make", [gen_graph, reference_homophily_graph], ids=["batched", "v1-reference"]
)


def eligible_counts(trait, h):
    same = (trait[:, None] == trait[None, :]).sum(axis=1) - 1
    return same + (len(trait) - 1 - same if h < 1 else 0)


def three_label_trait(n, seed):
    # arbitrary labels, one of them rare enough that h = 1 clips its counts
    labels = np.array([7, -2, 40])
    return labels[np.random.default_rng(seed).choice(3, size=n, p=[0.6, 0.39, 0.01])]


@HOMOPHILY_SAMPLERS
@pytest.mark.parametrize(
    "cfg, three_labels",
    [
        (SynthConfig(n_nodes=300, mean_degree=8.0, exponent=2.2, homophily=0.8, seed=2), False),
        (SynthConfig(n_nodes=400, mean_degree=6.0, homophily=1.0, trait_balance=0.3, seed=3), False),
        (SynthConfig(n_nodes=500, mean_degree=10.0, exponent=1.8, homophily=0.5, seed=4), True),
        (SynthConfig(n_nodes=500, mean_degree=10.0, exponent=1.8, homophily=1.0, seed=5), True),
    ],
)
def test_homophily_followee_counts_exact(make, cfg, three_labels):
    trait = three_label_trait(cfg.n_nodes, cfg.seed) if three_labels else gen_traits(cfg)
    g = make(cfg, trait)
    k = draw_counts(stream(cfg.seed, GRAPH_GEN, 0), cfg)
    eligible = eligible_counts(trait, cfg.homophily)
    assert np.array_equal(g.in_degree, np.minimum(k, eligible))
    if three_labels and cfg.homophily == 1:
        assert np.any(k > eligible)  # the clip is exercised
    # every drawn edge survives: no self-loop or duplicate was collapsed
    assert g.load_report.self_loops == 0 and g.load_report.duplicates == 0
    assert g.load_report.records == g.edge_count
    edges = g.edges()
    assert np.all(edges[:, 0] != edges[:, 1])
    same = trait[edges[:, 0]] == trait[edges[:, 1]]
    if cfg.homophily == 1:
        assert same.all()
    else:
        assert 0 < same.mean() < 1


@HOMOPHILY_SAMPLERS
def test_homophily_one_with_a_lone_trait_raises(make):
    cfg = SynthConfig(n_nodes=30, mean_degree=3.0, homophily=1.0, seed=1)
    trait = np.zeros(30, dtype=np.int64)
    trait[17] = 1
    with pytest.raises(DataError, match="no eligible followees"):
        make(cfg, trait)
    # below h = 1 the lone node follows only cross-trait ids
    g = make(SynthConfig(n_nodes=30, mean_degree=3.0, homophily=0.9, seed=1), trait)
    assert np.all(trait[g.followees(17)] == 0)


def test_large_world_takes_the_hub_path(monkeypatch):
    hubs = []
    es_top_k = synthgen._es_top_k

    def spy(cand, w, k, rng):
        hubs.append(k)
        return es_top_k(cand, w, k, rng)

    monkeypatch.setattr(synthgen, "_es_top_k", spy)
    cfg = SynthConfig(n_nodes=20_000, mean_degree=12.0, exponent=2.3, homophily=0.8, seed=31)
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    k = draw_counts(stream(cfg.seed, GRAPH_GEN, 0), cfg)
    assert np.array_equal(g.in_degree, k)
    assert g.load_report.duplicates == 0 and g.load_report.self_loops == 0
    same = np.where(trait == 1, np.sum(trait == 1), np.sum(trait == 0)) - 1
    pool = same + 0.2 * (cfg.n_nodes - 1 - same)  # sum(w) / max(w)
    assert sorted(hubs) == sorted(k[k > synthgen.HUB_SHARE * pool])
    assert len(hubs) > 0


def successive_sampling_probs(w, k):
    """Exact P(followee set) when k ids are drawn one at a time, each with
    probability proportional to w among the ids not yet drawn."""
    probs = {}
    for seq in itertools.permutations(np.flatnonzero(w), k):
        p, left = 1.0, w.sum()
        for j in seq:
            p *= w[j] / left
            left -= w[j]
        key = tuple(sorted(seq))
        probs[key] = probs.get(key, 0.0) + p
    return probs


def sample_sets_batched(cfg, trait, monkeypatch):
    monkeypatch.setattr(synthgen, "HUB_SHARE", np.inf)  # no node is a hub
    rng = stream(cfg.seed, GRAPH_GEN, 0)
    k = draw_counts(rng, cfg)
    keys, n = synthgen._homophily_keys(k, trait, cfg.homophily, rng), cfg.n_nodes
    return DirectedGraph.from_edges(np.column_stack([keys // n, keys % n]), n_nodes=n)


def sample_sets_hub_keys(cfg, trait, monkeypatch):
    monkeypatch.setattr(synthgen, "HUB_SHARE", 0.0)  # every node is a hub
    return gen_graph(cfg, trait)


@pytest.mark.parametrize(
    "sample",
    [
        lambda cfg, trait, mp: reference_homophily_graph(cfg, trait),
        sample_sets_batched,
        sample_sets_hub_keys,
    ],
    ids=["v1-reference", "batched", "hub-keys"],
)
def test_followee_sets_follow_successive_sampling(sample, monkeypatch):
    # bound fixed before the run: the 1 - 1e-4 quantile of the pooled
    # chi-square, over every (node, k) group whose cells all expect >= 5
    n, h, n_seeds, alpha = 6, 0.6, 3000, 1e-4
    trait = np.array([0, 0, 0, 1, 1, 2])
    counts = {}
    for seed in range(n_seeds):
        cfg = SynthConfig(n_nodes=n, mean_degree=2.0, exponent=2.5, homophily=h, seed=seed)
        g = sample(cfg, trait, monkeypatch)
        for i in range(n):
            key = (i, len(g.followees(i)), tuple(int(j) for j in g.followees(i)))
            counts[key] = counts.get(key, 0) + 1
    stat = uniform_stat = 0.0
    df = 0
    for i in range(n):
        w = np.where(trait == trait[i], 1.0, 1.0 - h)
        w[i] = 0.0
        for k in range(1, n - 1):
            probs = successive_sampling_probs(w, k)
            total = sum(counts.get((i, k, s), 0) for s in probs)
            if total * min(probs.values()) < 5:
                continue
            observed = np.array([counts.get((i, k, s), 0) for s in probs])
            expected = total * np.array(list(probs.values()))
            stat += float(np.sum((observed - expected) ** 2 / expected))
            uniform = total / len(probs)
            uniform_stat += float(np.sum((observed - uniform) ** 2 / uniform))
            df += len(probs) - 1
    bound = stats.chi2.ppf(1 - alpha, df)
    assert df >= 20
    assert stat <= bound, (stat, bound, df)
    # the test has power: the trait-blind law is rejected by a wide margin
    assert uniform_stat > 3 * bound
