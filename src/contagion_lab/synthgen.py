"""Synthetic worlds for tests and demos.

Three generators: heavy-tailed directed follower graphs (optionally with a
latent binary trait that tilts tie formation toward same-trait nodes),
trait-driven adoption logs with zero peer influence, and cascades with a
single mechanism enabled.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibrate import NEVER, AdoptionLog, MechanismParams
from .cascade import MECHANISMS, events_to_log, run_realization
from .errors import DataError
from .netgraph import DirectedGraph
from .rngstream import ADOPTION_GEN, GRAPH_GEN, stream


@dataclass(frozen=True)
class SynthConfig:
    """Degree/homophily knobs for graph generation."""

    n_nodes: int
    mean_degree: float = 8.0
    exponent: float = 2.5  # in-degree tail index; > 1
    homophily: float = 0.0  # 0 = trait-blind ties, 1 = same-trait only
    trait_balance: float = 0.5  # P(trait = 1)
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise DataError("need at least 2 nodes")
        if not 1 < self.exponent < np.inf:
            raise DataError(f"tail exponent must be finite and exceed 1, got {self.exponent}")
        if not 0 <= self.homophily <= 1:
            raise DataError("homophily must lie in [0, 1]")
        if not 0 < self.trait_balance < 1:
            raise DataError("trait balance must lie in (0, 1)")
        if not 1 <= self.mean_degree <= self.n_nodes - 1:
            raise DataError("mean degree must lie in [1, n-1]")


def gen_traits(cfg: SynthConfig) -> np.ndarray:
    """Latent binary trait per node."""
    rng = stream(cfg.seed, GRAPH_GEN, 1)
    return (rng.random(cfg.n_nodes) < cfg.trait_balance).astype(np.int64)


def gen_graph(cfg: SynthConfig, trait: np.ndarray | None = None) -> DirectedGraph:
    """Heavy-tailed directed graph; followee counts are Pareto-distributed.

    Each node's followee count is drawn from a Pareto tail with index
    `exponent`, rescaled to hit mean_degree, and clipped to [1, n-1].
    With homophily h and a trait vector, each node draws its followees by
    successive weighted sampling without replacement, with weight 1 for a
    same-trait candidate and 1-h for a cross-trait one (`_homophily_keys`:
    O(m) draws in a few batched rounds).
    """
    rng = stream(cfg.seed, GRAPH_GEN, 0)
    n = cfg.n_nodes
    if trait is not None and len(trait) != n:
        raise DataError("trait length must equal n_nodes")
    if cfg.homophily > 0 and trait is None:
        trait = gen_traits(cfg)

    # Pareto with x_m = 1: survival (1-u)^(-1/(exponent-1))
    raw = np.power(1.0 - rng.random(n), -1.0 / (cfg.exponent - 1.0))
    k = np.clip(np.rint(raw * (cfg.mean_degree / raw.mean())), 1, n - 1).astype(
        np.int64
    )
    del raw

    if trait is not None and cfg.homophily > 0:
        key = _homophily_keys(k, np.asarray(trait), cfg.homophily, rng)
    else:
        key = _trait_blind_keys(k, rng)
    return DirectedGraph._from_keys(key, n)


# nodes per step of the trait-blind sampler's keying pass
_NODE_CHUNK = 1 << 12


def _trait_blind_keys(k: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Edge keys source * n + target: node i draws k[i] distinct followees
    uniformly from the other nodes."""
    n = len(k)
    ends = np.cumsum(k)
    key = np.empty(int(ends[-1]), dtype=np.int64)
    for ki, end in zip(k.tolist(), ends.tolist()):
        key[end - ki : end] = rng.choice(n - 1, size=ki, replace=False)
    # the same draws as choosing from all ids but i: skip past i, then key
    # the edge as i * n + target, a chunk of nodes at a time
    for a in range(0, n, _NODE_CHUNK):
        b = min(a + _NODE_CHUNK, n)
        part = key[ends[a] - k[a] : ends[b - 1]]
        src = np.repeat(np.arange(a, b, dtype=np.int64), k[a:b])
        part += part >= src
        src *= n
        part += src
    return key


# a node whose followee count exceeds this share of its weighted pool takes
# exact per-node keys, which keeps the batched sampler's redraws rare
HUB_SHARE = 1 / 50


def _homophily_keys(
    k: np.ndarray, trait: np.ndarray, homophily: float, rng: np.random.Generator
) -> np.ndarray:
    """Edge keys source * n + target: node i draws min(k[i], eligible)
    distinct followees by successive sampling, weight 1 for same-trait ids and
    1-h for the rest.

    Successive sampling keeps the first k distinct values of an i.i.d.
    sequence of weighted draws, so all edges are drawn i.i.d. at once, one
    copy of each (src, dst) key is kept, and only the shortfall is redrawn
    until none is left. Hubs take exact Efraimidis-Spirakis keys instead.
    """
    n = len(k)
    # a node's same pool is its block of the trait-sorted ids minus itself,
    # its cross pool everything outside the block, so any labels work
    order = np.argsort(trait, kind="stable")
    ranked = trait[order]
    first = np.r_[True, ranked[1:] != ranked[:-1]]
    starts = np.flatnonzero(first)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    block = (np.cumsum(first) - 1)[rank]
    lo, hi = starts[block], np.r_[starts[1:], n][block]
    same, cross = hi - lo - 1, n - (hi - lo)

    c = 1.0 - homophily
    total = same + c * cross
    if np.any(total == 0):
        raise DataError("node has no eligible followees under homophily 1")
    k = np.minimum(k, same + (cross if c > 0 else 0))
    pool = total / np.where(same > 0, 1.0, c)  # sum(w) / max(w)
    hub = k > HUB_SHARE * pool
    p_same = same / total  # exactly 1 when the cross pool weighs nothing

    keys = np.empty(0, dtype=np.int64)
    need = np.where(hub, 0, k)
    while need.any():
        src = np.repeat(np.arange(n, dtype=np.int64), need)
        in_same = rng.random(len(src)) < p_same[src]
        j = rng.integers(np.where(in_same, same[src], cross[src]))
        s_lo, s_hi = lo[src], hi[src]
        pos = np.where(
            in_same,
            s_lo + j + (s_lo + j >= rank[src]),  # skip src itself
            j + np.where(j >= s_lo, s_hi - s_lo, 0),  # skip src's block
        )
        # one copy of each key, as in DirectedGraph.from_edges; after the
        # first round the kept keys are one sorted run, which timsort merges
        keys = np.sort(np.concatenate([keys, src * n + order[pos]]), kind="stable")
        keys = keys[np.diff(keys, prepend=-1) != 0]
        need = np.where(hub, 0, k - np.bincount(keys // n, minlength=n))
    parts = [keys]
    for i in np.flatnonzero(hub):
        w = np.where(trait == trait[i], 1.0, c)
        w[i] = 0.0
        parts.append(i * n + _es_top_k(np.flatnonzero(w), w, k[i], rng))
    return np.concatenate(parts)


def _es_top_k(cand: np.ndarray, w: np.ndarray, k: int, rng: np.random.Generator):
    """k of `cand` by successive sampling with weights w[cand]: the top k
    Efraimidis-Spirakis keys log(u)/w (Inf. Process. Lett. 97(5), 2006)."""
    key = np.log(rng.random(len(cand))) / w[cand]
    return cand[np.argpartition(key, len(cand) - k)[len(cand) - k :]]


def gen_homophily_adoptions(
    g: DirectedGraph,
    trait: np.ndarray,
    rates: np.ndarray,
    horizon_days: int,
    seed: int = 0,
) -> AdoptionLog:
    """Trait-rate adoptions with zero peer influence.

    Node u adopts on the first day a Bernoulli(rates[trait[u]]) check
    succeeds, independently of everyone else; never within the horizon
    stays NEVER.  One uniform draw per node (inverse-CDF geometric), so
    output is deterministic given the seed.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0) or np.any(rates > 1):
        raise DataError("per-trait rates must lie in [0, 1]")
    if len(trait) != g.node_count:
        raise DataError("trait length must equal node count")
    rng = stream(seed, ADOPTION_GEN)
    rho = rates[np.asarray(trait, dtype=np.int64)]
    u = rng.random(g.node_count)
    days = np.full(g.node_count, NEVER, dtype=np.int64)
    live = rho > 0
    sure = rho >= 1.0
    days[sure] = 0
    mid = live & ~sure
    with np.errstate(divide="ignore"):
        geo = np.floor(np.log1p(-u[mid]) / np.log1p(-rho[mid])).astype(np.int64)
    days[mid] = geo
    days[days >= horizon_days] = NEVER
    return AdoptionLog(days, first_day=0, last_day=horizon_days - 1)


# each rule's parameter and the value that switches the rule off (a
# per-node parameter takes it at every node; saturation never reaches 2)
_RULE_OFF = {
    "Simple": ("beta", 0.0),
    "Complex": ("phi", 2.0),
    "Spontaneous": ("r", 0.0),
    "Shock": ("shock_prob_at_peak", 0.0),
}


def mask_params(params: MechanismParams, mechanism: str) -> MechanismParams:
    """Copy of params with every rule except `mechanism` disabled."""
    if mechanism not in _RULE_OFF:
        raise DataError(f"unknown mechanism: {mechanism!r}")
    n = params.n_nodes
    return replace(params, **{
        name: np.full(n, value) if np.ndim(getattr(params, name)) else value
        for rule, (name, value) in _RULE_OFF.items() if rule != mechanism
    })


def gen_pure_cascade(
    g: DirectedGraph,
    mechanism: str,
    params: MechanismParams,
    seed: int,
    seeds=None,
    stop_fraction: float = 1.0,
    horizon_days: int = 120,
) -> tuple[AdoptionLog, np.recarray]:
    """Cascade with a single rule enabled; every event bears that label.

    Seed adopters (spontaneous by construction) are excluded from the
    returned event table's label guarantee but present in the log.
    """
    masked = mask_params(params, mechanism)
    events = run_realization(
        g,
        masked,
        seed,
        stop_fraction=stop_fraction,
        horizon_days=horizon_days,
        seeds=seeds,
    )
    log = events_to_log(events, g.node_count, last_day=horizon_days - 1)
    if mechanism != "Spontaneous":
        seed = (events.day == 0) & (events.fired == 1 << MECHANISMS.index("Spontaneous"))
        if np.any(events.mechanism[~seed] != MECHANISMS.index(mechanism)):
            raise DataError("masking failed: foreign mechanism fired")
    return log, events
