"""Daily mixed-mechanism cascade engine on a directed follower graph.

Each day, every still-susceptible node checks in with probability given by
its activity; an active node evaluates four adoption rules against its
exposure m (followees adopted as of the end of the previous day):

  Simple       fires w.p. 1 - (1-beta)**m
  Complex      fires iff k > 0 and m/k >= phi
  Spontaneous  fires w.p. r
  Shock        fires w.p. min(1, shock_prob_at_peak * lam(day)/lam_peak)

If at least one rule fires the node adopts that day; the recorded mechanism
is drawn uniformly among the rules that fired, and the full fired set is
kept for audit.  Updates are synchronous: today's adoptions raise exposures
only from tomorrow.

Determinism: every realization draws from its own generator, derived from
(seed, realization index) by the documented splitting rule, and each day
consumes a fixed block of draws (five arrays of length n) regardless of
state, so identical seeds give identical event lists no matter how
realizations are scheduled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .calibrate import NEVER, AdoptionLog, MechanismParams
from .errors import DataError, ParseError
from .features import eve_features
from .netgraph import DirectedGraph
from .rngstream import REALIZATION, stream

MECHANISMS = ("Simple", "Complex", "Spontaneous", "Shock")

DEFAULT_STOP_FRACTION = 0.18
DEFAULT_HORIZON_DAYS = 730


def simple_probability(beta, m):
    """Per-day simple-contagion probability 1 - (1-beta)**m, vectorized."""
    return 1.0 - np.power(1.0 - np.asarray(beta, dtype=float), m)


def complex_fires(m, k, phi):
    """Threshold trigger: k > 0 and m/k >= phi, vectorized."""
    m = np.asarray(m, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    frac = np.zeros(np.broadcast(m, k).shape)
    np.divide(m, k, out=frac, where=k > 0)
    return (k > 0) & (frac >= phi)


@dataclass(frozen=True)
class CascadeEvent:
    """One adoption: who, when, why, and the eve-of-adoption features."""

    node: int
    day: int
    mechanism: str
    fired: tuple[str, ...]
    features: np.ndarray  # length 7, order matches features.FEATURE_NAMES
    realization: int = 0


def _shock_prob(params: MechanismParams, day: int) -> float:
    from .shocks import shock_intensity

    s = params.shock_schedule
    if len(s) == 0 or params.shock_prob_at_peak == 0.0:
        return 0.0
    lam = shock_intensity(s, day)
    peak = float(s.gamma.max())
    return min(1.0, params.shock_prob_at_peak * lam / peak)


def run_realization(
    g: DirectedGraph,
    params: MechanismParams,
    seed: int,
    stop_fraction: float = DEFAULT_STOP_FRACTION,
    horizon_days: int = DEFAULT_HORIZON_DAYS,
    seeds=None,
    realization_id: int = 0,
) -> list[CascadeEvent]:
    """Run one cascade; returns events ordered by (day, node).

    `seeds` is an iterable of node ids, or an int count drawn uniformly
    without replacement; seed nodes adopt on day 0 as spontaneous events.
    Stops after the first day on which the adopted fraction reaches
    stop_fraction, or after horizon_days days.
    """
    n = g.node_count
    if params.n_nodes != n:
        raise DataError(
            f"params cover {params.n_nodes} nodes but graph has {n}"
        )
    rng = stream(seed, REALIZATION, realization_id)
    adopted_day = np.full(n, NEVER, dtype=np.int64)
    exposure = np.zeros(n, dtype=np.int64)  # lags adoption by one day
    adoptions: list[tuple[int, int, str, tuple[str, ...]]] = []

    if seeds is None:
        seed_ids = np.array([], dtype=np.int64)
    elif isinstance(seeds, (int, np.integer)):
        seed_ids = np.sort(rng.choice(n, size=int(seeds), replace=False))
    else:
        seed_ids = np.sort(np.asarray(list(seeds), dtype=np.int64))

    k = g.in_degree
    fo_ptr, fo = g.follower_csr()

    for day in range(horizon_days):
        if day == 0 and len(seed_ids):
            adopted_day[seed_ids] = 0
            for u in seed_ids:
                adoptions.append((int(u), 0, "Spontaneous", ("Spontaneous",)))

        # fixed per-day draw block: consumed regardless of state
        u_active = rng.random(n)
        u_simple = rng.random(n)
        u_spont = rng.random(n)
        u_shock = rng.random(n)
        u_tie = rng.random(n)

        susceptible = adopted_day == NEVER
        active = susceptible & (u_active < params.activity)

        m = exposure
        fired_simple = active & (u_simple < simple_probability(params.beta, m))
        fired_complex = active & complex_fires(m, k, params.phi)

        fired_spont = active & (u_spont < params.r)

        p_shock = _shock_prob(params, day)
        fired_shock = active & (u_shock < p_shock)

        fired = np.column_stack(
            [fired_simple, fired_complex, fired_spont, fired_shock]
        )
        n_fired = fired.sum(axis=1)
        adopters = np.flatnonzero(n_fired > 0)

        for u in adopters:
            rules = np.flatnonzero(fired[u])
            pick = rules[int(u_tie[u] * len(rules))]
            adopted_day[u] = day
            adoptions.append(
                (int(u), day, MECHANISMS[pick], tuple(MECHANISMS[i] for i in rules))
            )

        # synchronous update: today's adopters raise exposure from tomorrow
        for v in np.flatnonzero(adopted_day == day):
            exposure[fo[fo_ptr[v] : fo_ptr[v + 1]]] += 1

        if (adopted_day != NEVER).sum() >= stop_fraction * n:
            break

    # eve features read only adoptions before each event's day, so the final
    # adoption days give what the state held on that day
    nodes = np.array([a[0] for a in adoptions], dtype=np.int64)
    days = np.array([a[1] for a in adoptions], dtype=np.int64)
    X = eve_features(g, adopted_day, params.shock_schedule, nodes, days)
    X.setflags(write=False)
    return [
        CascadeEvent(
            node=u,
            day=d,
            mechanism=mechanism,
            fired=rules,
            features=x,
            realization=realization_id,
        )
        for (u, d, mechanism, rules), x in zip(adoptions, X)
    ]


@dataclass(frozen=True)
class EnsembleResult:
    """Deduplicated event set plus per-mechanism counts around dedup."""

    events: list[CascadeEvent]
    counts_before: dict[str, int]
    counts_after: dict[str, int]
    n_realizations: int


def dedup_events(events: list[CascadeEvent]) -> list[CascadeEvent]:
    """Drop events with an identical (feature vector, mechanism) pair.

    First occurrence wins, in (realization, day, node) order.
    """
    seen: set[tuple[str, bytes]] = set()
    out = []
    for e in events:
        key = (e.mechanism, e.features.tobytes())
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def mechanism_counts(events: list[CascadeEvent]) -> dict[str, int]:
    counts = {mech: 0 for mech in MECHANISMS}
    for e in events:
        counts[e.mechanism] += 1
    return counts


def _run_one(args) -> list[CascadeEvent]:
    g, params, seed, stop, horizon, seeds, i = args
    return run_realization(
        g,
        params,
        seed,
        stop_fraction=stop,
        horizon_days=horizon,
        seeds=seeds,
        realization_id=i,
    )


def run_ensemble(
    g: DirectedGraph,
    params: MechanismParams,
    n_realizations: int = 100,
    seed0: int = 0,
    stop_fraction: float = DEFAULT_STOP_FRACTION,
    horizon_days: int = DEFAULT_HORIZON_DAYS,
    seeds=None,
    n_jobs: int = 1,
) -> EnsembleResult:
    """Run independent realizations and deduplicate the merged event set.

    Realization i draws from the (seed0, i) stream, so results do not
    depend on n_jobs or scheduling order.
    """
    if n_realizations < 1:
        raise DataError("need at least one realization")
    jobs = [
        (g, params, seed0, stop_fraction, horizon_days, seeds, i)
        for i in range(n_realizations)
    ]
    if n_jobs > 1:
        with Pool(n_jobs) as pool:
            per_run = pool.map(_run_one, jobs)
    else:
        per_run = [_run_one(j) for j in jobs]
    merged: list[CascadeEvent] = []
    for run in per_run:
        merged.extend(run)
    before = mechanism_counts(merged)
    deduped = dedup_events(merged)
    return EnsembleResult(
        events=deduped,
        counts_before=before,
        counts_after=mechanism_counts(deduped),
        n_realizations=n_realizations,
    )


def events_to_log(
    events: list[CascadeEvent],
    n_nodes: int,
    first_day: int = 0,
    last_day: int | None = None,
) -> AdoptionLog:
    """Adoption log for a single realization's event list."""
    days = np.full(n_nodes, NEVER, dtype=np.int64)
    for e in events:
        if days[e.node] != NEVER:
            raise DataError(f"node {e.node} adopts twice in one realization")
        days[e.node] = e.day
    if last_day is None:
        last_day = int(days.max()) if np.any(days != NEVER) else first_day
    return AdoptionLog(days, first_day=first_day, last_day=last_day)


def write_events(events: list[CascadeEvent], path) -> None:
    """JSON-lines event stream, one event per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(
                json.dumps(
                    {
                        "node": e.node,
                        "day": e.day,
                        "mechanism": e.mechanism,
                        "fired": list(e.fired),
                        "features": [float(x) for x in e.features],
                        "realization": e.realization,
                    }
                )
            )
            fh.write("\n")


def read_events(path) -> list[CascadeEvent]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                feats = np.array(d["features"], dtype=float)
                feats.setflags(write=False)
                events.append(
                    CascadeEvent(
                        node=int(d["node"]),
                        day=int(d["day"]),
                        mechanism=str(d["mechanism"]),
                        fired=tuple(d["fired"]),
                        features=feats,
                        realization=int(d["realization"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ParseError(
                    f"bad event record: {e}", path=str(path), line=lineno
                ) from e
    return events
