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

Events live in one table, a numpy record array of EVENT_DTYPE with a row
per adoption: node, day, mechanism (an index into MECHANISMS), fired (a
bitmask, bit i set when MECHANISMS[i] fired; FIRED_NAMES[mask] names them),
the seven eve-of-adoption features, and the realization index.

Determinism: every realization draws from its own generator, derived from
(seed, realization index) by the documented splitting rule, and each day
consumes a fixed block of draws (five arrays of length n) regardless of
state, so identical seeds give identical event tables no matter how
realizations are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import NEVER, AdoptionLog, MechanismParams
from .errors import DataError, newline_count, read_jsonl, write_jsonl
from .features import FEATURE_NAMES, eve_features
from .netgraph import DirectedGraph
from .rngstream import REALIZATION, stream

MECHANISMS = ("Simple", "Complex", "Spontaneous", "Shock")
N_FEATURES = len(FEATURE_NAMES)

# the field names and order are also the keys of an events.jsonl record
EVENT_DTYPE = np.dtype(
    [
        ("node", np.int64),
        ("day", np.int64),
        ("mechanism", np.int8),
        ("fired", np.uint8),
        ("features", np.float64, (N_FEATURES,)),
        ("realization", np.int64),
    ]
)
# packed, so a row's bytes are the mechanism code then the feature floats
_DEDUP_KEY = np.dtype([("mechanism", np.int8), ("features", np.float64, (N_FEATURES,))])
# sorted keys compared per step of dedup_events
_DEDUP_CHUNK = 1 << 14

# indexed by a fired bitmask: the rule positions set in it, ascending
_FIRED_BITS = [
    tuple(i for i in range(len(MECHANISMS)) if mask >> i & 1)
    for mask in range(1 << len(MECHANISMS))
]
FIRED_NAMES = tuple(tuple(MECHANISMS[i] for i in bits) for bits in _FIRED_BITS)
_N_FIRED = np.array([len(bits) for bits in _FIRED_BITS])
_NTH_FIRED = np.array([bits + (0,) * (len(MECHANISMS) - len(bits)) for bits in _FIRED_BITS])

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


def _shock_prob(params: MechanismParams, day: int) -> float:
    from .shocks import shock_intensity

    s = params.shock_schedule
    if len(s) == 0 or params.shock_prob_at_peak == 0.0:
        return 0.0
    lam = shock_intensity(s, day)
    peak = float(s.gamma.max())
    return min(1.0, params.shock_prob_at_peak * lam / peak)


def _seed_ids(seeds, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(seeds, (int, np.integer)):
        if not 0 <= seeds <= n:
            raise DataError(f"seed count {seeds} outside [0, {n}]")
        return np.sort(rng.choice(n, size=int(seeds), replace=False))
    ids = np.sort(np.asarray([] if seeds is None else list(seeds), dtype=np.int64))
    if len(ids) and (ids[0] < 0 or ids[-1] >= n):
        raise DataError(f"seed ids must lie in [0, {n})")
    if np.any(ids[1:] == ids[:-1]):
        raise DataError("seed ids repeat")
    return ids


def run_realization(
    g: DirectedGraph,
    params: MechanismParams,
    seed: int,
    stop_fraction: float = DEFAULT_STOP_FRACTION,
    horizon_days: int = DEFAULT_HORIZON_DAYS,
    seeds=None,
    realization_id: int = 0,
) -> np.recarray:
    """Run one cascade; returns its event table (seeds first, then by day, node).

    `seeds` is an iterable of distinct node ids, or an int count drawn
    uniformly without replacement; seed nodes adopt on day 0 as spontaneous
    events.  Stops after the first day on which the adopted fraction reaches
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
    k = g.in_degree
    fo_ptr, fo = g.follower_csr()

    seed_ids = _seed_ids(seeds, n, rng)
    adopted_day[seed_ids] = 0
    spont = MECHANISMS.index("Spontaneous")
    nodes, picks = [seed_ids], [np.full(len(seed_ids), spont)]
    fired = [np.full(len(seed_ids), 1 << spont)]
    n_adopted = len(seed_ids)

    for day in range(horizon_days):
        # fixed per-day draw block: consumed regardless of state
        u_active, u_simple, u_spont, u_shock, u_tie = (rng.random(n) for _ in range(5))

        # rules run only on active susceptibles; bit i marks MECHANISMS[i]
        cand = np.flatnonzero(u_active < params.activity)
        cand = cand[adopted_day[cand] == NEVER]
        m = exposure[cand]
        bits = (u_simple[cand] < simple_probability(params.beta[cand], m)).astype(np.int64)
        bits |= complex_fires(m, k[cand], params.phi[cand]) << 1
        bits |= (u_spont[cand] < params.r) << 2
        bits |= (u_shock[cand] < _shock_prob(params, day)) << 3
        hit = bits > 0
        adopters, bits = cand[hit], bits[hit]
        tie = (u_tie[adopters] * _N_FIRED[bits]).astype(np.int64)
        adopted_day[adopters] = day
        nodes.append(adopters)
        picks.append(_NTH_FIRED[bits, tie])
        fired.append(bits)

        # synchronous update: today's adopters raise exposure from tomorrow;
        # one bincount over their concatenated follower lists
        new = np.flatnonzero(adopted_day == day)
        starts = fo_ptr[new]
        lens = fo_ptr[new + 1] - starts
        at = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
        exposure += np.bincount(fo[at], minlength=n)

        n_adopted += len(adopters)
        if n_adopted >= stop_fraction * n:
            break
    # the last day's draws and the exposure counts are dead: let them go
    # before the eve features are built
    u_active = u_simple = u_spont = u_shock = u_tie = exposure = None

    events = np.recarray(n_adopted, dtype=EVENT_DTYPE)
    events.node = np.concatenate(nodes)
    events.day = adopted_day[events.node]
    events.mechanism = np.concatenate(picks)
    events.fired = np.concatenate(fired)
    events.realization = realization_id
    # eve features read only adoptions before each event's day, so the final
    # adoption days give what the state held on that day
    events.features = eve_features(
        g, adopted_day, params.shock_schedule, events.node, events.day
    )
    return events


@dataclass(frozen=True)
class EnsembleResult:
    """Deduplicated event table, per-mechanism counts around dedup, and
    realization 0's table as it was before dedup."""

    events: np.recarray
    counts_before: dict[str, int]
    counts_after: dict[str, int]
    first_realization: np.recarray


def dedup_events(events: np.recarray) -> np.recarray:
    """Drop events with an identical (mechanism, feature vector) pair.

    First occurrence wins, in table order, which is (realization, day, node).
    """
    key = np.empty(len(events), dtype=_DEDUP_KEY)
    key["mechanism"] = events.mechanism
    key["features"] = events.features
    key = key.view(f"V{key.itemsize}")
    # equal keys are adjacent in one stable order, first occurrence first;
    # adjacent keys are compared a chunk at a time, never all gathered
    order = np.argsort(key, kind="stable")
    keep = np.ones(len(key), dtype=bool)
    for a in range(0, len(key) - 1, _DEDUP_CHUNK):
        run = key[order[a : a + _DEDUP_CHUNK + 1]]
        keep[a + 1 : a + len(run)] = run[1:] != run[:-1]
    first = order[keep]
    first.sort()
    return events[first]


def mechanism_counts(events: np.recarray) -> dict[str, int]:
    counts = np.bincount(events.mechanism, minlength=len(MECHANISMS))
    return {mech: int(c) for mech, c in zip(MECHANISMS, counts)}


def _run_one(args) -> np.recarray:
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
    """Run independent realizations and deduplicate the merged event table.

    Realization i draws from the (seed0, i) stream, so results do not
    depend on n_jobs or scheduling order.  A stop fraction above 1 runs
    every realization to the horizon.
    """
    if n_realizations < 1:
        raise DataError("need at least one realization")
    if not horizon_days >= 1:
        raise DataError(f"horizon must be at least 1 day, got {horizon_days}")
    if not stop_fraction > 0:
        raise DataError(f"stop fraction must be > 0, got {stop_fraction}")
    jobs = [
        (g, params, seed0, stop_fraction, horizon_days, seeds, i)
        for i in range(n_realizations)
    ]
    if n_jobs <= 1:
        return _merge_runs(map(_run_one, jobs))
    from multiprocessing import Pool  # imported here: serial runs never pay for it

    chunks, extra = divmod(len(jobs), n_jobs * 4)  # the chunk size Pool.map picks
    with Pool(n_jobs) as pool:
        return _merge_runs(pool.imap(_run_one, jobs, chunksize=chunks + bool(extra)))


def _merge_runs(tables) -> EnsembleResult:
    """Merge and deduplicate the realizations' tables, given in realization
    order, as they arrive.

    Tables wait until their rows reach the kept rows' count, then join the
    kept rows in one dedup. Dedup keeps first occurrences in table order,
    so that is the one-pass dedup of every table so far. Waiting sorts each
    row a few times at most, where a dedup per table would sort every kept
    row again for each table. The ensemble holds realization 0's table, the
    kept rows and about as many waiting rows, never every table.
    """
    first = next(tables)
    before = np.bincount(first.mechanism, minlength=len(MECHANISMS))
    kept, waiting, n_waiting = dedup_events(first), [], 0
    for events in tables:
        before += np.bincount(events.mechanism, minlength=len(MECHANISMS))
        waiting.append(events)
        n_waiting += len(events)
        del events  # else it holds a merged table through the next realization
        if n_waiting >= len(kept):
            kept = dedup_events(np.concatenate([kept, *waiting]).view(np.recarray))
            waiting, n_waiting = [], 0
    if waiting:
        kept = dedup_events(np.concatenate([kept, *waiting]).view(np.recarray))
    return EnsembleResult(
        events=kept,
        counts_before={mech: int(c) for mech, c in zip(MECHANISMS, before)},
        counts_after=mechanism_counts(kept),
        first_realization=first,
    )


def events_to_log(
    events: np.recarray,
    n_nodes: int,
    first_day: int = 0,
    last_day: int | None = None,
) -> AdoptionLog:
    """Adoption log for a single realization's event table."""
    twice = np.flatnonzero(np.bincount(events.node, minlength=n_nodes) > 1)
    if len(twice):
        raise DataError(f"node {twice[0]} adopts twice in one realization")
    days = np.full(n_nodes, NEVER, dtype=np.int64)
    days[events.node] = events.day
    if last_day is None:
        last_day = int(events.day.max()) if len(events) else first_day
    return AdoptionLog(days, first_day=first_day, last_day=last_day)


def write_events(events: np.recarray, path) -> None:
    """JSON-lines event stream, one event per line."""
    columns = {name: events[name] for name in EVENT_DTYPE.names}
    columns["mechanism"] = [MECHANISMS[i] for i in events.mechanism.tolist()]
    columns["fired"] = [FIRED_NAMES[mask] for mask in events.fired.tolist()]
    write_jsonl(path, columns)


def _count(value, key) -> int:
    """A node id, day or realization index: an int in [0, 2**63)."""
    v = int(value)
    if not 0 <= v < 2**63:
        raise ValueError(f"{key} {v} outside [0, 2**63)")
    return v


def _mechanism_code(name) -> int:
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}")
    return MECHANISMS.index(name)


def _event_record(d) -> tuple:
    features = [float(x) for x in d["features"]]
    if len(features) != N_FEATURES:
        raise ValueError(f"{len(features)} features, expected {N_FEATURES}")
    code = _mechanism_code(d["mechanism"])
    fired = sum({1 << _mechanism_code(name) for name in d["fired"]})
    if not fired >> code & 1:
        raise ValueError(f"mechanism {d['mechanism']!r} is not in its fired set")
    return (
        _count(d["node"], "node"),
        _count(d["day"], "day"),
        code,
        fired,
        features,
        _count(d["realization"], "realization"),
    )


def read_events(path) -> np.recarray:
    """The event table of a JSON-lines event stream, each line parsed into
    its row of a table sized by the file's line count (grown should a line
    end in a lone carriage return) and trimmed to the records read."""
    table = np.empty(newline_count(path) + 1, dtype=EVENT_DTYPE)
    n = 0
    for n, record in enumerate(read_jsonl(path, _event_record), start=1):
        if n > len(table):
            table.resize(2 * n, refcheck=False)
        table[n - 1] = record
    table.resize(n, refcheck=False)  # in place: no view of the table exists
    return table.view(np.recarray)
