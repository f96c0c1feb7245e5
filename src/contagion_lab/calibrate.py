"""Estimate mechanism parameters from an observed adoption log.

Exposure is always measured at adoption eve: a followee counts toward m only
if it adopted strictly before the adopter's day.  When the log carries a
shock-day mask, adopters inside shock periods are excluded from the
transmission, threshold, and background pools (their person-time still
counts in the background denominator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, read_json, write_csv, write_json
from .netgraph import DirectedGraph, read_node_csv
from .rngstream import PARAM_ASSIGNMENT, stream
from .shocks import ShockSchedule

NEVER = -1  # sentinel adoption day for nodes that never adopt
_MAX_DAY = int(np.iinfo(np.int64).max)
# nbr entries per step of ExposureIndex's key build
_CHUNK = 1 << 16
# running counts an ExposureIndex keeps for one-day queries
_CURSORS = 4

DEFAULT_ACTIVITY_MEAN = 0.032


@dataclass(frozen=True)
class AdoptionLog:
    """Per-node adoption days over a fixed horizon.

    adoption_day[i] is the day node i adopted, or NEVER (-1).  The horizon
    is inclusive on both ends.  shock_mask, when present, marks shock days
    over [first_day, last_day].
    """

    adoption_day: np.ndarray
    first_day: int = 0
    last_day: int | None = None
    shock_mask: np.ndarray | None = None

    def __post_init__(self):
        days = np.asarray(self.adoption_day, dtype=np.int64)
        object.__setattr__(self, "adoption_day", days)
        last = int(days.max()) if self.last_day is None else int(self.last_day)
        object.__setattr__(self, "last_day", last)
        object.__setattr__(self, "first_day", int(self.first_day))
        if self.first_day > self.last_day:
            raise DataError("empty horizon")
        real = days[days != NEVER]
        if len(real) and (real.min() < self.first_day or real.max() > self.last_day):
            raise DataError("adoption day outside horizon")
        if np.any(days < NEVER):
            raise DataError(f"adoption days must be >= 0 or {NEVER}")
        if self.shock_mask is not None:
            mask = np.asarray(self.shock_mask, dtype=bool)
            if len(mask) != self.horizon_days:
                raise DataError("shock mask length must equal horizon length")
            object.__setattr__(self, "shock_mask", mask)

    @property
    def n_nodes(self) -> int:
        return len(self.adoption_day)

    @property
    def horizon_days(self) -> int:
        return self.last_day - self.first_day + 1

    def adopters(self) -> np.ndarray:
        """Adopter node ids, ascending."""
        return np.flatnonzero(self.adoption_day != NEVER)

    def to_csv(self, path, g: DirectedGraph | None = None) -> None:
        """Write adopter records as ``node,day`` (external ids if g given)."""
        nodes = self.adopters()
        labels = nodes if g is None else g.external_ids(nodes)
        write_csv(path, ("node", "day"), (labels, self.adoption_day[nodes]))

    @classmethod
    def from_csv(
        cls,
        path,
        g: DirectedGraph,
        first_day: int = 0,
        last_day: int | None = None,
    ) -> "AdoptionLog":
        days = np.full(g.node_count, NEVER, dtype=np.int64)
        # a day of NEVER would read as "never adopted", and one past int64
        # would overflow the day array
        lo, hi = max(first_day, 0), _MAX_DAY if last_day is None else min(last_day, _MAX_DAY)
        if lo > hi:
            raise DataError(f"empty horizon [{first_day}, {last_day}]")

        def adoption_day(field):
            day = int(field)
            if not lo <= day <= hi:
                raise ValueError(f"adoption day {day} outside [{lo}, {hi}]")
            return day

        nodes, values = read_node_csv(path, g, "day", adoption_day, unique=True)
        days[nodes] = values
        return cls(days, first_day=first_day, last_day=last_day)


class ExposureIndex:
    """Each node's adopted neighbors in a CSR, sorted by adoption day.

    Built once from a CSR (followee, follower or mutual) and the adoption
    days; answers "which neighbors adopted strictly before day t" for any
    (node, day) pairs.  Memory is O(edges).

    A query with one day for every node reads a running count instead of
    searching: up to `_CURSORS` cursors each hold every node's count at one
    day rank (one int64 per node per cursor), and a query advances the
    nearest cursor at or below its rank over the entries adopted in between.
    Those come from a copy of the entries' owners ordered by day rank (one
    int64 per adopted-neighbor entry), built on the first such query, so an
    index that only sees per-row days never holds it.  A panel asks for a
    few days that each rise by one a day, so each query touches only the
    entries of the days it advances over.
    """

    def __init__(self, csr: tuple[np.ndarray, np.ndarray], adoption_day: np.ndarray):
        ptr, nbr = csr
        n = len(ptr) - 1
        # Key days by rank, not by value: log days come from outside and a
        # raw owner * (max_day + 2) + day key can overflow int64.
        adopted = adoption_day != NEVER
        d = np.sort(adoption_day[adopted])
        self._days = d[np.diff(d, prepend=NEVER) != 0]
        self._span = len(self._days) + 1
        rank = np.searchsorted(self._days, adoption_day)
        # only the adopted neighbors' entries, owner * span + day rank, written
        # a chunk of nbr at a time into a buffer a counting pass sized
        chunks = range(0, len(nbr), _CHUNK)
        sizes = [np.count_nonzero(adopted[nbr[a : a + _CHUNK]]) for a in chunks]
        key = np.empty(sum(sizes), dtype=np.int64)
        at = 0
        for a, size in zip(chunks, sizes):
            b = min(a + _CHUNK, len(nbr))
            pos = np.flatnonzero(adopted[nbr[a:b]])
            pos += a
            # the chunk's owners are lo..hi, so only their offsets are searched
            lo, hi = np.searchsorted(ptr, [a, b - 1], "right") - 1
            part = key[at : at + size]
            part[:] = np.searchsorted(ptr[lo + 1 : hi + 1], pos, "right")
            part += lo
            part *= self._span
            pos = nbr[pos]  # the neighbors themselves
            part += rank[pos]
            at += size
        del rank
        key.sort()
        self._key = key
        # a node's entries start at the first key of its owner * span
        first_keys = np.arange(n + 1, dtype=np.int64)
        first_keys *= self._span
        self._start = np.searchsorted(key, first_keys)
        self._cursors = []  # [day rank, every node's count there], least recently used first

    @cached_property
    def _by_day(self):
        """The entries' owners in ascending (day rank, owner) order, and
        where each day rank's entries start."""
        rank = self._key % self._span
        if self._span <= 1 << 16:
            rank = rank.astype(np.uint16)  # so the stable sort is numpy's radix sort
        order = np.argsort(rank, kind="stable")
        bounds = np.zeros(self._span, dtype=np.int64)
        np.cumsum(np.bincount(rank, minlength=self._span - 1), out=bounds[1:])
        owner = self._key[order]
        owner //= self._span
        return owner, bounds

    def _running_count(self, nodes, rank: int) -> np.ndarray:
        """count(nodes, day) for the one day whose rank is `rank`."""
        owner, bounds = self._by_day
        below = [i for i, c in enumerate(self._cursors) if c[0] <= rank]
        if below:
            cursor = self._cursors.pop(max(below, key=lambda i: self._cursors[i][0]))
        elif len(self._cursors) < _CURSORS:
            cursor = [0, np.zeros(len(self._start) - 1, dtype=np.int64)]
        else:  # every cursor is past `rank`: restart the least recently used
            cursor = self._cursors.pop(0)
            cursor[0] = 0
            cursor[1][:] = 0
        np.add.at(cursor[1], owner[bounds[cursor[0]] : bounds[rank]], 1)
        cursor[0] = rank
        self._cursors.append(cursor)
        return cursor[1][nodes]

    def count(self, nodes: np.ndarray, days) -> np.ndarray:
        """Number of neighbors v of nodes[i] with NEVER != t_v < days[i]; days may be one day."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rank = np.searchsorted(self._days, np.asarray(days, dtype=np.int64))
        if rank.ndim == 0:
            return self._running_count(nodes, int(rank))
        return np.searchsorted(self._key, nodes * self._span + rank) - self._start[nodes]

    def exposure(self, nodes: np.ndarray, days) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m, first, last): the count, and the earliest and latest such t_v.

        first and last are NEVER where m = 0.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        m = self.count(nodes, days)
        has = m > 0
        lo = self._start[nodes][has]  # each segment is sorted by day
        hi = lo + m[has] - 1
        first = np.full(m.shape, NEVER, dtype=np.int64)
        last = np.full(m.shape, NEVER, dtype=np.int64)
        first[has] = self._days[self._key[lo] % self._span]
        last[has] = self._days[self._key[hi] % self._span]
        return m, first, last


@dataclass(frozen=True)
class PoolResult:
    """Empirical parameter pool with summary stats."""

    values: np.ndarray  # one entry per qualifying adopter, ascending node id
    nodes: np.ndarray  # the adopters the values came from

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def summary(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "min": float(self.values.min()),
            "max": float(self.values.max()),
        }


def eve_counts(g: DirectedGraph, log: AdoptionLog) -> tuple[np.ndarray, np.ndarray]:
    """Adopters outside shock periods, ascending node id, with their eve m.

    Each calibrator takes this pair as `eve`, so a caller that runs all
    three builds the followee exposure index once.
    """
    nodes = log.adopters()
    days = log.adoption_day[nodes]
    if log.shock_mask is not None:
        keep = ~log.shock_mask[days - log.first_day]
        nodes, days = nodes[keep], days[keep]
    index = ExposureIndex(g.followee_csr(), log.adoption_day)
    return nodes, index.count(nodes, days)


def calibrate_transmission(g: DirectedGraph, log: AdoptionLog, eve=None) -> PoolResult:
    """Per-adopter transmission rates: reciprocal of adoption-eve exposure.

    Adopters with zero exposure (or inside shock periods) are excluded.
    `eve` is `eve_counts(g, log)`, computed here when None.
    """
    nodes, m = eve_counts(g, log) if eve is None else eve
    exposed = m > 0
    if not exposed.any():
        raise DataError("no adopter with positive adoption-eve exposure")
    return PoolResult(1.0 / m[exposed], nodes[exposed])


def calibrate_thresholds(g: DirectedGraph, log: AdoptionLog, eve=None) -> PoolResult:
    """Per-adopter thresholds: exposed-followee fraction at adoption eve.

    Restricted to adopters with positive degree and positive exposure (the
    same exposed subset the transmission pool draws from), so every value
    lands in (0, 1]. `eve` is `eve_counts(g, log)`, computed here when None.
    """
    nodes, m = eve_counts(g, log) if eve is None else eve
    exposed = m > 0  # m > 0 implies positive degree
    if not exposed.any():
        raise DataError("no adopter with positive degree and exposure")
    nodes = nodes[exposed]
    return PoolResult(m[exposed] / g.in_degree[nodes], nodes)


def calibrate_background(g: DirectedGraph, log: AdoptionLog, eve=None) -> float:
    """Spontaneous daily rate: zero-exposure adopters per susceptible-day.

    Susceptible-days of a node count the horizon days strictly before its
    adoption (never-adopters contribute the full horizon).  The numerator
    honors the shock mask; the denominator is raw person-time. `eve` is
    `eve_counts(g, log)`, computed here when None.
    """
    days = log.adoption_day
    sus = np.where(days == NEVER, log.horizon_days, days - log.first_day)
    total = int(sus.sum())
    if total <= 0:
        raise DataError("zero susceptible-days in horizon")
    _, m = eve_counts(g, log) if eve is None else eve
    return int(np.count_nonzero(m == 0)) / total


def calibrate_activity(
    post_counts, target_mean: float = DEFAULT_ACTIVITY_MEAN
) -> np.ndarray:
    """Per-node daily check-in probabilities from posting volumes.

    log1p-transform, then rescale by one positive factor so the mean hits
    target_mean; results clipped to [0, 1] (a node with zero posts keeps
    activity 0).
    """
    counts = np.asarray(post_counts, dtype=float)
    if not np.all((0 <= counts) & (counts < np.inf)):
        raise DataError("posting volumes must be finite and non-negative")
    raw = np.log1p(counts)
    if raw.sum() == 0:
        raise DataError("all posting volumes are zero")
    if not 0 < target_mean <= 1:
        raise DataError("target mean activity must lie in (0, 1]")
    return np.clip(raw * (target_mean / raw.mean()), 0.0, 1.0)


@dataclass(frozen=True)
class MechanismParams:
    """Everything the cascade engine needs, per node plus globals."""

    beta: np.ndarray  # per-node transmission in [0, 1]
    phi: np.ndarray  # per-node threshold > 0 (values > 1 disable the rule)
    r: float  # global spontaneous daily rate
    activity: np.ndarray  # per-node daily check-in probability in [0, 1]
    shock_schedule: ShockSchedule = field(default_factory=ShockSchedule.empty)
    shock_prob_at_peak: float = 0.0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        act = np.asarray(self.activity, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "activity", act)
        if not (len(beta) == len(phi) == len(act)):
            raise DataError("per-node parameter arrays differ in length")
        # written so that NaN fails every check
        if not np.all((0 <= beta) & (beta <= 1)):
            raise DataError("transmission rates must lie in [0, 1]")
        if not np.all(phi > 0):
            raise DataError("thresholds must be positive")
        if not np.all((0 <= act) & (act <= 1)):
            raise DataError("activity must lie in [0, 1]")
        if not 0 <= self.r <= 1:
            raise DataError("spontaneous rate must lie in [0, 1]")
        if not 0 <= self.shock_prob_at_peak <= 1:
            raise DataError("peak shock probability must lie in [0, 1]")

    @property
    def n_nodes(self) -> int:
        return len(self.beta)

    def to_json(self, path) -> None:
        payload = {
            "beta": self.beta,
            "phi": self.phi,
            "r": self.r,
            "activity": self.activity,
            "shock_schedule": self.shock_schedule.to_records(),
            "shock_prob_at_peak": self.shock_prob_at_peak,
        }
        write_json(path, payload)

    @classmethod
    def from_json(cls, path) -> "MechanismParams":
        def parse(d):
            return cls(
                beta=np.array(d["beta"], dtype=float),
                phi=np.array(d["phi"], dtype=float),
                r=float(d["r"]),
                activity=np.array(d["activity"], dtype=float),
                shock_schedule=ShockSchedule.from_records(d["shock_schedule"]),
                shock_prob_at_peak=float(d["shock_prob_at_peak"]),
            )

        return read_json(path, parse)


def assign_from_pools(
    n_nodes: int,
    beta_pool: np.ndarray,
    phi_pool: np.ndarray,
    r: float,
    activity: np.ndarray,
    shock_schedule: ShockSchedule | None = None,
    shock_prob_at_peak: float = 0.0,
    seed: int = 0,
) -> MechanismParams:
    """Draw per-node transmission and threshold values i.i.d. from pools."""
    rng = stream(seed, PARAM_ASSIGNMENT)
    beta_pool = np.asarray(beta_pool, dtype=float)
    phi_pool = np.asarray(phi_pool, dtype=float)
    if len(beta_pool) == 0 or len(phi_pool) == 0:
        raise DataError("parameter pools must be non-empty")
    return MechanismParams(
        beta=rng.choice(beta_pool, size=n_nodes, replace=True),
        phi=rng.choice(phi_pool, size=n_nodes, replace=True),
        r=r,
        activity=np.asarray(activity, dtype=float),
        shock_schedule=shock_schedule or ShockSchedule.empty(),
        shock_prob_at_peak=shock_prob_at_peak,
    )
