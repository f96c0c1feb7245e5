"""Exogenous shock schedule, intensity evaluation, detection, decay fitting.

A schedule is a sorted list of peaks (tau, gamma, alpha).  Intensity on day t
is gamma_j * (t - tau_j + 1)**(-alpha_j) for the unique window
tau_j <= t < tau_{j+1}, and 0 before the first peak, so each peak evaluates
to exactly its gamma (base 1, no epsilon).  Heights are relative: the
largest peak has gamma = 1.

Detection flags days whose count clears both an absolute floor and a
trailing moving-average band; decay exponents come from a robust (Huber)
log-log regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, DataError, read_csv, read_json, write_csv, write_json

HUBER_C = 1.345  # 95% Gaussian efficiency
MAD_TO_SD = 0.6745


@dataclass(frozen=True)
class ShockSchedule:
    """Ordered shock peaks with power-law decay."""

    tau: np.ndarray  # peak day per shock, strictly increasing
    gamma: np.ndarray  # relative height in (0, 1], max exactly 1
    alpha: np.ndarray  # decay exponent > 0

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=np.int64))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if not (len(self.tau) == len(self.gamma) == len(self.alpha)):
            raise DataError("shock field lengths differ")
        if len(self.tau):
            if np.any(np.diff(self.tau) <= 0):
                raise DataError("shock peak days must be strictly increasing")
            # written so that NaN fails every check
            if not np.all((0 < self.gamma) & (self.gamma <= 1)):
                raise DataError("shock heights must lie in (0, 1]")
            if abs(self.gamma.max() - 1.0) > 1e-9:
                raise DataError("largest shock height must be 1 (relative scale)")
            if not np.all(self.alpha > 0):
                raise DataError("decay exponents must be positive")

    def __len__(self) -> int:
        return len(self.tau)

    @classmethod
    def empty(cls) -> "ShockSchedule":
        return cls(np.array([], dtype=np.int64), np.array([]), np.array([]))

    @classmethod
    def from_peaks(cls, taus, heights, alphas) -> "ShockSchedule":
        """Build a schedule from raw peak magnitudes (e.g. peak-day counts).

        Heights are divided by their maximum so the largest shock gets 1.
        """
        heights = np.asarray(heights, dtype=float)
        if len(heights) and heights.max() <= 0:
            raise DataError("peak heights must be positive")
        order = np.argsort(np.asarray(taus))
        taus = np.asarray(taus, dtype=np.int64)[order]
        gammas = (heights / heights.max())[order] if len(heights) else heights
        alphas = np.asarray(alphas, dtype=float)[order]
        return cls(taus, gammas, alphas)

    def to_records(self) -> list:
        """The schedule's JSON form, a list of {tau, gamma, alpha} records."""
        columns = self.tau.tolist(), self.gamma.tolist(), self.alpha.tolist()
        return [{"tau": t, "gamma": g, "alpha": a} for t, g, a in zip(*columns)]

    def to_json(self, path) -> None:
        write_json(path, self.to_records(), indent=2)

    @classmethod
    def from_records(cls, rows) -> "ShockSchedule":
        """A schedule from its JSON form, a list of {tau, gamma, alpha} records."""
        if not isinstance(rows, list):
            raise TypeError("expected a JSON list of shocks")
        return cls(
            np.array([int(r["tau"]) for r in rows], dtype=np.int64),
            np.array([float(r["gamma"]) for r in rows]),
            np.array([float(r["alpha"]) for r in rows]),
        )

    @classmethod
    def from_json(cls, path) -> "ShockSchedule":
        return read_json(path, cls.from_records)


def shock_intensity(s: ShockSchedule, t) -> np.ndarray | float:
    """Intensity at day(s) t: power-law decay from the most recent peak.

    Zero before the first peak.  Each peak day evaluates to exactly its
    gamma.  Vectorized over t; scalar in, scalar out.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
    out = np.zeros(len(t_arr), dtype=float)
    if len(s):
        # index of the active peak: rightmost tau <= t
        j = np.searchsorted(s.tau, t_arr, side="right") - 1
        live = j >= 0
        jj = j[live]
        dt = t_arr[live] - s.tau[jj] + 1
        out[live] = s.gamma[jj] * np.power(dt.astype(float), -s.alpha[jj])
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def shock_recency(s: ShockSchedule, t: np.ndarray) -> np.ndarray:
    """Days since the most recent peak at each day in t; -1 before the first peak."""
    t = np.asarray(t, dtype=np.int64)
    j = np.searchsorted(s.tau, t, side="right") - 1
    live = j >= 0
    out = np.full(len(t), -1.0)
    out[live] = t[live] - s.tau[j[live]]
    return out


@dataclass(frozen=True)
class AdoptionSeries:
    """Per-day adoption counts, day 0 = series start."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if np.any(counts < 0):
            raise DataError("adoption counts must be non-negative")
        object.__setattr__(self, "counts", counts.astype(np.int64))

    def __len__(self) -> int:
        return len(self.counts)

    def to_csv(self, path) -> None:
        write_csv(path, ("day", "count"), (range(len(self.counts)), self.counts))

    @classmethod
    def from_csv(cls, path) -> "AdoptionSeries":
        counts = []

        def record(fields):
            day, count = int(fields[0]), int(fields[1])
            if day != len(counts):
                raise ValueError(f"days must run 0..n-1 without gaps, got {day}")
            if not 0 <= count < 2**63:
                raise ValueError(f"count {count} outside [0, 2**63)")
            counts.append(count)

        read_csv(path, ("day", "count"), lambda header: record)
        return cls(np.array(counts, dtype=np.int64))


def detect_shocks(
    series: AdoptionSeries,
    min_count: int = 150,
    window: int = 30,
    z: float = 3.0,
) -> list[tuple[int, int]]:
    """Flag shock days, merged into (first_day, last_day) inclusive ranges.

    Day t is flagged iff counts[t] >= min_count and counts[t] exceeds the
    trailing moving average (the `window` days before t, t excluded) by more
    than z sample standard deviations.  Days with fewer than `window`
    preceding days are never flagged. A trailing SD needs two days, so
    `window` must be at least 2.
    """
    if window < 2:
        raise DataError(f"shock window must be >= 2 days, got {window}")
    counts = series.counts.astype(float)
    n = len(counts)
    if n <= window:
        raise DataError(f"series length {n} must exceed window {window}")
    past = sliding_window_view(counts[:-1], window)  # row i: the days before window + i
    now = counts[window:]
    flagged = np.zeros(n, dtype=bool)
    flagged[window:] = (now >= min_count) & (now > past.mean(axis=1) + z * past.std(axis=1, ddof=1))
    # the padded flags change at each run's first day and the day after its last
    edges = np.flatnonzero(np.diff(np.concatenate(([False], flagged, [False]))))
    return [(int(first), int(after) - 1) for first, after in zip(edges[::2], edges[1::2])]


def shock_day_mask(n_days: int, ranges: list[tuple[int, int]]) -> np.ndarray:
    """Boolean day mask from inclusive (first, last) ranges; the days of a
    range outside [0, n_days) are left out."""
    mask = np.zeros(n_days, dtype=bool)
    for a, b in ranges:
        a, b = max(a, 0), min(b, n_days - 1)
        if a <= b:
            mask[a : b + 1] = True
    return mask


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    r_squared: float
    gamma: float
    iterations: int
    n_points: int


def fit_power_law(counts, peak: int, min_points: int = 3) -> PowerLawFit:
    """Robust log-log fit of post-peak decay.

    Model: log(count_t) = log(gamma * counts[peak]) - alpha * log(t - peak + 1)
    over days t >= peak with positive counts.  Fitted by iteratively
    reweighted least squares under Huber loss (tuning constant 1.345),
    stopping when alpha moves less than 1e-8 or after 50 iterations
    (non-convergence raises).  R-squared is the unweighted coefficient of
    determination on the log scale.  Accepts float counts (detection works
    on integer series; fitting does not require it).
    """
    counts = np.asarray(counts, dtype=float)
    if not 0 <= peak < len(counts):
        raise DataError(f"peak day {peak} outside series of length {len(counts)}")
    peak_count = counts[peak]
    if peak_count <= 0:
        raise DataError("peak-day count must be positive")
    days = np.arange(peak, len(counts))
    vals = counts[peak:]
    pos = vals > 0
    if pos.sum() < min_points:
        raise DataError(
            f"need at least {min_points} positive post-peak days, got {int(pos.sum())}"
        )
    x = np.log(days[pos] - peak + 1.0)
    y = np.log(vals[pos])

    w = np.ones(len(x))
    alpha_prev = np.inf
    max_iter = 50
    for it in range(1, max_iter + 1):
        sw = w.sum()
        xm = (w * x).sum() / sw
        ym = (w * y).sum() / sw
        sxx = (w * (x - xm) ** 2).sum()
        if sxx == 0:
            slope = 0.0
        else:
            slope = (w * (x - xm) * (y - ym)).sum() / sxx
        intercept = ym - slope * xm
        alpha_hat = -slope
        if abs(alpha_hat - alpha_prev) < 1e-8:
            break
        alpha_prev = alpha_hat
        res = y - (intercept + slope * x)
        scale = np.median(np.abs(res)) / MAD_TO_SD
        if scale == 0:
            break  # perfect fit
        u = np.abs(res) / (HUBER_C * scale)
        w = np.ones_like(u)
        np.divide(1.0, u, out=w, where=u > 1.0)
    else:
        raise ConvergenceError("power-law fit did not converge", iterations=max_iter)

    gamma = float(np.exp(intercept) / peak_count)
    fitted = intercept + slope * x
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        alpha=float(alpha_hat),
        r_squared=r2,
        gamma=gamma,
        iterations=it,
        n_points=int(pos.sum()),
    )
