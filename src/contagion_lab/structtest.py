"""Degree versus adoption-order rank test.

Under pure simple contagion, high-degree nodes tend to be exposed earlier
and adopt earlier, so the rank correlation between degree and adoption
order is negative; threshold-driven spread weakens or reverses it.  Ranks
use average tie handling; the p-value is the two-sided large-sample t
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import AdoptionLog
from .errors import DataError
from .netgraph import DirectedGraph

DEGREE_KINDS = ("in", "out", "total")


def average_ranks(a) -> np.ndarray:
    """1-based ranks of a 1-D array, ties given their group's mean rank.

    Equals ``scipy.stats.rankdata(a, method="average")`` for input without
    NaN, without importing ``scipy.stats``.
    """
    a = np.asarray(a)
    order = np.argsort(a, kind="stable")
    s = a[order]
    start = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    end = np.append(start[1:], len(a))
    ranks = np.empty(len(a))
    ranks[order] = np.repeat((start + end + 1) / 2.0, end - start)
    return ranks


@dataclass(frozen=True)
class OrderTestResult:
    rho: float
    p_value: float
    n: int
    degree_kind: str

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "p_value": self.p_value,
            "n": self.n,
            "degree_kind": self.degree_kind,
        }


def degree_order_test(
    g: DirectedGraph, log: AdoptionLog, degree_kind: str = "in"
) -> OrderTestResult:
    """Spearman correlation between adopter degree and adoption order."""
    if degree_kind == "in":
        deg = g.in_degree
    elif degree_kind == "out":
        deg = g.out_degree
    elif degree_kind == "total":
        deg = g.in_degree + g.out_degree
    else:
        raise DataError(f"degree_kind must be one of {DEGREE_KINDS}")

    adopters = log.adopters()
    n = len(adopters)
    if n < 3:
        raise DataError(f"need at least 3 adopters, got {n}")
    days = log.adoption_day[adopters].astype(float)
    degs = deg[adopters].astype(float)
    if np.all(degs == degs[0]):
        raise DataError("degree variance is zero; correlation undefined")
    if np.all(days == days[0]):
        raise DataError("all adoptions on one day; order undefined")

    day_rank = average_ranks(days)
    deg_rank = average_ranks(degs)
    dx = deg_rank - deg_rank.mean()
    dy = day_rank - day_rank.mean()
    rho = float((dx * dy).sum() / np.sqrt((dx**2).sum() * (dy**2).sum()))

    if abs(rho) >= 1.0:
        p = 0.0
    else:
        from scipy.special import stdtr  # deferred: costs ~0.3 s to import

        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        p = float(2.0 * stdtr(n - 2, -abs(t)))  # the t distribution's upper tail
    return OrderTestResult(rho=rho, p_value=p, n=n, degree_kind=degree_kind)
