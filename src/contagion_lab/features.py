"""Egocentric features measured at adoption time.

Seven values per adopter, all computed from state strictly before the
adoption day (same-day peers never count):

  active_influences  m: followees adopted before day t
  degree             k: followee count
  peer_saturation    m/k, or 0 when k = 0
  exposure_duration  days since the earliest prior followee adoption (-1 if m = 0)
  influence_recency  days since the latest prior followee adoption (-1 if m = 0)
  shock_intensity    decay-schedule intensity on day t
  shock_recency      days since the most recent shock peak (-1 before any peak)
"""

from __future__ import annotations

import numpy as np

from .calibrate import AdoptionLog, ExposureIndex
from .errors import DataError, read_csv, write_csv
from .netgraph import DirectedGraph
from .shocks import ShockSchedule, shock_intensity, shock_recency

FEATURE_NAMES = (
    "m",
    "k",
    "saturation",
    "exposure_duration",
    "influence_recency",
    "shock_intensity",
    "shock_recency",
)


def eve_features(
    g: DirectedGraph,
    adoption_day: np.ndarray,
    shocks: ShockSchedule,
    nodes: np.ndarray,
    days: np.ndarray,
) -> np.ndarray:
    """Feature rows, one per node nodes[i] adopting on day days[i].

    adoption_day holds each node's adoption day or NEVER; for row i, entries
    at days >= days[i] are ignored (no lookahead).
    """
    days = np.asarray(days, dtype=np.int64)
    m, first, last = ExposureIndex(g.followee_csr(), adoption_day).exposure(nodes, days)
    k = g.in_degree[nodes]
    exposed = m > 0
    X = np.empty((len(days), len(FEATURE_NAMES)), dtype=float)
    X[:, 0] = m
    X[:, 1] = k
    X[:, 2] = m / np.maximum(k, 1)  # k = 0 forces m = 0, so 0.0
    X[:, 3] = np.where(exposed, days - first, -1)
    X[:, 4] = np.where(exposed, days - last, -1)
    X[:, 5] = shock_intensity(shocks, days)
    X[:, 6] = shock_recency(shocks, days)
    return X


def extract_features_log(
    g: DirectedGraph, log: AdoptionLog, shocks: ShockSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix for every adopter in the log, ascending node id.

    Returns (nodes, X) where X rows align with the adopter ids.
    """
    nodes = log.adopters()
    if len(nodes) == 0:
        raise DataError("log has no adopters")
    days = log.adoption_day[nodes]
    return nodes, eve_features(g, log.adoption_day, shocks, nodes, days)


def events_feature_matrix(events) -> tuple[np.ndarray, np.ndarray]:
    """An event table's features and mechanism names as (X, labels)."""
    from .cascade import MECHANISMS

    if len(events) == 0:
        raise DataError("no events")
    return np.array(events.features), np.array(MECHANISMS)[events.mechanism]


def write_feature_csv(X: np.ndarray, path, labels=None) -> None:
    """Feature matrix CSV in canonical column order, label column optional."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise DataError(f"feature matrix must have {len(FEATURE_NAMES)} columns")
    if labels is not None and len(labels) != len(X):
        raise DataError("labels length must match feature rows")
    if labels is None:
        write_csv(path, FEATURE_NAMES, X.T)
    else:
        write_csv(path, FEATURE_NAMES + ("label",), (*X.T, labels))


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """The feature matrix, and the labels when the header has a `label`
    column right after the features (other extra columns are ignored)."""
    n = len(FEATURE_NAMES)
    labels = []

    def parser(header):
        width = n + (header[n : n + 1] == ["label"])

        def record(fields):
            if len(fields) < width:
                raise ValueError(f"{len(fields)} fields, expected {width}")
            labels.extend(fields[n:width])
            return [float(x) for x in fields[:n]]

        return record

    X = np.array(read_csv(path, FEATURE_NAMES, parser), dtype=float)
    return X, (np.array(labels) if labels else None)
