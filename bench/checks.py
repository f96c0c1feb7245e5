"""Output checks for each CLI step, artifact digests, and the quality figures.

`check_step` returns a list of problems; an empty list means the step's
artifacts exist, parse, and satisfy the step's invariants:

  every step  the manifest next to its first output parses
  synth       the graph cache loads and its edge count matches the manifest
  simulate    every event's mechanism (and fired rule) is one of MECHANISMS
  calibrate   the pool file (and the parameter file, when asked for) parses
  train       the model parses and held-out macro-F1 lies in [0, 1]
  decompose   shares sum to 1 within 1e-9 and the events cover every adopter
              in log.csv, on its adoption day
  match       ci_low <= rr <= ci_high and pairs.csv holds n_pairs rows
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import zipfile

import numpy as np

from contagion_lab.cascade import MECHANISMS

FIRST_OUTPUT = {
    "synth": "graph.npz",
    "simulate": "events.jsonl",
    "calibrate": "pools.json",
    "train": "model.json",
    "decompose": "report.json",
    "match": "pairs.csv",
}


class CheckFailed(Exception):
    pass


def _json(d, name):
    with open(os.path.join(d, name), encoding="utf-8") as fh:
        return json.load(fh)


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _log_rows(d) -> set[tuple[int, int]]:
    with open(os.path.join(d, "log.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _expect(rows and rows[0] == ["node", "day"], "log.csv lacks its node,day header")
    # synthetic graphs name node i by its zero-padded index
    return {(int(node), int(day)) for node, day in rows[1:]}


def _synth(d, manifest):
    with np.load(os.path.join(d, "graph.npz")) as z:
        edges = len(z["followee_ids"])
    _expect(edges == manifest["summary"]["edges"], "graph edge count differs from the manifest")


def _simulate(d, manifest):
    n = 0
    with open(os.path.join(d, "events.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            e = json.loads(line)
            _expect(e["mechanism"] in MECHANISMS, f"unknown mechanism {e['mechanism']!r}")
            _expect(e["mechanism"] in e["fired"], "recorded mechanism did not fire")
            _expect(set(e["fired"]) <= set(MECHANISMS), f"unknown fired rule in {e['fired']}")
            n += 1
    _expect(n == manifest["summary"]["events"], "event count differs from the manifest")
    _expect(_log_rows(d), "log.csv holds no adopters")


def _calibrate(d, manifest):
    pools = _json(d, "pools.json")
    _expect({"beta", "phi", "r", "activity_mean"} <= set(pools), "pools.json lacks a pool")
    if "params.json" in manifest["outputs"]:
        _json(d, "params.json")


def _train(d, _manifest):
    _json(d, "model.json")
    f1 = _json(d, "metrics.json")["macro_f1"]
    _expect(0.0 <= f1 <= 1.0, f"macro-F1 {f1} outside [0, 1]")


def _decompose(d, _manifest):
    report = _json(d, "report.json")
    total = math.fsum(report["overall_shares"].values())
    _expect(abs(total - 1.0) <= 1e-9, f"shares sum to {total!r}")
    covered = {(e["node"], e["day"]) for e in report["events"]}
    _expect(len(covered) == len(report["events"]), "report repeats an adopter")
    _expect(covered == _log_rows(d), "report events do not cover the log's adopters")


def _match(d, manifest):
    risk = _json(d, "risk.json")
    _expect(risk["ci_low"] <= risk["rr"] <= risk["ci_high"], f"rr outside its CI: {risk}")
    with open(os.path.join(d, "pairs.csv"), newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    n_pairs = manifest["summary"]["n_pairs"]
    _expect(rows == n_pairs, f"pairs.csv holds {rows} rows, n_pairs is {n_pairs}")
    _expect(_json(d, "diagnostics.json")["n_pairs"] == n_pairs, "diagnostics n_pairs differs")


_CHECKS = {
    "synth": _synth,
    "simulate": _simulate,
    "calibrate": _calibrate,
    "train": _train,
    "decompose": _decompose,
    "match": _match,
}


def check_step(step: str, d: str) -> list[str]:
    try:
        manifest = _json(d, FIRST_OUTPUT[step] + ".manifest.json")
        for out in manifest["outputs"]:
            _expect(os.path.isfile(os.path.join(d, out)), f"missing artifact {out}")
        _CHECKS[step](d, manifest)
    except CheckFailed as e:
        return [f"{step}: {e}"]
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as e:
        return [f"{step}: unreadable artifact: {type(e).__name__}: {e}"]
    return []


def digests(d: str) -> dict[str, str]:
    """sha256 of every file a repetition left in its directory."""
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def quality(workload: str, d: str) -> dict:
    """Deterministic result figures: macro-F1, or match overlap and distance."""
    if workload == "match":
        diag = _json(d, "diagnostics.json")
        return {"match_overlap": diag["overlap_median"], "match_distance_p90": diag["distance_p90"]}
    return {"macro_f1": _json(d, "metrics.json")["macro_f1"]}
