"""Matched-sample estimator: panel semantics, propensity fits, greedy matching."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from contagion_lab import matchlab
from contagion_lab.calibrate import NEVER, AdoptionLog
from contagion_lab.errors import ConvergenceError, DataError, write_json
from contagion_lab.matchlab import (
    BINARY_LEVELS,
    CORE_COVARIATES,
    DOSE_LEVELS,
    PAIR_DTYPE,
    CovariateTable,
    DayMatchResult,
    Dose,
    MatchRun,
    PlaceboFuture,
    PropensityModel,
    RiskTable,
    Timing,
    TreatmentPanel,
    build_panel,
    diagnostics,
    fit_propensity,
    match_all_days,
    naive_risk_table,
    permute_within_day,
    pool_risk_ratio,
    write_pairs,
    _MatchContext,
    _distinct_rows,
    _match_day,
    _rank_auc,
    _sq_dist,
)
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.structtest import average_ranks
from contagion_lab.synthgen import SynthConfig, gen_graph, gen_homophily_adoptions, gen_traits


def row_logits(model, level=1):
    """A model's `level` logits gathered by `group`, one per panel row."""
    return model.group_logits(level)[model.group]


def no_counts(n):
    """The count block of a panel whose covariates all sit in its node block:
    each fixture below with one row per ego passes its float rows as `node_X`."""
    return np.zeros((n, 0), dtype=np.int8)


# ---------------------------------------------------------------- risk tables

def test_risk_table_zero_cell_correction():
    t = RiskTable.from_counts(0, 10, 2, 8)
    assert t.corrected
    assert abs(t.rr - (0.5 / 11) / (2.5 / 11)) < 1e-12
    assert abs(t.rr - 0.2) < 1e-12


def test_risk_table_katz_hand_case():
    t = RiskTable.from_counts(10, 90, 5, 95)
    assert not t.corrected
    assert abs(t.rr - 2.0) < 1e-12
    se = math.sqrt(1 / 10 - 1 / 100 + 1 / 5 - 1 / 100)
    assert abs(se - math.sqrt(0.28)) < 1e-15
    assert abs(t.ci_low - 2.0 * math.exp(-1.96 * se)) < 1e-12
    assert abs(t.ci_high - 2.0 * math.exp(1.96 * se)) < 1e-12
    assert round(t.ci_low, 3) == 0.709
    assert t.ci_low <= t.rr <= t.ci_high


def test_risk_table_symmetry_and_errors():
    t = RiskTable.from_counts(7, 13, 7, 13)
    assert t.rr == 1.0
    with pytest.raises(DataError):
        RiskTable.from_counts(-1, 2, 3, 4)
    with pytest.raises(DataError):
        RiskTable.from_counts(0, 0, 3, 4)
    with pytest.raises(DataError):
        pool_risk_ratio([])


def test_risk_table_json_round_trip(tmp_path):
    t = RiskTable.from_counts(3, 17, 1, 19)
    path = tmp_path / "rr.json"
    write_json(path, t.to_dict(), indent=2)
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "a": 3.0, "b": 17.0, "c": 1.0, "d": 19.0,
        "rr": t.rr, "ci_low": t.ci_low, "ci_high": t.ci_high, "corrected": False,
    }


# ---------------------------------------------------------------- panel build

def line_world():
    # 0 and 2 follow 1; node 1 adopts on day 10
    g = DirectedGraph.from_edges(np.array([(0, 1), (2, 1)]), n_nodes=3)
    ad = np.array([NEVER, 10, NEVER])
    log = AdoptionLog(ad, last_day=20)
    return g, log


def test_timing_same_day_exposure_excluded():
    g, log = line_world()
    cov = CovariateTable(g, log, lag=7)
    for d in range(1, 7):
        panel = build_panel(cov, Timing(d=d), days=[10])
        row = np.flatnonzero(panel.ego == 0)[0]
        assert panel.treatment[row] == 0


def test_timing_window_boundaries():
    g, log = line_world()
    cov = CovariateTable(g, log, lag=7)
    panel = build_panel(cov, Timing(d=3), days=range(10, 15))
    for day, expect in [(10, 0), (11, 1), (12, 1), (13, 1), (14, 0)]:
        row = np.flatnonzero((panel.ego == 0) & (panel.day == day))[0]
        assert panel.treatment[row] == expect, day
    # days are sorted, so rows come out in (day, ego) order; a repeated day is rejected
    back = build_panel(cov, Timing(d=3), days=range(14, 9, -1))
    assert np.array_equal(back.day, panel.day) and np.array_equal(back.ego, panel.ego)
    assert np.array_equal(back.treatment, panel.treatment)
    with pytest.raises(DataError):
        build_panel(cov, Timing(d=3), days=[12, 10, 12])


def test_risk_set_drops_adopters():
    g, log = line_world()
    cov = CovariateTable(g, log, lag=7)
    panel = build_panel(cov, Timing(d=2), days=range(9, 13))
    mine = panel.day[panel.ego == 1]
    assert set(mine.tolist()) == {9, 10}
    on_day = np.flatnonzero((panel.ego == 1) & (panel.day == 10))[0]
    assert panel.outcome[on_day] == 1


def test_dose_binning_three_plus():
    # ego 0 follows 1..5, all of which adopt within the trailing week
    edges = np.array([(0, v) for v in range(1, 6)])
    g = DirectedGraph.from_edges(edges, n_nodes=6)
    ad = np.array([NEVER, 3, 3, 4, 5, 5])
    log = AdoptionLog(ad, last_day=15)
    cov = CovariateTable(g, log, lag=8)
    panel = build_panel(cov, Dose(), days=[8])
    row = np.flatnonzero(panel.ego == 0)[0]
    assert panel.levels[panel.treatment[row]] == "3+"
    # and exact small counts map to their own bins
    for day, lv in [(11, "3"), (12, "2"), (13, "0")]:
        p2 = build_panel(cov, Dose(), days=[day])
        r2 = np.flatnonzero(p2.ego == 0)[0]
        assert p2.levels[p2.treatment[r2]] == lv


def test_placebo_future_window():
    g, log = line_world()
    cov = CovariateTable(g, log, lag=7)
    panel = build_panel(cov, PlaceboFuture(d=3), days=range(7, 12))
    for day, expect in [(7, 1), (8, 1), (9, 1), (10, 0), (11, 0)]:
        row = np.flatnonzero((panel.ego == 0) & (panel.day == day))[0]
        assert panel.treatment[row] == expect, day


DIRECTION_ERROR = "unknown direction 'x'; expected one of ('followee', 'follower', 'mutual')"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Timing(d=0), "timing window d must be in 1..6, got 0"),
        (lambda: Timing(d=7), "timing window d must be in 1..6, got 7"),
        (lambda: PlaceboFuture(d=0), "placebo window d must be in 1..6, got 0"),
        (lambda: PlaceboFuture(d=7), "placebo window d must be in 1..6, got 7"),
        (lambda: Timing(d=3, direction="x"), DIRECTION_ERROR),
        (lambda: Dose(direction="x"), DIRECTION_ERROR),
        (lambda: PlaceboFuture(d=3, direction="x"), DIRECTION_ERROR),
    ],
)
def test_design_errors_are_pinned(make, message):
    with pytest.raises(DataError) as err:
        make()
    assert str(err.value) == message


def test_placebo_permuted_preserves_daily_multisets():
    g, log, trait = homophily_world(seed=3)
    cov = CovariateTable(g, log, lag=8)
    base = build_panel(cov, Dose())
    perm = permute_within_day(base, 11)
    assert perm.n_rows == base.n_rows
    assert perm.kind_label == "placebo_permuted(base=dose(window=7,direction=followee),seed=11)"
    changed = 0
    for D, _ in base.rows_by_day():
        idx = np.flatnonzero(base.day == D)
        a = np.sort(base.treatment[idx])
        b = np.sort(perm.treatment[idx])
        assert np.array_equal(a, b)
        changed += int(not np.array_equal(base.treatment[idx], perm.treatment[idx]))
    assert changed > 0
    again = permute_within_day(build_panel(cov, Dose()), 11)
    assert np.array_equal(perm.treatment, again.treatment)


def test_covariate_misalignment_errors():
    g, log = line_world()
    # a table's log covers its graph's nodes: the panel reads both from it
    for ad in ([NEVER, 10], [NEVER, 10, NEVER, 12]):
        with pytest.raises(DataError, match="adoption log covers"):
            CovariateTable(g, AdoptionLog(np.array(ad), last_day=20), lag=7)
    with pytest.raises(DataError):
        build_panel(CovariateTable(g, log, lag=3), Timing(d=5))
    # counts at day - lag must predate the window's first day, day - 7
    for lag in (5, 7):
        with pytest.raises(DataError, match="at least 8"):
            build_panel(CovariateTable(g, log, lag=lag), Dose())


def test_dose_lag_seven_would_count_a_neighbor_twice():
    # node 1 adopts on day 3 = 10 - 7: a lag-7 covariate counts it, and so
    # does the dose window [3, 9]; at lag 8 only the dose does
    g, _ = line_world()
    log = AdoptionLog(np.array([NEVER, 3, NEVER]), last_day=20)
    i_cnt = CovariateTable(g, log, lag=7).names.index("followee_adopted_count")
    assert CovariateTable(g, log, lag=7).values(10)[0, i_cnt] == 1
    panel = build_panel(CovariateTable(g, log, lag=8), Dose(), days=[10])
    assert panel.covariates(np.arange(panel.n_rows))[0, i_cnt] == 0
    assert panel.levels[panel.treatment[0]] == "1"


def test_covariate_values_hand_case():
    g, log = line_world()
    cov = CovariateTable(g, log, lag=7)
    names = list(cov.names)
    x17 = cov.values(17)[0]  # cutoff day 10: node 1 adopted
    x16 = cov.values(16)[0]  # cutoff day 9: nothing yet
    i_cnt = names.index("followee_adopted_count")
    i_frac = names.index("followee_adopted_frac")
    assert x17[i_cnt] == 1.0 and x16[i_cnt] == 0.0
    assert x17[i_frac] == 1.0  # ego 0 has a single followee
    assert x17[names.index("in_degree")] == 1.0
    assert x17[names.index("out_degree")] == 0.0
    assert x17[names.index("log_total_degree")] == pytest.approx(np.log(2.0))


def reference_neighbor_adoptions(g, log, direction):
    """A[u, t] = number of u's direction-neighbors adopting exactly on day first_day + t.

    The dense per-adopter loop the exposure index replaced, kept as a reference.
    """
    A = np.zeros((g.node_count, log.horizon_days), dtype=np.int64)
    for v in log.adopters():
        t = log.adoption_day[v] - log.first_day
        if direction == "followee":
            nbrs = g.followers(v)  # v is a followee of those who follow v
        elif direction == "follower":
            nbrs = g.followees(v)
        else:
            nbrs = g.mutual(v)
        A[nbrs, t] += 1
    return A


def reference_worlds():
    """Random worlds with reciprocal ties, isolated nodes and first_day > 0."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n, used = 60, 52  # nodes 52..59 have no ties
        edges = rng.integers(0, used, size=(300, 2))
        edges = np.vstack([edges, edges[:80, ::-1]])  # reciprocate some ties
        g = DirectedGraph.from_edges(edges, n_nodes=n)
        first, last = 5, 40
        ad = rng.integers(first, last + 1, size=n)
        ad[rng.random(n) < 0.4] = NEVER
        yield g, AdoptionLog(ad, first_day=first, last_day=last)


def test_covariate_counts_match_reference():
    for g, log in reference_worlds():
        deg = {
            "followee": g.in_degree,
            "follower": g.out_degree,
            "mutual": np.array([len(g.mutual(i)) for i in range(g.node_count)]),
        }
        for lag in (0, 7):
            cov = CovariateTable(g, log, lag=lag)
            names = list(cov.names)
            for direction in ("followee", "follower", "mutual"):
                A = reference_neighbor_adoptions(g, log, direction)
                i_cnt = names.index(f"{direction}_adopted_count")
                i_frac = names.index(f"{direction}_adopted_frac")
                for D in range(log.first_day, log.last_day + 1):
                    # adopted on or before the cutoff day D - lag
                    col = max(D - lag - log.first_day + 1, 0)
                    cnt = A[:, :col].sum(axis=1)
                    X = cov.values(D)
                    assert np.array_equal(X[:, i_cnt], cnt), (direction, lag, D)
                    frac = np.where(deg[direction] > 0, cnt / np.maximum(deg[direction], 1), 0)
                    assert np.array_equal(X[:, i_frac], frac), (direction, lag, D)


def test_panel_treatment_matches_reference():
    # (design for a direction, window offsets from the panel day, code of a count)
    designs = [
        (lambda dr: Timing(d=3, direction=dr), (-3, -1), lambda c: c > 0),
        (lambda dr: Dose(direction=dr), (-7, -1), lambda c: np.minimum(c, 4)),
        (lambda dr: PlaceboFuture(d=4, direction=dr), (1, 4), lambda c: c > 0),
    ]
    for g, log in reference_worlds():
        cov = CovariateTable(g, log, lag=8)
        ad = log.adoption_day
        # every horizon day: the first windows start before first_day and
        # the last placebo windows end after last_day
        days = range(log.first_day, log.last_day + 1)
        for direction in ("followee", "follower", "mutual"):
            A = reference_neighbor_adoptions(g, log, direction)
            for make, (a, b), code in designs:
                kind = make(direction)
                panel = build_panel(cov, kind, days=days)
                for D in days:
                    rows = panel.day == D
                    risk = np.flatnonzero((ad == NEVER) | (ad >= D))
                    assert np.array_equal(panel.ego[rows], risk)
                    ia = max(D + a - log.first_day, 0)
                    ib = min(D + b - log.first_day, log.horizon_days - 1)
                    cnt = A[risk, ia : ib + 1].sum(axis=1)
                    assert np.array_equal(panel.treatment[rows], code(cnt)), (kind, D)


@dataclasses.dataclass(frozen=True)
class Recency:
    """Level k when the most recent neighbor adoption in [D - 6, D - 1] was
    k days before D, and level 0 when there was none: a rule no capped count
    gives."""

    direction: str = "followee"
    levels = tuple(str(k) for k in range(7))
    window = (-6, -1)
    label = "recency(window=6)"

    def treatment(self, covariates, risk, D):
        m, _, last = covariates.exposure[self.direction].exposure(risk, D)
        ago = np.where(m > 0, D - last, 0)
        return np.where(ago <= 6, ago, 0)


def test_panel_treatment_comes_from_the_design_rule():
    nbrs = {"followee": DirectedGraph.followees, "follower": DirectedGraph.followers,
            "mutual": DirectedGraph.mutual}
    for g, log in reference_worlds():
        cov = CovariateTable(g, log, lag=7)
        ad = log.adoption_day
        days = range(log.first_day, log.last_day + 1)
        for direction, of in nbrs.items():
            panel = build_panel(cov, Recency(direction), days=days)
            assert panel.levels == Recency.levels and panel.kind_label == "recency(window=6)"
            for D in days:
                rows = panel.day == D
                expect = []
                for u in panel.ego[rows]:
                    t = ad[of(g, u)]
                    ago = D - t[(t != NEVER) & (t < D) & (t >= D - 6)]
                    expect.append(ago.min() if len(ago) else 0)
                assert np.array_equal(panel.treatment[rows], expect), (direction, D)


# ----------------------------------------------------------------- propensity

def random_panel(n, p, seed, treat_rule):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    t = treat_rule(rng, X).astype(np.int64)
    return TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.zeros(n, dtype=np.int64),
        treatment=t,
        outcome=rng.integers(0, 2, n),
        X=no_counts(len(X)),
        node_X=X,
        names=tuple(f"c{i}" for i in range(p)),
        core_idx=tuple(range(p)),
        levels=BINARY_LEVELS,
    )


def test_panel_duplicate_rows_and_days():
    def panel(ego, day):
        n = len(ego)
        return TreatmentPanel(
            ego=np.array(ego, dtype=np.int64),
            day=np.array(day, dtype=np.int64),
            treatment=np.zeros(n, dtype=np.int64),
            outcome=np.zeros(n, dtype=np.int64),
            X=no_counts(n),
            node_X=np.zeros((4, 1)),
            names=("a",),
            core_idx=(0,),
            levels=BINARY_LEVELS,
        )

    groups = panel([1, 3, 2, 3], [2, 2, 5, 5]).rows_by_day()
    assert groups == [(2, slice(0, 2)), (5, slice(2, 4))]
    assert panel([], []).rows_by_day() == []
    with pytest.raises(DataError):
        panel([1, 3, 3], [2, 5, 5])


def test_propensity_no_signal_auc():
    panel = random_panel(1000, 5, 0, lambda rng, X: rng.integers(0, 2, len(X)))
    model = fit_propensity(panel)
    s = row_logits(model)
    assert abs(_rank_auc(s, panel.treatment == 1, np.argsort(s, kind="stable")) - 0.5) < 0.05
    assert len(model.classes) == 2


def test_propensity_separable_auc():
    panel = random_panel(500, 4, 1, lambda rng, X: (X[:, 0] > 0).astype(int))
    model = fit_propensity(panel)
    s = row_logits(model)
    assert _rank_auc(s, panel.treatment == 1, np.argsort(s, kind="stable")) >= 0.99
    assert np.all(np.isfinite(model.coef))


def test_propensity_recovers_coefficients():
    rng = np.random.default_rng(2)
    n = 10_000
    theta = np.array([0.8, -0.5, 0.3])
    X = rng.normal(size=(n, 3))
    eta = -0.2 + X @ theta
    t = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(np.int64)
    panel = TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.zeros(n, dtype=np.int64),
        treatment=t,
        outcome=np.zeros(n, dtype=np.int64),
        X=no_counts(len(X)),
        node_X=X,
        names=("a", "b", "c"),
        core_idx=(0, 1, 2),
        levels=BINARY_LEVELS,
    )
    model = fit_propensity(panel)
    # fit runs on standardized columns; map slopes back to raw scale
    slopes = model.coef[0][1:] / model.scale
    assert np.all(np.abs(slopes - theta) < 0.1)


def test_propensity_floor_enforced():
    panel = random_panel(30, 3, 3, lambda rng, X: (np.arange(len(X)) < 5).astype(int))
    with pytest.raises(DataError):
        fit_propensity(panel)


@pytest.mark.parametrize("floor", [-5, 0])
def test_propensity_floor_needs_two_present_levels(floor):
    # one level holds every row: no floor makes the absent level count
    panel = random_panel(30, 3, 3, lambda rng, X: np.zeros(len(X)))
    with pytest.raises(DataError, match=r"level counts \[30, 0\]"):
        fit_propensity(panel, min_level_rows=floor)


def test_propensity_multinomial_probabilities():
    rng = np.random.default_rng(4)
    n = 600
    X = rng.normal(size=(n, 3))
    score = X[:, 0] + 0.5 * rng.normal(size=n)
    t = np.clip(np.digitize(score, [-1.0, 0.0, 1.0, 1.8]), 0, 4).astype(np.int64)
    panel = TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.zeros(n, dtype=np.int64),
        treatment=t,
        outcome=np.zeros(n, dtype=np.int64),
        X=no_counts(len(X)),
        node_X=X,
        names=("a", "b", "c"),
        core_idx=(0, 1, 2),
        levels=("0", "1", "2", "3", "3+"),
    )
    model = fit_propensity(panel, min_level_rows=10)
    assert len(model.classes) == 5
    present = model.probs[:, list(model.classes)]
    assert np.all(np.abs(present.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(present > 0) and np.all(present < 1)
    for level in model.classes:
        assert np.all(np.isfinite(row_logits(model, level)))


@pytest.mark.parametrize("levels", [BINARY_LEVELS, DOSE_LEVELS])
def test_propensity_converges_with_a_collinear_column(levels):
    # an extra column equal to a + b leaves one coefficient direction
    # unidentified, pinned only by the ridge; the fit stops on its Newton
    # decrement instead of walking along that direction (a stop on the step
    # size took up to 12 iterations here on the binary path and ran out of
    # all 100 on the multinomial one)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 20_000
        X = rng.normal(size=(n, 3))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        s = X[:, 0] - 0.5 * X[:, 2] + rng.normal(size=n)
        cuts = [0.5] if levels == BINARY_LEVELS else [-1.0, 0.0, 1.0, 1.8]
        panel = TreatmentPanel(
            ego=np.arange(n, dtype=np.int64),
            day=np.zeros(n, dtype=np.int64),
            treatment=np.digitize(s, cuts).astype(np.int64),
            outcome=np.zeros(n, dtype=np.int64),
            X=no_counts(len(X)),
            node_X=X,
            names=("a", "b", "c", "a_plus_b"),
            core_idx=(0, 1, 2),
            levels=levels,
        )
        model = fit_propensity(panel)
        assert len(model.classes) == len(levels)
        assert model.iterations <= 10, seed


def reference_fit_dense(X, treatment, ridge=1e-6, tol=1e-8, max_iter=100):
    """The dense Newton fit that the per-day blocks replaced, kept as a
    reference: it standardizes and holds the whole (rows x (p+1)) design and
    its weighted copies. Returns (coef, mean, scale, iterations, halvings)."""
    classes = np.flatnonzero(np.bincount(treatment))
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale == 0, 1.0, scale)
    n, p = X.shape
    D = np.column_stack([np.ones(n), (X - mean) / scale])
    q = p + 1
    K = len(classes)
    pen = np.tile(np.r_[0.0, np.full(p, ridge)], K - 1)
    Y = np.zeros((n, K))
    Y[np.arange(n), np.searchsorted(classes, treatment)] = 1.0

    def probs_of(th):
        eta = np.column_stack([np.zeros(n), D @ th.reshape(K - 1, q).T])
        e = np.exp(eta - eta.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def pnll(th):
        ll = np.log(np.clip((probs_of(th) * Y).sum(axis=1), 1e-300, None)).sum()
        return float(-ll + 0.5 * (pen * th * th).sum())

    theta = np.zeros((K - 1) * q)
    nll, halvings = pnll(theta), 0
    for it in range(1, max_iter + 1):
        P = probs_of(theta)
        grad = np.concatenate([D.T @ (Y[:, k] - P[:, k]) for k in range(1, K)]) - pen * theta
        H = np.diag(pen)
        for k in range(1, K):
            for l in range(1, K):
                w = P[:, k] * ((k == l) - P[:, l])
                H[(k - 1) * q : k * q, (l - 1) * q : l * q] += D.T @ (D * w[:, None])
        step = np.linalg.solve(H, grad)
        if 0.5 * (grad @ step) <= tol:
            return theta.reshape(K - 1, q), mean, scale, it, halvings
        t = 1.0
        for _ in range(30):
            new = pnll(theta + t * step)
            if new <= nll + 1e-12:
                break
            t *= 0.5
            halvings += 1
        else:
            new = pnll(theta + t * step)
        theta, nll = theta + t * step, new
    raise AssertionError("reference fit did not converge")


def agreement_panels():
    g, log, trait = homophily_world(2)
    cov = CovariateTable(g, log, lag=7, static=(("trait",), trait.astype(float)))
    yield build_panel(cov, Timing(d=3))
    g, log, _ = homophily_world(6, n=260, h=0.5, rates=(0.02, 0.004))
    yield build_panel(CovariateTable(g, log, lag=8), Dose())


def test_per_day_fit_matches_the_dense_reference():
    kinds = []
    for panel in agreement_panels():
        model = fit_propensity(panel, min_level_rows=5)
        X = panel.covariates(np.arange(panel.n_rows))
        coef, mean, scale, iterations, halvings = reference_fit_dense(X, panel.treatment)
        assert np.abs(model.coef - coef).max() <= 1e-9 * np.abs(coef).max()
        assert np.allclose(model.mean, mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(model.scale, scale, rtol=1e-12, atol=0)
        assert (model.iterations, model.step_halvings) == (iterations, halvings)
        kinds.append((len(model.classes), halvings))
    # the dose design's fit halves one step, so the counter is compared too
    assert kinds == [(2, 0), (5, 1)]


def test_fit_bits_do_not_depend_on_the_blas_thread_count():
    """A dose and a timing fit give bit-identical `coef` and `probs` under
    one and two BLAS threads.

    A BLAS product may split a sum over groups across threads, which moves
    its last bits with the thread count; the fit's sums over groups do not
    go through one. The world is the benchmark's `match` world at 600 nodes
    with its adoption rates tripled. On a host with one CPU the BLAS runs
    one thread either way, so there this test cannot fail.
    """
    code = textwrap.dedent("""
        import hashlib
        import numpy as np
        from contagion_lab.matchlab import (
            CovariateTable, Dose, Timing, build_panel, fit_propensity)
        from contagion_lab.synthgen import (
            SynthConfig, gen_graph, gen_homophily_adoptions, gen_traits)
        cfg = SynthConfig(n_nodes=600, mean_degree=12.0, exponent=2.3, homophily=0.8, seed=41)
        trait = gen_traits(cfg)
        g = gen_graph(cfg, trait)
        log = gen_homophily_adoptions(g, trait, np.array([0.012, 0.003]), 120, seed=41)
        for lag, kind in ((8, Dose()), (7, Timing(d=3))):
            m = fit_propensity(build_panel(CovariateTable(g, log, lag=lag), kind))
            print(len(m.classes), *(hashlib.sha256(a.tobytes()).hexdigest()
                                    for a in (m.coef, m.probs)))
    """)
    env = dict(os.environ)
    pkg_root = str(Path(matchlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        out.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout.splitlines())
    assert [line.split()[0] for line in out[0]] == ["5", "2"]  # dose, then timing
    assert out[0] == out[1]


def test_grouped_fit_is_one_fit_per_distinct_covariate_row():
    g, log, trait = homophily_world(5)
    static = CovariateTable(g, log, lag=8, static=(("trait",), trait.astype(float)))
    panels = [
        permute_within_day(build_panel(CovariateTable(g, log, lag=7), Timing(d=3)), 2),
        build_panel(static, Dose()),
    ]
    for panel in panels:
        model = fit_propensity(panel, min_level_rows=5)
        X = panel.covariates(np.arange(panel.n_rows))
        rows, row_of = np.unique(X, axis=0, return_inverse=True)
        # a group is one covariate row, and each covariate row one group
        assert len(model.probs) == len(rows) == len(np.unique(np.c_[row_of, model.group], axis=0))
        for level in model.classes:
            bits = row_logits(model, level).view(np.int64)
            assert len(np.unique(np.c_[row_of, bits], axis=0)) == len(rows), level
        # within the tolerances of the per-day fit's comparison above
        coef, mean, scale, iterations, halvings = reference_fit_dense(X, panel.treatment)
        assert np.abs(model.coef - coef).max() <= 1e-9 * np.abs(coef).max()
        assert np.allclose(model.mean, mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(model.scale, scale, rtol=1e-12, atol=0)
        assert (model.iterations, model.step_halvings) == (iterations, halvings)
    assert [len(panels[0].names), len(panels[1].names)] == [10, 11]


def distinct_rows_with_inverse(panel):
    """`_distinct_rows` with a `return_inverse` over all days' distinct keys,
    as it was once written."""
    days = panel.rows_by_day()
    group = np.empty(panel.n_rows, dtype=matchlab._int_dtype(0, panel.n_rows))
    keys = []
    for _, rows in days:
        k, group[rows] = np.unique(panel.row_keys(rows), return_inverse=True)
        keys.append(k)
    lens = [len(k) for k in keys]
    distinct, where = np.unique(np.concatenate(keys), return_inverse=True)
    n_groups, n_levels = len(distinct), len(panel.levels)
    rep = np.empty(n_groups, dtype=np.int64)
    counts = np.zeros(n_groups * n_levels, dtype=np.int64)
    for (_, rows), a in zip(days, np.cumsum([0] + lens[:-1])):
        g = where[a + group[rows]]
        group[rows] = g
        rep[g] = np.arange(rows.start, rows.stop)
        counts += np.bincount(g * n_levels + panel.treatment[rows], minlength=counts.size)
    return group, rep, counts.reshape(n_groups, n_levels)


def test_distinct_rows_equal_the_inverse_grouping():
    g, log, trait = homophily_world(5)
    static = CovariateTable(g, log, lag=8, static=(("trait",), trait.astype(float)))
    panels = [
        build_panel(CovariateTable(g, log, lag=7), Timing(d=3)),
        build_panel(CovariateTable(g, log, lag=8), Dose()),
        build_panel(static, PlaceboFuture(d=2)),
    ]
    for panel in panels:
        got, want = _distinct_rows(panel), distinct_rows_with_inverse(panel)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), panel.kind_label


def test_distinct_rows_hold_no_inverse_over_the_day_keys():
    # the grouping's transient is a few words per summed day-key (each day's
    # distinct keys, concatenated); a panel-wide inverse took about 66 bytes
    import tracemalloc

    g, log, trait = homophily_world(1, n=2000, horizon=60)
    cov = CovariateTable(g, log, lag=7, static=(("trait",), trait.astype(float)))
    panel = build_panel(cov, Timing(d=3))
    day_keys = sum(len(np.unique(panel.row_keys(rows))) for _, rows in panel.rows_by_day())
    tracemalloc.start()
    try:
        _distinct_rows(panel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert day_keys > 20_000
    assert peak < 32 * day_keys, (peak / day_keys, day_keys)


@pytest.mark.parametrize("levels", [BINARY_LEVELS, DOSE_LEVELS])
def test_newton_cap_raises_convergence_error(levels, monkeypatch):
    # one iteration cannot bring the decrement of a fit from zero
    # coefficients under the tolerance, so the cap is reached
    rng = np.random.default_rng(6)
    n = 600
    X = rng.normal(size=(n, 3))
    cuts = [0.0] if levels == BINARY_LEVELS else [-1.0, 0.0, 1.0, 1.8]
    panel = TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.zeros(n, dtype=np.int64),
        treatment=np.digitize(X[:, 0] + rng.normal(size=n), cuts).astype(np.int64),
        outcome=np.zeros(n, dtype=np.int64),
        X=no_counts(n),
        node_X=X,
        names=("a", "b", "c"),
        core_idx=(0, 1, 2),
        levels=levels,
    )
    assert fit_propensity(panel, min_level_rows=10).iterations > 1
    monkeypatch.setattr(matchlab, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="did not converge") as err:
        fit_propensity(panel, min_level_rows=10)
    assert err.value.iterations == 1


def test_line_search_counts_halvings():
    t, value, halvings = matchlab._line_search(lambda t: (t - 0.1) ** 2, 0.01)
    assert (t, halvings) == (0.125, 3) and value == (0.125 - 0.1) ** 2
    t, value, halvings = matchlab._line_search(lambda t: 1.0 + t, 0.5)
    assert (t, value, halvings) == (2.0**-30, 1.0 + 2.0**-30, 30)


def test_fit_and_match_hold_no_panel_wide_design_block():
    # about 2k nodes x 60 days: the dense fit held the standardized design,
    # D = [1, Z] and D * w, each rows x (p + 1) floats, at every iteration
    import tracemalloc

    g, log, trait = homophily_world(1, n=2000, horizon=60)
    cov = CovariateTable(g, log, lag=7, static=(("trait",), trait.astype(float)))
    panel = build_panel(cov, Timing(d=3))
    block = panel.n_rows * (len(panel.names) + 1) * 8
    tracemalloc.start()
    try:
        model = fit_propensity(panel)
        run = match_all_days(panel, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.n_rows > 50_000 and len(run.pairs) > 1000
    assert peak < block, (peak, block)


def test_match_run_holds_each_pair_once():
    # each day's pairs are its slice of the run's table, equal to the day's
    # own matching pass, so the run holds every pair once
    g, log, trait = homophily_world(3)
    cov = CovariateTable(g, log, lag=7, static=(("trait",), trait.astype(float)))
    panel = build_panel(cov, Timing(d=3))
    model = fit_propensity(panel)
    run = match_all_days(panel, model, caliper_mult=0.2)
    ctx = _MatchContext(panel, model)
    start = 0
    for r, (day, rows) in zip(run.results, panel.rows_by_day(), strict=True):
        want = _match_day(ctx, day, rows, 0.2, 1)
        assert (r.day, r.n_treated, r.n_matched, r.skip_reason) == (
            want.day, want.n_treated, want.n_matched, want.skip_reason)
        assert isinstance(r.pairs, np.recarray) and r.pairs.tobytes() == want.pairs.tobytes()
        assert r.pairs.tobytes() == run.pairs[start : start + len(r.pairs)].tobytes()
        if len(r.pairs):
            assert np.shares_memory(r.pairs, run.pairs)
        start += len(r.pairs)
    assert start == len(run.pairs) and sum(len(r.pairs) > 0 for r in run.results) > 5


def test_row_keys_name_distinct_covariate_rows():
    g, log, trait = homophily_world(3)
    cov = CovariateTable(g, log, lag=7, static=(("trait",), trait.astype(float)))
    panel = build_panel(cov, Timing(d=3))
    rows = np.arange(panel.n_rows)
    _, by_key = np.unique(panel.row_keys(rows), return_inverse=True)
    _, by_row = np.unique(panel.covariates(rows), axis=0, return_inverse=True)
    assert len(np.unique(np.c_[by_key, by_row], axis=0)) == by_key.max() + 1 == by_row.max() + 1
    assert np.array_equal(panel.row_keys(slice(5, 40)), panel.row_keys(rows)[5:40])

    def counts_panel(X):
        n = len(X)
        return TreatmentPanel(
            ego=np.arange(n), day=np.zeros(n, dtype=np.int64),
            treatment=np.zeros(n, dtype=np.int64), outcome=np.zeros(n, dtype=np.int64),
            X=np.array(X, dtype=np.int64), node_X=np.ones((n, 3)),
            names=tuple(f"c{i}" for i in range(9)), core_idx=tuple(range(9)),
            levels=BINARY_LEVELS,
        )

    # negative counts shift to nonnegative digits, so no two rows share a key
    keys = counts_panel([[-3, 0, 2], [0, -3, 2], [-3, 0, 1], [2, 2, 2]]).row_keys(slice(0, 4))
    assert len(set(keys.tolist())) == 4 and keys.min() >= 0
    big = 2**21
    counts_panel([[0, 0, 0], [big - 1] * 3]).row_keys(slice(0, 2))  # 2**63 keys fit
    with pytest.raises(DataError, match="int64 row key"):
        counts_panel([[0, 0, 0], [big] * 3]).row_keys(slice(0, 2))


def test_panel_covariates_equal_table_values():
    g, log, trait = homophily_world(3)
    cov = CovariateTable(g, log, lag=7, static=(("trait",), trait.astype(float)))
    panel = build_panel(cov, Timing(d=3))
    for D, rows in panel.rows_by_day():
        # the same helper builds both, so the rows are bit-identical
        want = np.ascontiguousarray(cov.values(D)[panel.ego[rows]])
        assert np.ascontiguousarray(panel.covariates(rows)).tobytes() == want.tobytes(), D
    # ints only per row: 2-byte ego, 1-byte day, treatment and outcome,
    # three 1- or 2-byte counts
    row_bytes = sum(
        a.itemsize * (a.shape[1] if a.ndim == 2 else 1)
        for a in (panel.ego, panel.day, panel.treatment, panel.outcome, panel.X)
    )
    assert row_bytes <= 11


def test_core_covariates_are_full_rank():
    g, log, _ = homophily_world(6, n=260, h=0.5, rates=(0.02, 0.004))
    panel = build_panel(CovariateTable(g, log, lag=7), Timing(d=3))
    core = panel.covariates(np.arange(panel.n_rows))[:, list(panel.core_idx)]
    assert np.linalg.matrix_rank(core) == len(CORE_COVARIATES) == core.shape[1]


# ------------------------------------------------------------------- matching


def test_sq_dist_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(0)
    W = np.asfortranarray(rng.normal(size=(300, 10)) * np.logspace(-3, 3, 10))
    a = rng.integers(0, 300, 10_000)
    b = rng.integers(0, 300, 10_000)
    full = _sq_dist(W, a, b)
    diff = W[a] - W[b]
    assert np.allclose(full, np.einsum("ij,ij->i", diff, diff), rtol=1e-12, atol=0)
    for start in (0, 17, 5_000, 9_993):
        for m in (1, 7):
            part = _sq_dist(W, a[start : start + m], b[start : start + m])
            assert part.tobytes() == full[start : start + m].tobytes(), (start, m)
        # one treated row against many controls, as reference_match_day calls it
        one = _sq_dist(W, a[start : start + 7], b[start])
        assert one[0].tobytes() == full[start].tobytes()

def stub_model(panel, logits_by_row):
    """Propensity stub with prescribed treated-probability logits, each row
    its own group."""
    p1 = 1 / (1 + np.exp(-np.asarray(logits_by_row, dtype=float)))
    probs = np.column_stack([1 - p1, p1])
    return PropensityModel(
        classes=(0, 1),
        coef=np.zeros((1, len(panel.names) + 1)),
        mean=np.zeros(len(panel.names)),
        scale=np.ones(len(panel.names)),
        group=np.arange(len(probs)),
        rep=np.arange(len(probs)),
        probs=probs,
        iterations=1,
    )


def micro_panel(seed, n_treated=3, n_control=5, p=3):
    rng = np.random.default_rng(seed)
    n = n_treated + n_control
    X = rng.normal(size=(n, p))
    treatment = np.array([1] * n_treated + [0] * n_control, dtype=np.int64)
    panel = TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.full(n, 4, dtype=np.int64),
        treatment=treatment,
        outcome=rng.integers(0, 2, n),
        X=no_counts(len(X)),
        node_X=X,
        names=tuple(f"c{i}" for i in range(p)),
        core_idx=tuple(range(p)),
        levels=BINARY_LEVELS,
    )
    logits = rng.normal(size=n)
    return panel, stub_model(panel, logits)


def oracle_greedy(panel, model, caliper_mult=0.1):
    """Plain-python exhaustive greedy matching, ascending treated id."""
    scores = row_logits(model)
    sd = float(np.std(scores, ddof=1))
    caliper = caliper_mult * sd
    C = panel.covariates(np.arange(panel.n_rows))[:, list(panel.core_idx)]
    Z = (C - C.mean(axis=0)) / np.where(C.std(axis=0) == 0, 1.0, C.std(axis=0))
    S = np.cov(Z, rowvar=False, ddof=1) + 1e-9 * np.eye(Z.shape[1])
    VI = np.linalg.inv(S)
    treated = sorted(int(e) for e in panel.ego[panel.treatment == 1])
    controls = sorted(int(e) for e in panel.ego[panel.treatment == 0])
    row_of = {int(panel.ego[i]): i for i in range(panel.n_rows)}
    used = set()
    pairs = []
    for t in treated:
        best = None
        for c in controls:
            if c in used:
                continue
            if abs(scores[row_of[t]] - scores[row_of[c]]) > caliper:
                continue
            d = Z[row_of[t]] - Z[row_of[c]]
            md = math.sqrt(max(float(d @ VI @ d), 0.0))
            if best is None or md < best[0]:
                best = (md, c)
        if best is not None:
            used.add(best[1])
            pairs.append((t, best[1]))
    return pairs


def test_greedy_matches_brute_force_oracle():
    for seed in range(300):
        panel, model = micro_panel(seed)
        res = match_all_days(panel, model).results[0]
        got = [(p.treated, p.control) for p in res.pairs]
        assert got == oracle_greedy(panel, model), seed


def test_identical_control_matches_at_zero():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, -1.0]])
    panel = TreatmentPanel(
        ego=np.arange(3, dtype=np.int64),
        day=np.zeros(3, dtype=np.int64),
        treatment=np.array([1, 0, 0], dtype=np.int64),
        outcome=np.array([1, 0, 1], dtype=np.int64),
        X=no_counts(len(X)),
        node_X=X,
        names=("a", "b"),
        core_idx=(0, 1),
        levels=BINARY_LEVELS,
    )
    model = stub_model(panel, [0.3, 0.3, 2.0])
    res = match_all_days(panel, model).results[0]
    assert len(res.pairs) == 1
    assert res.pairs[0].control == 1
    assert res.pairs[0].mahalanobis == 0.0
    assert res.pairs[0].logit_gap == 0.0


def test_caliper_excludes_distant_controls():
    X = np.random.default_rng(0).normal(size=(4, 2))
    panel = TreatmentPanel(
        ego=np.arange(4, dtype=np.int64),
        day=np.zeros(4, dtype=np.int64),
        treatment=np.array([1, 1, 0, 0], dtype=np.int64),
        outcome=np.zeros(4, dtype=np.int64),
        X=no_counts(len(X)),
        node_X=X,
        names=("a", "b"),
        core_idx=(0, 1),
        levels=BINARY_LEVELS,
    )
    # one treated sits on a control's logit, the other is far outside
    model = stub_model(panel, [0.0, 50.0, 0.0, 0.1])
    res = match_all_days(panel, model).results[0]
    assert res.n_matched == 1
    assert res.pairs[0].treated == 0
    assert res.overlap == 0.5
    sd = float(np.std(row_logits(model), ddof=1))
    for p in res.pairs:
        assert abs(p.logit_gap) <= 0.1 * sd


def test_without_replacement_within_day():
    for seed in range(40):
        panel, model = micro_panel(seed, n_treated=5, n_control=5)
        res = match_all_days(panel, model, caliper_mult=100.0).results[0]
        controls = [p.control for p in res.pairs]
        assert len(controls) == len(set(controls))


def test_day_without_controls_skipped():
    panel, model = micro_panel(0, n_treated=3, n_control=5)
    all_treated = TreatmentPanel(
        ego=panel.ego,
        day=panel.day,
        treatment=np.ones(panel.n_rows, dtype=np.int64),
        outcome=panel.outcome,
        X=panel.X,
        node_X=panel.node_X,
        names=panel.names,
        core_idx=panel.core_idx,
        levels=panel.levels,
    )
    model = stub_model(all_treated, np.zeros(panel.n_rows))
    res2 = match_all_days(all_treated, model).results[0]
    assert res2.skip_reason is not None
    assert res2.n_matched == 0


def test_caliper_must_be_nonnegative():
    panel, model = micro_panel(0)
    for mult in (-1.0, -5e-324, -np.inf, np.nan):
        with pytest.raises(DataError, match="caliper multiplier must be >= 0"):
            match_all_days(panel, model, caliper_mult=mult)
    # inf scans every control, so each of the three treated egos is matched
    assert match_all_days(panel, model, caliper_mult=np.inf).results[0].n_matched == 3


def day_block(panel, rows):
    """`W = Z·L` for the given rows, `Z` their core block standardized by the
    panel's `moments`, whitened one day at a time."""
    core = list(panel.core_idx)
    n = panel.n_rows
    mean, sd, cross = panel.moments
    mu, sd = mean[core], sd[core]
    if n >= 2:
        S = cross[np.ix_(core, core)] / (n - 1) / np.outer(sd, sd)
        VI = np.linalg.inv(S + 1e-9 * np.eye(len(core)))
    else:
        VI = np.eye(len(core))
    Z = (panel.covariates(rows)[:, core] - mu) / sd
    return (np.linalg.cholesky(VI).T @ Z.T).T


def reference_match_day(ctx, day, caliper_mult, level=1):
    """The full-scan matcher: every available control is differenced and
    caliper-tested for every treated ego, on the day's rows whitened on
    their own (`day_block`), which must equal the matcher's group-level `W`
    bit for bit."""
    panel = ctx.panel
    rows = np.flatnonzero(panel.day == day)
    no_pairs = np.recarray(0, dtype=PAIR_DTYPE)
    if rows.size == 0:
        return DayMatchResult(level, day, no_pairs, 0, 0, "no risk-set rows")
    s = ctx.logits[level][ctx.group[rows]]
    sd = float(np.std(s, ddof=1)) if rows.size > 1 else 0.0
    # an infinite multiplier is no caliper, also where the SD is 0
    caliper = np.inf if caliper_mult == np.inf and sd == 0 else caliper_mult * sd
    t = np.flatnonzero(panel.treatment[rows] == level)
    c = np.flatnonzero(panel.treatment[rows] == 0)
    if t.size == 0 or c.size == 0:
        return DayMatchResult(
            level, day, no_pairs, int(t.size), 0, "insufficient treated or control counts"
        )
    ego = panel.ego[rows]
    t = t[np.argsort(ego[t], kind="stable")]
    W = day_block(panel, rows)
    assert np.array_equal(W.view(np.int64), ctx.W[ctx.group[rows]].view(np.int64))
    st = s[t]
    sc = s[c]
    c_ego = ego[c]
    available = np.ones(c.size, dtype=bool)
    pairs = []
    for i in range(t.size):
        avail = np.flatnonzero(available)
        if avail.size == 0:
            break
        cand = avail[np.abs(sc[avail] - st[i]) <= caliper]
        if cand.size == 0:
            continue
        md = np.sqrt(_sq_dist(W, c[cand], t[i]))
        j = np.lexsort((c_ego[cand], md))[0]
        pick = cand[j]
        available[pick] = False
        pairs.append(
            (
                level,
                day,
                ego[t[i]],
                c_ego[pick],
                st[i] - sc[pick],
                md[j],
                panel.outcome[rows[t[i]]],
                panel.outcome[rows[c[pick]]],
            )
        )
    pairs = np.array(pairs, dtype=PAIR_DTYPE).view(np.recarray)
    return DayMatchResult(level, day, pairs, int(t.size), len(pairs), None)


class FixedLogits:
    """Propensity stand-in whose treated-level logits are given per row. Rows
    are grouped by (row key, logit bits), as a fit groups them by row key,
    and `rep` holds one row of each group."""

    classes = (0, 1)

    def __init__(self, panel, logits):
        logits = np.asarray(logits, dtype=float)
        named = np.c_[panel.row_keys(np.arange(panel.n_rows)), logits.view(np.int64)]
        _, self.rep, group = np.unique(named, axis=0, return_index=True, return_inverse=True)
        self.group = group.ravel()
        self.logits = logits[self.rep]

    def group_logits(self, level):
        return self.logits


def result_bits(res):
    """A DayMatchResult as plain values, each pair record as its exact bytes."""
    assert res.pairs.dtype == PAIR_DTYPE
    pairs = tuple(p.tobytes() for p in res.pairs)
    return (res.day, pairs, res.n_treated, res.n_matched, res.skip_reason)


EDGE_MULT = 0.6


def edge_logits(c):
    """Logits that sit on the rounding edges of a caliper `c`.

    Treated A and control B have fl(B - A) == c although B - A > c, so the
    exact test admits B, yet fl(A + c) < B: a window bounded by the rounded
    A + c alone would lose B.  The next two mirror this on the lower bound.
    The last two, a treated 0.0 and a control just above c, lie outside the
    caliper but inside a window widened by a few ulps.
    """
    a = np.nextafter(c, 0.0)
    g = c - a
    return np.array([-a, g + g / 8, a, -(g + g / 8), 0.0, np.nextafter(c, np.inf)])


def window_panel(seed, n_days=12, p=3, logits="grid"):
    """Multi-day panel plus per-row logits that stress the caliper windows.

    "grid" days share one logit sequence: values on a 1/8 grid, then the
    edge_logits of the caliper that EDGE_MULT gives on those days (found by
    iterating, since the edge rows move the day's SD).  Each edge pair has
    covariates unlike any other row.  "huge" logits sit near +-1e6.  Day 1
    has no controls and day 2 a single row.  Covariates are small integers,
    so distances often tie.
    """
    rng = np.random.default_rng(seed)
    grid = rng.integers(-24, 25, 60) / 8.0
    c = EDGE_MULT * float(np.std(grid, ddof=1))
    for _ in range(30):
        shared = np.r_[grid, edge_logits(c)]
        c, last = EDGE_MULT * float(np.std(shared, ddof=1)), c
        if c == last:
            break
    else:
        raise AssertionError("edge logits did not settle")
    ego, treat, x, lg = [], [], [], []
    for D in range(n_days):
        if D == 2:
            size = 1
        elif logits == "grid":
            size = shared.size
        else:
            size = int(rng.integers(20, 90))
        e = np.sort(rng.choice(500, size, replace=False))
        rng.shuffle(e)  # so ego order is not logit order
        t = (rng.random(size) < 0.4).astype(np.int64)
        X = rng.integers(-2, 3, (size, p)).astype(float)
        if logits == "grid" and size == shared.size:
            s = shared.copy()
            t[-6:] = (1, 0, 1, 0, 1, 0)
            X[-6:] = np.repeat([[9.0], [-9.0], [7.0]], 2, axis=0)
        elif logits == "grid":
            s = shared[:size].copy()
        else:
            sign = rng.choice([-1.0, 1.0])
            s = sign * 1e6 + rng.integers(-40, 41, size) * rng.choice([2.0**-30, 0.37])
        if D == 1:
            t[:] = 1
        ego.append(e)
        treat.append(t)
        x.append(X)
        lg.append(s)
    return stacked_panel(rng, ego, treat, x, lg)


def stacked_panel(rng, ego, treat, x, lg):
    """A panel and its logits from per-day lists (day D is the D-th entry)
    of egos below 500, treatment codes, covariate rows and logits; outcomes
    are drawn from `rng`."""
    X = np.concatenate(x)
    p = X.shape[1]
    # the same ego recurs on several days with other covariates, so each
    # (day, ego) row gets its own node, day * 500 + ego: within a day this
    # keeps the egos' order, which is all that ties and pick order read
    day = np.concatenate([np.full(len(e), D, dtype=np.int64) for D, e in enumerate(ego)])
    ego = np.concatenate([D * 500 + e for D, e in enumerate(ego)])
    node_X = np.zeros((len(x) * 500, p))
    node_X[ego] = X
    outcome = rng.integers(0, 2, X.shape[0])
    # a panel's rows are in (day, ego) order: every per-row column moves alike
    order = np.argsort(ego, kind="stable")
    panel = TreatmentPanel(
        ego=ego[order],
        day=day[order],
        treatment=np.concatenate(treat)[order],
        outcome=outcome[order],
        X=no_counts(len(X)),
        node_X=node_X,
        names=tuple(f"c{i}" for i in range(p)),
        core_idx=tuple(range(p)),
        levels=BINARY_LEVELS,
    )
    return panel, FixedLogits(panel, np.concatenate(lg)[order])


def multiplier_for(panel, model, day, caliper):
    """A caliper_mult whose product with the day's logit SD is exactly
    `caliper`, or None when no float multiplier lands on it."""
    sd = float(np.std(row_logits(model)[panel.day == day], ddof=1))
    m = caliper / sd
    for _ in range(8):
        if m * sd == caliper:
            return m
        m = np.nextafter(m, np.inf if m * sd < caliper else -np.inf)
    return None


def test_window_matcher_equals_full_scan():
    cases = on_grid = 0
    for seed in range(6):
        for logits, p in (("grid", 3), ("grid", 2), ("huge", 3)):
            panel, model = window_panel(seed, p=p, logits=logits)
            mults = [0.0, 0.1, 0.7, EDGE_MULT, np.inf]
            if logits == "grid":
                for target in (0.125, 0.25, 0.5, 1.0):
                    m = multiplier_for(panel, model, 0, target)
                    if m is not None:
                        mults += [m, np.nextafter(m, 0.0), np.nextafter(m, 1.0)]
                        on_grid += 1
            for mult in mults:
                ctx = _MatchContext(panel, model)
                ref = [
                    result_bits(reference_match_day(ctx, D, mult))
                    for D, _ in panel.rows_by_day()
                ]
                got = match_all_days(panel, model, caliper_mult=mult)
                assert [result_bits(r) for r in got.results] == ref, (seed, logits, mult)
                cases += 1
    assert on_grid >= 12  # calipers that land exactly on a grid step
    assert cases >= 6 * 3 * 4


def test_window_chunks_do_not_change_picks(monkeypatch):
    # a day's window entries are scored in chunks of whole windows; tiny
    # chunks score about one treated ego per call and must give the same bits
    for logits in ("grid", "huge"):
        panel, model = window_panel(1, logits=logits)
        for mult in (0.7, np.inf):
            whole = [result_bits(r) for r in match_all_days(panel, model, mult).results]
            monkeypatch.setattr(matchlab, "_WINDOW_CHUNK", 5)
            chunked = [result_bits(r) for r in match_all_days(panel, model, mult).results]
            monkeypatch.undo()
            assert chunked == whole, (logits, mult)


def test_window_panel_hits_the_edge_cases():
    # the comparison above is only as strong as its panels: at EDGE_MULT
    # every grid day pairs its edge rows at |gap| == caliper, and a control
    # just outside the caliper stays unmatched to its twin
    panel, model = window_panel(0)
    run = match_all_days(panel, model, caliper_mult=EDGE_MULT)
    s = row_logits(model)[panel.day == 0]
    c = EDGE_MULT * float(np.std(s, ddof=1))
    twins = [p for p in run.pairs if p.mahalanobis == 0.0]
    edge = [p for p in twins if abs(p.logit_gap) == c]
    assert len(edge) >= 10
    outside = np.nextafter(c, np.inf)
    assert not any(p.logit_gap == -outside for p in run.pairs)
    days = run.results
    assert days[1].skip_reason is not None and days[1].n_treated > 0
    assert days[2].skip_reason is not None
    assert sum(r.skip_reason is None for r in days) == 10


# core rows A, B and C of the hand-built day of `duplicate_panel`
CORE_A, CORE_B, CORE_C = [0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, -1.0, 1.0]


def duplicate_panel(seed, n_days=8):
    """A panel whose controls share a few core rows a day, each core row
    with its own logit, so the controls collapse into groups.

    Day 0 is built by hand. Treated egos 10, 20 and 30 and controls 11 and
    21 share core row A: ego 10 takes 11, ego 20 finds its first-choice
    group's head taken and takes 21, which empties the group, and ego 30
    finds it empty. Controls 12, 22 and 32 share core row B. Controls 14
    and 24 share core row C, but their logits are one ulp apart. The other
    days draw six core rows from {-1, 0, 1}^3 with logits on a 1/8 grid,
    and give about a third of the rows to the treated.
    """
    rng = np.random.default_rng(seed)
    c_lo = 0.25
    hand = [  # (ego, treated, core row, logit)
        (10, 1, CORE_A, 0.0), (20, 1, CORE_A, 0.0), (30, 1, CORE_A, 0.0),
        (11, 0, CORE_A, 0.0), (21, 0, CORE_A, 0.0),
        (12, 0, CORE_B, 0.5), (22, 0, CORE_B, 0.5), (32, 0, CORE_B, 0.5),
        (14, 0, CORE_C, c_lo), (24, 0, CORE_C, np.nextafter(c_lo, 1.0)),
    ]
    e, t, X, s = (np.array(col) for col in zip(*hand))
    ego, treat, x, lg = [e], [t.astype(np.int64)], [X], [s]
    for _ in range(1, n_days):
        size = int(rng.integers(40, 160))
        cores = rng.integers(-1, 2, (6, 3)).astype(float)
        core_logit = rng.integers(-8, 9, 6) / 8.0
        which = rng.integers(0, 6, size)
        ego.append(rng.choice(500, size, replace=False))
        treat.append((rng.random(size) < 0.35).astype(np.int64))
        x.append(cores[which])
        lg.append(core_logit[which])
    return stacked_panel(rng, ego, treat, x, lg)


def test_grouped_matcher_equals_full_scan_on_duplicate_rows(monkeypatch):
    panel, model = duplicate_panel(0)
    ctx = _MatchContext(panel, model)
    n_groups = n_controls = 0
    for D, rows in panel.rows_by_day():
        c = np.flatnonzero(panel.treatment[rows] == 0)
        order, start = matchlab._control_groups(
            ctx.order(1, model.group[rows]), model.group[rows], panel.treatment[rows] == 0)
        gid = np.repeat(np.arange(start.size), np.diff(np.r_[start, order.size]))
        group_of = dict(zip(panel.ego[rows][order].tolist(), gid.tolist()))
        if D == 0:
            assert group_of[11] == group_of[21] and group_of[12] == group_of[32]
            assert group_of[14] != group_of[24]  # one core row, logits one ulp apart
        n_groups += start.size
        n_controls += c.size
    assert n_controls >= 4 * n_groups  # most controls share a group

    for chunk in (matchlab._WINDOW_CHUNK, 5):
        monkeypatch.setattr(matchlab, "_WINDOW_CHUNK", chunk)
        for mult in (0.0, 0.1, 0.7, 2.0, np.inf):
            ref = [result_bits(reference_match_day(ctx, D, mult)) for D, _ in panel.rows_by_day()]
            got = match_all_days(panel, model, caliper_mult=mult)
            assert [result_bits(r) for r in got.results] == ref, (chunk, mult)
            if mult == np.inf:
                day0 = got.results[0].pairs
                picks = dict(zip(day0.treated.tolist(), day0.control.tolist()))
                assert (picks[10], picks[20]) == (11, 21)
                assert picks[30] not in (11, 21)


def old_rank_auc(scores, positive):
    """A day's AUC as average ranks over a stable argsort of its scores."""
    n1 = int(positive.sum())
    n0 = len(positive) - n1
    if n1 == 0 or n0 == 0:
        return None
    r = average_ranks(scores)
    return float((r[positive].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def assert_matches_the_full_scan(panel, model, mults):
    """Every (day, multiplier) result equals `reference_match_day` bit for
    bit, and every matched day's AUC equals `old_rank_auc` of its rows."""
    ctx = _MatchContext(panel, model)
    for mult in mults:
        got = match_all_days(panel, model, caliper_mult=mult)
        ref = [result_bits(reference_match_day(ctx, D, mult)) for D, _ in panel.rows_by_day()]
        assert [result_bits(r) for r in got.results] == ref, mult
        for r, (_, rows) in zip(got.results, panel.rows_by_day()):
            treat = panel.treatment[rows]
            use = treat <= 1
            want = old_rank_auc(row_logits(model)[rows][use], treat[use] == 1)
            assert r.auc == (None if r.skip_reason else want), (r.day, mult)
    return got


def test_logits_tied_across_groups_match_the_full_scan():
    # five logits shared by up to 27 core rows a day: groups tie on the logit,
    # and -0.0 against 0.0 among them; their order goes to the lower group id
    rng = np.random.default_rng(4)
    ego, treat, x, lg = [], [], [], []
    for _ in range(6):
        size = int(rng.integers(60, 200))
        ego.append(rng.choice(500, size, replace=False))
        treat.append((rng.random(size) < 0.3).astype(np.int64))
        x.append(rng.integers(-1, 2, (size, 3)).astype(float))
        lg.append(rng.choice([-0.5, -0.0, 0.0, 0.25], size))
    panel, model = stacked_panel(rng, ego, treat, x, lg)
    zeros = model.logits[model.logits == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert len(model.logits) > 4 * 4 and _MatchContext(panel, model).rank[1].dtype == np.uint8
    run = assert_matches_the_full_scan(panel, model, (0.0, 0.1, 0.7, 2.0, np.inf))
    assert sum(r.n_matched for r in run.results) > 50


def test_more_than_2_16_groups_take_the_wide_key():
    # every ego its own group: 70,000 groups rank in uint32, past the 16-bit
    # keys numpy radix-sorts, with logits on a 1/16 grid so groups tie
    rng = np.random.default_rng(5)
    n = 70_000
    treatment = np.zeros(n, dtype=np.int64)
    treatment[rng.choice(n, 120, replace=False)] = 1
    panel = TreatmentPanel(
        ego=np.arange(n, dtype=np.int64),
        day=np.zeros(n, dtype=np.int64),
        treatment=treatment,
        outcome=rng.integers(0, 2, n),
        X=no_counts(n),
        node_X=rng.normal(size=(n, 3)),
        names=("a", "b", "c"),
        core_idx=(0, 1, 2),
        levels=BINARY_LEVELS,
    )
    model = FixedLogits(panel, rng.integers(-40, 41, n) / 16.0)
    assert len(model.logits) == n and _MatchContext(panel, model).rank[1].dtype == np.uint32
    run = assert_matches_the_full_scan(panel, model, (0.0, 0.05))
    assert run.results[0].n_matched == 120


def test_non_finite_logits_or_caliper_match_the_full_scan():
    # the window is the whole day where the caliper or a logit is not finite:
    # day 0 holds an inf and NaN logits (its SD, and so its caliper, is NaN),
    # day 1 a treated -inf, day 2 logits near +-1e200 (an infinite SD, so an
    # infinite caliper at any positive multiplier), day 3 only finite logits
    rng = np.random.default_rng(6)
    ego, treat, x, lg = [], [], [], []
    for D in range(4):
        size = int(rng.integers(30, 80))
        ego.append(np.sort(rng.choice(500, size, replace=False)))
        t = (rng.random(size) < 0.4).astype(np.int64)
        s = rng.integers(-8, 9, size) / 8.0
        X = rng.integers(-1, 2, (size, 3)).astype(float)
        if D == 0:
            t[:6], s[:6] = (0, 1, 0, 1, 1, 0), (np.inf, *[np.nan] * 5)
            # the NaN rows' groups descend with their rows, but NaNs rank
            # alone in ascending row order in the AUC
            X[1:6] = np.c_[np.full((5, 2), 9.0), np.arange(5.0, 0.0, -1.0)]
        elif D == 1:
            t[0], s[0] = 1, -np.inf
        elif D == 2:
            s = rng.choice([-1e200, 1e200, 0.5], size)
        treat.append(t)
        x.append(X)
        lg.append(s)
    panel, model = stacked_panel(rng, ego, treat, x, lg)
    with np.errstate(over="ignore", invalid="ignore"):
        run = assert_matches_the_full_scan(panel, model, (0.0, 0.1, np.inf))
    assert [r.n_matched > 0 for r in run.results] == [False, False, True, True]


def adjacent_runs(centers, caliper, rng):
    """Runs of one to four adjacent floats just past `centers` +- `caliper`
    (away from the center), so outside the caliper but inside a window
    widened by a few ulps."""
    runs = []
    for a in centers:
        for sign in (-1.0, 1.0):
            x = a + sign * caliper
            for _ in range(int(rng.integers(1, 5))):
                x = np.nextafter(x, sign * np.inf)
                runs.append(x)
    return runs


def test_caliper_windows_are_exactly_the_caliper_test():
    # the trimmed windows hold exactly the controls that pass
    # |fl(sg - st)| <= caliper, whatever the logits and the caliper
    rng = np.random.default_rng(7)
    special = [-np.inf, np.inf, np.nan, 0.0, -0.0, 1e308, -1e308, 5e-324]
    trials = []
    for trial in range(300):
        sg = np.where(rng.random(40) < 0.2, rng.choice(special, 40), rng.integers(-6, 7, 40) / 4)
        st = np.r_[rng.integers(-6, 7, 20) / 4, special]
        caliper = rng.choice([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 1e308, np.inf, np.nan])
        trials.append((sg, st, caliper))
    # finite logits whose widened windows end in runs of outside controls, so
    # an end is trimmed more than once; controls sit on odd eighths and the
    # treated on quarters, so at caliper 0 a window holds only outside controls
    for trial in range(200):
        st = rng.integers(-6, 7, 12) / 4
        caliper = rng.choice([0.0, 0.0, 0.25, 0.5])
        sg = np.r_[rng.integers(-6, 6, 10) / 4 + 1 / 8, adjacent_runs(st[:6], caliper, rng)]
        trials.append((sg, st, caliper))
    for trial, (sg, st, caliper) in enumerate(trials):
        sg = np.sort(sg)  # NaN last
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = matchlab._caliper_windows(sg, st, caliper)
            for j in range(st.size):
                inside = np.flatnonzero(np.abs(sg - st[j]) <= caliper)
                want = (inside[0], inside[-1] + 1) if inside.size else (lo[j], lo[j])
                assert (lo[j], hi[j]) == want, (trial, st[j], caliper)
                assert inside.size == 0 or inside.size == inside[-1] + 1 - inside[0]


def test_panel_rows_must_be_in_day_ego_order():
    panel, _ = window_panel(3)
    groups = panel.rows_by_day()
    assert [D for D, _ in groups] == sorted(set(panel.day.tolist()))
    for D, rows in groups:
        assert np.array_equal(np.arange(panel.n_rows)[rows], np.flatnonzero(panel.day == D))

    def reordered(order):
        return TreatmentPanel(
            ego=panel.ego[order],
            day=panel.day[order],
            treatment=panel.treatment[order],
            outcome=panel.outcome[order],
            X=panel.X[order],
            node_X=panel.node_X,
            names=panel.names,
            core_idx=panel.core_idx,
            levels=panel.levels,
        )

    n = panel.n_rows
    reordered(np.arange(n))
    swap = np.arange(n)
    swap[[5, 6]] = [6, 5]  # two egos of day 0
    last_day = groups[-1][1]
    for order in (
        np.random.default_rng(0).permutation(n),
        swap,
        np.r_[last_day.start : n, 0 : last_day.start],  # days out of order
        np.r_[0:n, n - 1],  # a (day, ego) row twice
        np.r_[0:6, 5:n],
    ):
        with pytest.raises(DataError, match=r"ascending \(day, ego\) order"):
            reordered(order)


# ------------------------------------------------------------------ pipelines

def homophily_world(seed, n=400, h=0.95, rates=(0.025, 0.001), horizon=50):
    cfg = SynthConfig(
        n_nodes=n, mean_degree=8.0, exponent=2.5, homophily=h, trait_balance=0.5,
        seed=seed,
    )
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    log = gen_homophily_adoptions(g, trait, np.array(rates), horizon, seed=seed)
    return g, log, trait


def run_timing_rr(g, log, trait, d=3, include_trait=True, seed=0):
    static = (("trait",), trait.astype(float)) if include_trait else None
    cov = CovariateTable(g, log, lag=7, static=static)
    panel = build_panel(cov, Timing(d=d))
    model = fit_propensity(panel, min_level_rows=5)
    run = match_all_days(panel, model)
    return panel, model, run


def test_null_world_ci_covers_one():
    covered = 0
    for seed in range(10):
        g, log, trait = homophily_world(seed, h=0.0, rates=(0.01, 0.01))
        panel, model, run = run_timing_rr(g, log, trait, include_trait=False)
        table = pool_risk_ratio(run.pairs)
        covered += int(table.ci_low <= 1.0 <= table.ci_high)
    assert covered >= 8


def test_homophily_naive_exceeds_matched():
    wins = 0
    for seed in range(5):
        g, log, trait = homophily_world(seed)
        panel, model, run = run_timing_rr(g, log, trait, include_trait=True)
        naive = naive_risk_table(panel)
        matched = pool_risk_ratio(run.pairs)
        wins += int(naive.rr > matched.rr)
    assert wins == 5


def test_diagnostics_perfect_and_disjoint():
    X = np.tile(np.random.default_rng(1).normal(size=(4, 3)), (2, 1))
    panel = TreatmentPanel(
        ego=np.arange(8, dtype=np.int64),
        day=np.zeros(8, dtype=np.int64),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int64),
        outcome=np.zeros(8, dtype=np.int64),
        X=no_counts(len(X)),
        node_X=X,
        names=("a", "b", "c"),
        core_idx=(0, 1, 2),
        levels=BINARY_LEVELS,
    )
    model = stub_model(panel, [0.2, 0.4, 0.6, 0.8, 0.2, 0.4, 0.6, 0.8])
    run = match_all_days(panel, model)
    diag = diagnostics(run)
    assert diag["dlogit_p90"] == 0.0
    assert diag["overlap_median"] == 1.0
    assert diag["distance_p90"] == 0.0
    far = stub_model(panel, [10.0, 10.0, 10.0, 10.0, -10.0, -10.0, -10.0, -10.0])
    run2 = match_all_days(panel, far)
    diag2 = diagnostics(run2)
    assert diag2["n_pairs"] == 0
    assert diag2["overlap_median"] == 0.0


def test_diagnostics_recomputation_oracle():
    g, log, trait = homophily_world(2)
    panel, model, run = run_timing_rr(g, log, trait)
    diag = diagnostics(run)
    gaps = sorted(abs(p.logit_gap) for p in run.pairs)
    dists = sorted(p.mahalanobis for p in run.pairs)
    assert diag["n_pairs"] == len(gaps)
    assert diag["dlogit_p50"] == pytest.approx(float(np.quantile(gaps, 0.5)))
    assert diag["distance_p90"] == pytest.approx(float(np.quantile(dists, 0.9)))
    overlaps = [r.overlap for r in run.results if r.skip_reason is None]
    assert diag["overlap_median"] == pytest.approx(float(np.median(overlaps)))


def panel_wide_aucs(panel, model, level):
    """The per-day AUCs read from logits gathered once over every panel
    row, as `diagnostics` once did."""
    scores = row_logits(model, level)
    aucs = []
    for _, rows in panel.rows_by_day():
        grp = panel.treatment[rows]
        use = (grp == level) | (grp == 0)
        s = scores[rows][use]
        auc = _rank_auc(s, grp[use] == level, np.argsort(s, kind="stable"))
        if auc is not None:
            aucs.append(auc)
    return aucs


def test_diagnostics_aucs_equal_the_panel_wide_logits():
    # diagnostics gathers each day's logits from the per-group ones, and its
    # AUCs must keep every bit
    g, log, trait = homophily_world(6, n=400, h=0.5, rates=(0.03, 0.006))
    runs = []
    for lag, kind in ((7, Timing(d=3)), (8, Dose()), (7, PlaceboFuture(d=3))):
        panel = build_panel(CovariateTable(g, log, lag=lag), kind)
        model = fit_propensity(panel, min_level_rows=5)
        runs += [(panel, model, lv) for lv in model.classes if lv != 0]
    assert len(runs) >= 5  # timing, placebo and at least three dose levels
    for panel, model, level in runs:
        diag = diagnostics(match_all_days(panel, model).at(level))
        aucs = panel_wide_aucs(panel, model, level)
        assert aucs, (panel.kind_label, level)
        assert diag["auc_median"] == float(np.median(aucs)), (panel.kind_label, level)
        assert diag["auc_min"] == float(np.min(aucs)), (panel.kind_label, level)


def test_matcher_keeps_logits_per_group_only():
    g, log, trait = homophily_world(2)
    panel, model, _ = run_timing_rr(g, log, trait)
    assert len(model.probs) < panel.n_rows
    ctx = _MatchContext(panel, model)
    assert ctx.logits[1].size == len(model.probs)
    assert ctx.group is model.group
    assert "scores" not in {f.name for f in dataclasses.fields(MatchRun)}


def test_matcher_whitens_once_per_group():
    g, log, trait = homophily_world(2)
    panel, model, _ = run_timing_rr(g, log, trait)
    ctx = _MatchContext(panel, model)
    assert ctx.W.shape == (len(model.probs), len(panel.core_idx))
    assert not hasattr(ctx, "block")
    for _, rows in panel.rows_by_day()[::7]:
        W = day_block(panel, rows)
        assert np.array_equal(W.view(np.int64), ctx.W[model.group[rows]].view(np.int64))


def test_pairs_csv_round_trip(tmp_path):
    g, log, trait = homophily_world(4)
    panel, model, run = run_timing_rr(g, log, trait)
    pairs = run.pairs
    assert isinstance(pairs, np.recarray) and pairs.dtype == PAIR_DTYPE
    # one row per pick, the days' tables in day order
    assert len(pairs) == sum(r.n_matched for r in run.results) > 0
    assert pairs.tobytes() == b"".join(r.pairs.tobytes() for r in run.results)
    assert np.all(np.diff(pairs.day) >= 0)
    row = {(int(e), int(d)): i for i, (e, d) in enumerate(zip(panel.ego, panel.day))}
    for p in pairs[:50]:
        assert panel.treatment[row[p.treated, p.day]] == 1
        assert panel.treatment[row[p.control, p.day]] == 0
        assert p.treated_outcome == panel.outcome[row[p.treated, p.day]]
        assert p.control_outcome == panel.outcome[row[p.control, p.day]]

    path = tmp_path / "pairs.csv"
    write_pairs(pairs, panel.levels, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "level,day,treated,control,logit_gap,mahalanobis"
    assert len(lines) == len(pairs) + 1
    for line, p in zip(lines[1:51], pairs):
        # the level's name, ints as written, floats as their shortest round-trip repr
        level, day, t, c, gap, md = line.split(",")
        assert (level, int(day), int(t), int(c)) == ("1", p.day, p.treated, p.control)
        assert (gap, md) == (repr(float(p.logit_gap)), repr(float(p.mahalanobis)))


def test_dose_pipeline_end_to_end():
    g, log, trait = homophily_world(6, n=260, h=0.5, rates=(0.02, 0.004))
    cov = CovariateTable(g, log, lag=8)
    panel = build_panel(cov, Dose())
    assert panel.levels == ("0", "1", "2", "3", "3+")
    model = fit_propensity(panel, min_level_rows=5)
    levels_present = [lv for lv in model.classes if lv != 0]
    assert levels_present, "dose panel produced no exposed rows"
    run = match_all_days(panel, model).at(levels_present[0])
    if len(run.pairs):
        table = pool_risk_ratio(run.pairs)
        assert table.ci_low <= table.rr <= table.ci_high
