"""Dynamic matched-sample estimation of peer-influence risk ratios.

Builds daily risk-set panels for a treatment design from a covariate table
alone (`build_panel(covariates, design)`; the table holds its log's adoption
days). A design gives its levels, its window (the lag rule reads it) and its
rule, `treatment(covariates, risk, D)`; timing, dose and placebo-future share
one: a capped count of window adoptions. It fits propensity scores with one
multinomial logit by Newton iteration, matches each treated level's egos, a
level at a time, to same-day controls under a propensity-logit caliper with
Mahalanobis tie-breaking, and pools daily 2x2 tables into a risk ratio with a
small-cell correction. The permuted placebo is a panel transform
(`permute_within_day`). Most panel rows repeat another row's covariates, so
the fit runs over the panel's distinct covariate rows, and the matcher
collapses each day's controls into the fit's groups; both give what a pass
over every row would. The fit's sums run in a fixed order, so its bits do not
depend on the BLAS thread count.

Covariates. The 10-column core block (`CORE_COVARIATES`) is full rank: it has
no total degree, which is in + out degree, but keeps its log.

Propensity fit. One multinomial Newton system serves every design: a reference
level plus one coefficient row per other level present, so two levels and one
row for the timing and placebo designs. Its likelihood is an exact log-sum-exp
and its probabilities a softmax, both in numpy, so `match` imports no
`scipy.special`. Every product with the design block (the gradient, the Hessian
and the line-search direction) goes through `np.einsum`, which sums in a fixed
order where a BLAS product may split a sum by thread.

Row grouping. Both the fit and the matcher work on distinct covariate rows,
grouped once, by the fit. A row's covariates are a function of its ego's
`node_X` row and its three lagged counts, so `TreatmentPanel.row_keys` packs
the ego's `node_X` class (one per distinct row, by its bits) and the counts
into one int64; on the `match` world at seed 41, 482,539 panel rows hold 9,907
distinct covariate rows (11,678 with the trait as a static column). The fit
weights each distinct row by its row count per treatment level, so every Newton
pass runs over the distinct rows, and rows with equal covariates get bit-
identical logits. Static columns are part of `node_X`, so they split groups.

Panel build. A design's treatment and the lagged counts are read for one
day's risk set at a time, each from an exposure index at one day, so the
index answers from running counts (`ExposureIndex`): a few cursors, each
holding every node's count at one day rank, which each query advances over
the entries adopted since. A day's counts cost the entries of the days in
between plus one gather per risk-set node, not a binary search per node.

Matching. A day's controls collapse into the fit's groups
(`PropensityModel.group`), whose members share one covariate row and so one
logit and one whitened row; caliper windows and distances run over one
representative row per group, and each group hands out its free egos in
ascending order. Each treated level's groups are ranked once, by (logit,
group id), so one stable argsort of a day's rows' ranks (a radix sort for at
most 2^16 groups) orders them for both the control runs and the AUC's tie
groups. |fl(sg - st)| <= caliper holds on one run of the ascending group
logits sg, so each treated ego's window is found by `searchsorted` on bounds
widened by a few ulps, then trimmed at each end by the caliper test itself,
one group at a time up to the first that passes, and holds exactly the groups
inside the caliper. Mahalanobis distances are
Euclidean distances in the whitened block `W = Z·L` (`L Lᵀ` = the inverse
covariance), built once per panel with one row per group from each group's
representative panel row (`PropensityModel.rep`), column-major, and read by
group; their squares are summed column by column, so each day's (treated,
group) distances are computed once, in chunks of at most 2^16 window entries.

Panel order. Panel rows are in ascending (day, ego) order, each (day, ego)
once, and `TreatmentPanel` rejects any other order, so a day's rows are one
slice: the fit, the matcher (which also takes each day's AUC) and the
within-day permutation read each day as a slice, and the covariate moments
(the fit's standardization and the matcher's whitening) are computed once per
panel. Matched pairs are one `PAIR_DTYPE` record table per (level, day) and
one for the run, level-major.

Memory model. The treatment panel stores per row only narrow ints (ego, day,
treatment, outcome and the three lagged adopted-neighbor counts; 12 bytes a row
on the `match` world) plus one float row per node (degrees, log total degree,
static columns); every float covariate row is built from those by one helper,
one day's risk set at a time. The covariate moments are summed over one day's
rows at a time. The propensity fit holds one design row per distinct covariate
row and one group index per panel row (narrow ints); the model keeps the index
and one probability per group and level, not per row. Grouping the rows holds
each day's distinct keys once more, about 26 bytes per summed day-key at its
peak. The panel build's exposure indexes hold, beyond their keys, one int64
per node per cursor used (three on the followee index for a timing design,
one on the others) and a copy of their entries' owners ordered by day, one
int64 per adopted-neighbor entry. The matcher keeps each treated level's
logits and ranks one per group (`PropensityModel.group_logits`; a rank in
the narrowest unsigned dtype) and gathers one day's from the group index; it
reads the whitened rows by group, and the pairs CSV is written 2^14 rows at a
time. So the stage holds O(edges + nodes + distinct rows) plus the group
index and one day's gathered rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .calibrate import NEVER, AdoptionLog, ExposureIndex
from .errors import ConvergenceError, DataError, write_csv
from .netgraph import DirectedGraph
from .rngstream import PLACEBO, stream

DIRECTIONS = ("followee", "follower", "mutual")
DOSE_LEVELS = ("0", "1", "2", "3", "3+")
BINARY_LEVELS = ("0", "1")
DOSE_WINDOW = 7
Z_95 = 1.96
RIDGE = 1e-6  # L2 penalty on the propensity slopes
NEWTON_TOL = 1e-8  # stop once half the squared Newton decrement is at most this
NEWTON_MAX_ITER = 100

CORE_COVARIATES = (
    "followee_adopted_count",
    "follower_adopted_count",
    "mutual_adopted_count",
    "followee_adopted_frac",
    "follower_adopted_frac",
    "mutual_adopted_frac",
    "in_degree",
    "out_degree",
    "mutual_degree",
    "log_total_degree",
)


class _CappedCount:
    """A design whose level is its neighbors' adoptions in `window`, capped at
    the last level; a window length `d` must be in 1..6."""

    def __post_init__(self):
        if not 1 <= getattr(self, "d", 1) <= 6:
            name = self.label.split("(")[0].split("_")[0]  # timing or placebo
            raise DataError(f"{name} window d must be in 1..6, got {self.d}")
        if self.direction not in DIRECTIONS:
            raise DataError(f"unknown direction {self.direction!r}; expected one of {DIRECTIONS}")

    def treatment(self, covariates, risk, D) -> np.ndarray:
        """Level codes of the nodes `risk` on day D, read from the exposure
        index of the design's direction."""
        lo, hi = self.window
        index = covariates.exposure[self.direction]
        cnt = index.count(risk, D + hi + 1) - index.count(risk, D + lo)
        return np.minimum(cnt, len(self.levels) - 1)


@dataclass(frozen=True)
class Timing(_CappedCount):
    """Treated iff >= 1 neighbor adopted within the last d days (same day excluded)."""

    d: int
    direction: str = "followee"
    levels = BINARY_LEVELS

    @property
    def window(self):
        return -self.d, -1

    @property
    def label(self):
        return f"timing(d={self.d},direction={self.direction})"


@dataclass(frozen=True)
class Dose(_CappedCount):
    """Neighbor adoptions over the trailing week, binned 0/1/2/3/3+."""

    direction: str = "followee"
    levels = DOSE_LEVELS
    window = (-DOSE_WINDOW, -1)

    @property
    def label(self):
        return f"dose(window={DOSE_WINDOW},direction={self.direction})"


@dataclass(frozen=True)
class PlaceboFuture(_CappedCount):
    """Counterfeit treatment from the mirrored future window [day+1, day+d]."""

    d: int
    direction: str = "followee"
    levels = BINARY_LEVELS

    @property
    def window(self):
        return 1, self.d

    @property
    def label(self):
        return f"placebo_future(d={self.d},direction={self.direction})"


def _int_dtype(lo: int, hi: int):
    """The narrowest signed int dtype that holds every value in [lo, hi]."""
    for dt in (np.int8, np.int16, np.int32):
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return dt
    return np.int64


def _covariate_rows(counts, node_X, ego, out=None) -> np.ndarray:
    """Float covariate rows `[counts, counts / degree, node_X[ego]]`.

    `counts` holds k adopted-neighbor counts per row, and the first k columns
    of `node_X` are the degrees they are fractions of (a fraction is 0 where
    its degree is 0). Every covariate row, a panel's or a table's, is built
    here, one column at a time into `out` (column-major; allocated when
    None), which is returned.
    """
    k, q = counts.shape[1], node_X.shape[1]
    if out is None:
        out = np.empty((len(ego), 2 * k + q), order="F")
    for j in range(q):
        np.take(node_X[:, j], ego, out=out[:, 2 * k + j])
    for j in range(k):
        cnt, frac, deg = out[:, j], out[:, k + j], out[:, 2 * k + j]
        cnt[:] = counts[:, j]
        frac[:] = 0.0
        np.divide(cnt, deg, out=frac, where=deg > 0)
    return out


class CovariateTable:
    """Per-ego covariates measured `lag` days before each panel day.

    Columns: adopted-neighbor counts and fractions for the three tie
    directions as of day-lag, then four network-size columns (no total
    degree: it is in + out degree, which would make the block singular,
    while its log is not linear in the others). Optional
    static per-node columns are appended after the core block.  Holds one
    exposure index per direction (`exposure`, which a design reads each
    row's treatment from), one float row per node (`node_X`:
    the three degrees, the log total degree and the static columns) and its
    log's adoption days and horizon (`adoption_day`, `first_day` and
    `last_day`, which `build_panel` reads the risk sets and outcomes from),
    so memory is O(edges), not O(n·horizon).
    """

    def __init__(self, g: DirectedGraph, log: AdoptionLog, lag: int = 7, static=None):
        if lag < 0:
            raise DataError(f"covariate lag must be >= 0, got {lag}")
        n = g.node_count
        if len(log.adoption_day) != n:
            raise DataError(f"adoption log covers {len(log.adoption_day)} nodes, the graph {n}")
        self.lag = lag
        self.adoption_day = log.adoption_day
        self.first_day, self.last_day = log.first_day, log.last_day
        names = list(CORE_COVARIATES)
        # DIRECTIONS name the graph's followee_csr, follower_csr and mutual_csr
        csrs = {d: getattr(g, f"{d}_csr")() for d in DIRECTIONS}
        self.exposure = {d: ExposureIndex(csr, log.adoption_day) for d, csr in csrs.items()}
        deg = np.column_stack([g.in_degree, g.out_degree, np.diff(csrs["mutual"][0])]).astype(float)
        # a count never exceeds its degree
        self._count_dtype = _int_dtype(0, int(deg.max()) if deg.size else 0)
        cols = [deg, np.log1p(deg[:, 0] + deg[:, 1])]
        if static is not None:
            extra_names, extra = static
            extra = np.atleast_2d(np.asarray(extra, dtype=float))
            if extra.shape[0] == 1 and n != 1:
                extra = extra.T
            if extra.shape[0] != n or extra.shape[1] != len(extra_names):
                raise DataError("static covariate block does not match node count")
            names.extend(extra_names)
            cols.append(extra)
        self.node_X = np.column_stack(cols)
        self.names = tuple(names)
        self.core_idx = tuple(range(len(CORE_COVARIATES)))

    def counts(self, day: int, nodes: np.ndarray) -> np.ndarray:
        """Each node's neighbors adopted on or before day - lag, per direction."""
        cnt = [ix.count(nodes, day - self.lag + 1) for ix in self.exposure.values()]
        return np.column_stack(cnt).astype(self._count_dtype)

    def values(self, day: int) -> np.ndarray:
        if not self.first_day <= day <= self.last_day:
            raise DataError(f"covariates requested for day {day} outside the log horizon")
        nodes = np.arange(len(self.node_X))
        return _covariate_rows(self.counts(day, nodes), self.node_X, nodes)


@dataclass(frozen=True)
class TreatmentPanel:
    """Daily risk-set rows in narrow ints, plus one float block per node.

    A row is (ego, day, treatment level code, outcome, `X`), where `X` holds
    the row's k lagged adopted-neighbor counts. Rows are in ascending (day,
    ego) order, each (day, ego) once, so a day's rows are one slice
    (`rows_by_day`). `node_X` holds one float row per node, whose first k
    columns are the degrees behind the count fractions. `covariates(rows)`
    builds the float covariates that `names` lists, `[counts, fractions,
    node_X[ego]]`, for any row set, so no (rows x covariates) float block is
    ever stored. A row's covariates are a function of its ego's `node_X`
    row and its counts, so `row_keys(rows)` names them with one int64 each:
    the propensity fit groups rows by it, and the matcher reads the fit's
    groups.
    """

    ego: np.ndarray
    day: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    X: np.ndarray
    node_X: np.ndarray
    names: tuple
    core_idx: tuple
    levels: tuple
    kind_label: str = ""

    def __post_init__(self):
        n = len(self.ego)
        for arr in (self.day, self.treatment, self.outcome):
            if len(arr) != n:
                raise DataError("panel columns have mismatched lengths")
        if (
            self.X.ndim != 2
            or len(self.X) != n
            or self.node_X.ndim != 2
            or self.X.shape[1] > self.node_X.shape[1]  # a degree for each count
            or 2 * self.X.shape[1] + self.node_X.shape[1] != len(self.names)
        ):
            raise DataError("covariate blocks do not match the schema")
        if n:
            if self.outcome.min() < 0 or self.outcome.max() > 1:
                raise DataError("outcomes must be 0/1")
            if self.treatment.min() < 0 or self.treatment.max() >= len(self.levels):
                raise DataError("treatment codes outside the level set")
            if self.ego.min() < 0 or self.ego.max() >= len(self.node_X):
                raise DataError("panel egos outside the node block")
            d, e = self.day, self.ego
            if not np.all((d[1:] > d[:-1]) | ((d[1:] == d[:-1]) & (e[1:] > e[:-1]))):
                raise DataError("panel rows are not in ascending (day, ego) order, each once")
        for arr in (self.ego, self.day, self.treatment, self.outcome, self.X, self.node_X):
            arr.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return len(self.ego)

    def covariates(self, rows, out=None) -> np.ndarray:
        """Float covariate rows (columns as `names`) for the given rows (a
        slice or indices), written into `out` when given."""
        return _covariate_rows(self.X[rows], self.node_X, self.ego[rows], out)

    @cached_property
    def _key_radices(self):
        """Each node's class (one per distinct `node_X` row, by its bits) and,
        per count column, its least value and radix: the mixed-radix digits
        that `row_keys` packs."""
        bits = np.ascontiguousarray(self.node_X, dtype=np.float64).view(np.int64)
        order = np.lexsort(bits.T)
        ranked = bits[order]
        cls = np.empty(len(bits), dtype=np.int64)
        cls[order] = np.cumsum(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]) - 1
        lo = self.X.min(axis=0, initial=0).astype(np.int64)
        radix = self.X.max(axis=0, initial=0).astype(np.int64) - lo + 1
        span = (int(cls.max(initial=0)) + 1) * math.prod(radix.tolist())
        if span > 2**63:
            raise DataError(f"{span} possible covariate rows do not fit an int64 row key")
        return cls, lo, radix

    def row_keys(self, rows) -> np.ndarray:
        """One int64 per row (a slice or indices): rows with equal keys have
        bit-identical covariate rows. The key packs the ego's `node_X` class
        and the row's counts in mixed radix."""
        cls, lo, radix = self._key_radices
        key = cls[self.ego[rows]]
        for j, (a, r) in enumerate(zip(lo.tolist(), radix.tolist())):
            key *= r
            key += self.X[rows, j]
            key -= a
        return key

    def rows_by_day(self) -> list:
        """(day, slice of its rows) for each distinct day, ascending, from one
        scan for the day boundaries."""
        if self.n_rows == 0:
            return []
        d = self.day
        bounds = np.flatnonzero(np.r_[True, d[1:] != d[:-1], True]).tolist()
        return [(int(d[a]), slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]

    @cached_property
    def moments(self):
        """Mean, SD (1 where it is 0) and centered cross-product sums of every
        covariate column: the propensity fit standardizes with the first two
        and the matcher whitens its core block with all three.

        All three are summed over one day's rows at a time, so only one block
        of float rows exists at a time.
        """
        groups = [rows for _, rows in self.rows_by_day()]
        total = np.zeros(len(self.names))
        for rows in groups:
            total += self.covariates(rows).sum(axis=0)
        n = max(self.n_rows, 1)
        mean = total / n
        cross = np.zeros((len(self.names), len(self.names)))
        for rows in groups:
            C = self.covariates(rows) - mean
            cross += C.T @ C
        sd = np.sqrt(np.diag(cross) / n)
        return mean, np.where(sd == 0, 1.0, sd), cross


def build_panel(covariates: CovariateTable, kind, days=None) -> TreatmentPanel:
    """Assemble the daily risk-set panel for one treatment design.

    Everything but the treatment comes from `covariates`: the risk sets and
    outcomes from the adoption days of the log it was built from, and each
    row's counts from its adoptions on or before day - lag. A design gives
    its `levels`, its treatment `window` (inclusive day offsets from the
    panel day; the lag must predate the window's first day) and its rule,
    `treatment(covariates, risk, D)`: day D's level codes for the risk set
    `risk`, read from whichever exposure index of `covariates` it needs.
    Egos leave the risk set the day after adopting. Rows are
    stored in (day, ego) order (`days` is sorted; by default every day from
    first_day + lag) in the narrowest int dtypes that hold the node ids,
    days and degrees, in columns sized once from the adoption days and
    filled one day's slice at a time.
    """
    lag = covariates.lag
    lo = kind.window[0]
    if lag <= -lo:
        raise DataError(
            f"covariate lag {lag} does not predate the {kind.label} treatment window, "
            f"which opens {-lo} days before the panel day; the lag must be at least {1 - lo}"
        )

    first, last = covariates.first_day, covariates.last_day
    if days is None:
        start = first + lag
        if start > last:
            raise DataError("log horizon too short for the covariate lag")
        days = range(start, last + 1)
    days = sorted(days)
    for D in days:
        if not first <= D <= last:
            raise DataError(f"panel day {D} outside the log horizon")
    ad = covariates.adoption_day
    n_nodes = len(covariates.node_X)

    # a day's risk set is every node that has not adopted before it, so one
    # sorted copy of the adoption days sizes every day's slice of the columns
    adopted = np.sort(ad[ad != NEVER])
    bounds = np.zeros(len(days) + 1, dtype=np.int64)
    np.cumsum(n_nodes - np.searchsorted(adopted, days), out=bounds[1:])
    n_rows = int(bounds[-1])
    if n_rows == 0:
        raise DataError("empty panel: no risk-set rows on the requested days")
    ego = np.empty(n_rows, dtype=_int_dtype(0, n_nodes))
    day_col = np.empty(n_rows, dtype=_int_dtype(first, last))
    treat = np.empty(n_rows, dtype=np.int8)
    out = np.empty(n_rows, dtype=np.int8)
    X = np.empty((n_rows, len(DIRECTIONS)), dtype=covariates._count_dtype)
    for D, a, b in zip(days, bounds[:-1].tolist(), bounds[1:].tolist()):
        if a == b:
            continue
        risk = np.flatnonzero((ad == NEVER) | (ad >= D))
        treat[a:b] = kind.treatment(covariates, risk, D)
        ego[a:b] = risk
        day_col[a:b] = D
        out[a:b] = ad[risk] == D
        X[a:b] = covariates.counts(D, risk)
    return TreatmentPanel(
        ego=ego,
        day=day_col,
        treatment=treat,
        outcome=out,
        X=X,
        node_X=covariates.node_X,
        names=covariates.names,
        core_idx=covariates.core_idx,
        levels=kind.levels,
        kind_label=kind.label,
    )


def permute_within_day(panel: TreatmentPanel, seed: int) -> TreatmentPanel:
    """The permuted placebo of `panel`: its treatment labels shuffled within
    each day by a seeded permutation, so each day keeps its level counts,
    labeled `placebo_permuted(base=<panel's label>,seed=<seed>)`."""
    rng = stream(seed, PLACEBO)
    treat = np.array(panel.treatment)
    for _, rows in panel.rows_by_day():
        treat[rows] = treat[rows][rng.permutation(rows.stop - rows.start)]
    label = f"placebo_permuted(base={panel.kind_label},seed={seed})"
    return replace(panel, treatment=treat, kind_label=label)


@dataclass(frozen=True)
class PropensityModel:
    """Fitted treatment model over the panel's distinct covariate rows: each
    row's group (`group`), one panel row of each group (`rep`) and each
    group's level probabilities (`probs`). `group_logits` turns one level's
    into logits, one per group.

    `classes` are the levels present in the panel; the first is the
    reference, and `coef` holds one row per other class, so a timing or
    placebo model has two classes and one row.
    """

    classes: tuple  # level codes the model was fit over, the reference first
    coef: np.ndarray  # (n_classes-1, p+1) rows vs the reference class
    mean: np.ndarray
    scale: np.ndarray
    group: np.ndarray  # (n_rows,) each panel row's group
    rep: np.ndarray  # (n_groups,) one panel row of each group
    probs: np.ndarray  # (n_groups, n_levels); absent levels get zero columns
    iterations: int
    step_halvings: int = 0  # line-search halvings over all Newton iterations

    def group_logits(self, level: int) -> np.ndarray:
        p = np.clip(self.probs[:, level], 1e-12, 1 - 1e-12)
        logits = np.log(p)
        logits -= np.log1p(np.negative(p, out=p), out=p)  # p is not read again
        return logits


def _rank_auc(scores: np.ndarray, positive: np.ndarray, order: np.ndarray) -> float | None:
    """Rank AUC of `scores` for `positive` against the rest, ties given their
    mean rank. `order` names the scored rows in ascending score order; NaN
    scores sort last and each ranks alone, in ascending row order. The rank
    sum is of half-integers, so it is exact in any order."""
    s = scores[order]
    if s.size and np.isnan(s[-1]):
        order = order.copy()
        order[np.count_nonzero(~np.isnan(s)) :].sort()
    pos = positive[order]
    n1 = int(np.count_nonzero(pos))
    n0 = len(pos) - n1
    if n1 == 0 or n0 == 0:
        return None
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    end = np.r_[start[1:], s.size]
    ranks = (start + end + 1) / 2.0 * np.add.reduceat(pos, start, dtype=np.int64)
    return float((ranks.sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _line_search(objective, nll):
    """Halve t from 1 until `objective(t)` does not exceed `nll` (30 tries).

    Returns (t, objective(t), halvings); when every try fails, the last,
    smallest step is taken anyway.
    """
    t = 1.0
    for halvings in range(30):
        new = objective(t)
        if new <= nll + 1e-12:
            return t, new, halvings
        t *= 0.5
    return t, objective(t), 30


def _distinct_rows(panel: TreatmentPanel):
    """The panel's distinct covariate rows: each row's group, one row of
    each group (its members' covariate rows are bit-identical, so which one
    does not matter), and each group's row count per treatment level.

    Rows are grouped by `row_keys`, one day at a time and then across the
    days' distinct keys, so no key array spans the panel. Each day's
    distinct keys find their group by `searchsorted` in the panel's, so no
    inverse spans the days' distinct keys either.
    """
    days = panel.rows_by_day()
    group = np.empty(panel.n_rows, dtype=_int_dtype(0, panel.n_rows))
    keys = []
    for _, rows in days:
        k, group[rows] = np.unique(panel.row_keys(rows), return_inverse=True)
        keys.append(k)
    distinct = np.concatenate(keys)
    distinct.sort()  # in place, where np.unique would sort a copy
    distinct = distinct[np.r_[True, distinct[1:] != distinct[:-1]]]
    n_groups, n_levels = len(distinct), len(panel.levels)
    rep = np.empty(n_groups, dtype=np.int64)
    counts = np.zeros(n_groups * n_levels, dtype=np.int64)
    for (_, rows), k in zip(days, keys):
        g = np.searchsorted(distinct, k)[group[rows]]
        group[rows] = g
        rep[g] = np.arange(rows.start, rows.stop)
        counts += np.bincount(g * n_levels + panel.treatment[rows], minlength=counts.size)
    return group, rep, counts.reshape(n_groups, n_levels)


def fit_propensity(panel: TreatmentPanel, min_level_rows: int = 20) -> PropensityModel:
    """Maximum-likelihood multinomial logistic fit of treatment on covariates.

    One K-class system covers every design: the first fitted class is the
    reference, and each of the other K - 1 has a row of coefficients (K = 2
    for timing and placebo designs, so one row). Newton iteration with an L2
    ridge (`RIDGE`) on the slopes (intercepts unpenalized) so perfectly
    separable panels stay finite; step halving guards the penalized
    likelihood, which is written with an exact log-sum-exp, so no
    probability is clipped. The fit stops once half the squared Newton
    decrement, grad' H^-1 grad / 2 (the decrease the step predicts), is at
    most `NEWTON_TOL` (Boyd & Vandenberghe 2004, sec. 9.5.1), so a direction
    the covariates leave unidentified cannot hold it open; after
    `NEWTON_MAX_ITER` iterations it raises `ConvergenceError`. Requires at
    least two levels present in the panel and meeting the row floor.

    The likelihood reads a row only through its covariates and its
    treatment, so the fit runs over the panel's distinct covariate rows
    (`_distinct_rows`) with their per-level row counts as weights: one
    design block `D = [1, Z]` holds a row per group, `Z` standardized by the
    panel's `moments`, and every Newton system, objective and line-search
    step reads it. Every product with `D` (the gradient, the Hessian's
    products and each step's change in the predictors) goes through
    `np.einsum`, which sums in one fixed order where a BLAS product may
    split the work by thread, so the fit's bits do not depend on the BLAS
    thread count. The model keeps one probability per group and level.
    """
    group, rep, by_level = _distinct_rows(panel)
    counts = by_level.sum(axis=0)
    if np.count_nonzero((counts > 0) & (counts >= min_level_rows)) < 2:
        raise DataError(
            f"need >= 2 treatment levels with >= {min_level_rows} rows; "
            f"level counts {counts.tolist()}"
        )
    classes = tuple(int(c) for c in np.flatnonzero(counts > 0))
    Y = by_level[:, classes].T.astype(float)  # (classes, groups) row counts
    n = Y.sum(axis=0)  # rows per group
    G, p = len(rep), len(panel.names)
    mean, scale, _ = panel.moments
    D = np.empty((G, p + 1), order="F")
    D[:, 0] = 1.0
    Z = panel.covariates(rep, out=D[:, 1:])
    Z -= mean
    Z /= scale

    q, K = p + 1, len(classes)
    pen = np.tile(np.r_[0.0, np.full(p, RIDGE)], K - 1)  # intercepts unpenalized
    # E holds the K-1 non-reference linear predictors, class-major, so every
    # reduction over classes runs along the first axis; the reference
    # class's predictor is 0
    def probs_of(E):
        eta = np.vstack([np.zeros(G), E])
        eta -= eta.max(axis=0)
        e = np.exp(eta)
        return e / e.sum(axis=0)

    def nll_of(E, th):
        # -log L = sum_g n_g log(sum_k exp(eta_kg)) - sum_k Y_k . eta_k, with no
        # probability formed, so a separable panel's likelihood stays exact
        lse = np.logaddexp.reduce(np.vstack([np.zeros(G), E]), axis=0)
        return float((n * lse).sum() - (Y[1:] * E).sum() + 0.5 * (pen * th * th).sum())

    theta, E = np.zeros((K - 1) * q), np.zeros((K - 1, G))
    nll = nll_of(E, theta)
    halvings = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        P = probs_of(E)[1:]
        # gradient block k is D' r_k; Hessian block (k, l) is
        # D' diag(n p_k (1[k = l] - p_l)) D = 1[k = l] D'S_k - S_k'(n S_l),
        # where S_k = D * p_k; so two products cover every block
        grad = np.einsum("kg,gi->ki", Y[1:] - n * P, D).ravel() - pen * theta
        S = (D[:, None, :] * P.T[:, :, None]).reshape(G, -1)
        nS = S * n[:, None]
        H = np.diag(pen) - np.einsum("gi,gj->ij", S, nS)
        DS = np.einsum("gi,gj->ij", D, nS)
        for k in range(K - 1):
            H[k * q : (k + 1) * q, k * q : (k + 1) * q] += DS[:, k * q : (k + 1) * q]
        del P, S, nS, DS  # the system's blocks go before the line search
        step = np.linalg.solve(H, grad)
        if 0.5 * (grad @ step) <= NEWTON_TOL:
            break
        delta = np.einsum("ki,gi->kg", step.reshape(K - 1, q), D)
        t, nll, h = _line_search(lambda t: nll_of(E + t * delta, theta + t * step), nll)
        theta, E = theta + t * step, E + t * delta
        halvings += h
        del delta  # one predictor block fewer through the next iteration
    else:
        raise ConvergenceError("propensity fit did not converge", iterations=NEWTON_MAX_ITER)
    probs = np.zeros((G, len(panel.levels)))
    probs[:, classes] = probs_of(E).T
    return PropensityModel(
        classes=classes,
        coef=theta.reshape(K - 1, q),
        mean=mean,
        scale=scale,
        group=group,
        rep=rep,
        probs=probs,
        iterations=it,
        step_halvings=halvings,
    )


# one row per matched pair; the first six fields are the columns of a pairs CSV
PAIR_DTYPE = np.dtype(
    [
        ("level", np.int8),  # the treated ego's level code
        ("day", np.int64),
        ("treated", np.int64),  # ego ids
        ("control", np.int64),
        ("logit_gap", np.float64),  # treated minus control, signed
        ("mahalanobis", np.float64),
        ("treated_outcome", np.int8),
        ("control_outcome", np.int8),
    ]
)
_PAIR_CSV_COLUMNS = PAIR_DTYPE.names[:6]


def _pair_table(n: int) -> np.recarray:
    return np.recarray(n, dtype=PAIR_DTYPE)


@dataclass(frozen=True)
class DayMatchResult:
    level: int  # the treated level's code
    day: int
    pairs: np.recarray  # PAIR_DTYPE, in ascending treated ego order
    n_treated: int
    n_matched: int
    skip_reason: str | None = None
    auc: float | None = None  # of the day's logits for `level` vs control; None if skipped

    @property
    def overlap(self) -> float | None:
        if self.n_treated == 0:
            return None
        return self.n_matched / self.n_treated


@dataclass(frozen=True)
class MatchRun:
    """Every (level, day) result, level-major, and the run's pairs as one
    `PAIR_DTYPE` table (the results' tables in that order); each result's
    `pairs`, and each level's (`at`), is a slice of that table."""

    results: tuple
    pairs: np.recarray

    @property
    def skipped(self) -> tuple:
        return tuple(r for r in self.results if r.skip_reason is not None)

    def at(self, level: int) -> "MatchRun":
        """One level's run: its results and its slice of the pairs."""
        lo, hi = np.searchsorted(self.pairs.level, [level, level + 1]).tolist()
        return MatchRun(tuple(r for r in self.results if r.level == level), self.pairs[lo:hi])


class _MatchContext:
    """Panel-wide quantities shared by every day's matching pass, one row
    per fit group: each treated level's logits (`logits[level]`) and rank
    (`rank[level]`) and the whitened core rows (`W`, from each group's `rep`
    row), so with each row's group (`group`) a day's are
    `logits[level][group[rows]]` and `W[group[rows]]`.

    A level's groups are ranked once by (logit, group id), in the narrowest
    unsigned dtype, so a stable argsort of a day's rows' ranks (`order`) is
    their (logit, group, row) order, by numpy's radix sort when there are at
    most 2^16 groups; ties on the logit (-0.0 equals 0.0) go to the lower
    group id, and NaN logits rank last.

    `Z` is the core block standardized with its panel mean and SD, and `L`
    the Cholesky factor of the inverse covariance `VI` of `Z` (`L Lᵀ = VI`),
    all from the panel's `moments`; so the Mahalanobis distance
    `diffᵀ·VI·diff` of two rows is the squared Euclidean distance of their
    `W = Z·L` rows (`_sq_dist`). `W` is column-major, so `_sq_dist` reads
    each column from one block.
    """

    def __init__(self, panel, model):
        self.panel = panel
        self.logits = {k: model.group_logits(k) for k in model.classes if k != 0}
        self.group = model.group
        self.rank = {}
        for k, logits in self.logits.items():
            dt = np.min_scalar_type(len(logits) - 1)
            rank = np.empty(len(logits), dtype=dt)
            rank[np.argsort(logits, kind="stable")] = np.arange(len(logits), dtype=dt)
            self.rank[k] = rank
        core = list(panel.core_idx)
        n = panel.n_rows
        mean, sd, cross = panel.moments
        mu, sd = mean[core], sd[core]
        if n >= 2:
            S = cross[np.ix_(core, core)] / (n - 1) / np.outer(sd, sd)
            VI = np.linalg.inv(S + 1e-9 * np.eye(len(core)))
        else:
            VI = np.eye(len(core))
        Z = (panel.covariates(model.rep)[:, core] - mu) / sd
        self.W = np.asfortranarray((np.linalg.cholesky(VI).T @ Z.T).T)

    def order(self, level, grp) -> np.ndarray:
        """Positions of the rows whose groups are `grp` in ascending
        (`level`'s logit, group, position) order."""
        return np.argsort(self.rank[level][grp], kind="stable")


def _sq_dist(W, a, b):
    """Squared whitened distances between rows `a` and rows `b` of `W`.

    Summed one column at a time in a fixed order with elementwise ops only,
    so a pair's bits do not depend on how many pairs share the call.
    """
    d2 = np.zeros(np.shape(a))
    for col in W.T:
        d = col[a] - col[b]
        d2 += d * d
    return d2


def _caliper_windows(sg, st, caliper):
    """[lo, hi) slices of the ascending control logits `sg` (NaN last)
    holding, for each treated logit in `st`, exactly the controls with
    |fl(sg - st)| <= caliper.

    A window widened by a few ulps of the largest magnitude in play, so
    that rounding in `st +- caliper` cannot drop a boundary control, or the
    whole of `sg` when that width is not finite (non-finite logits or
    caliper), has each end trimmed one control at a time by that test,
    up to the first control that passes. fl(sg - st) does not fall as sg
    rises, so the controls inside the caliper are one run of the window.
    """
    top = max(float(np.abs(sg).max()), float(np.abs(st).max()), caliper)
    width = caliper + 4 * np.spacing(top)
    if np.isfinite(width):
        lo = np.searchsorted(sg, st - width, "left")
        hi = np.searchsorted(sg, st + width, "right")
    else:
        lo, hi = np.zeros(st.size, dtype=np.int64), np.full(st.size, sg.size)
    for end, at, step in ((lo, 0, 1), (hi, -1, -1)):  # an end's control is sg[end + at]
        j = np.arange(st.size)
        while j.size:
            j = j[lo[j] < hi[j]]
            j = j[~(np.abs(sg[end[j] + at] - st[j]) <= caliper)]
            end[j] += step
    return lo, hi


# caliper-window entries scored at once (a treated ego's whole window stays in
# one chunk). Scoring holds about a dozen int64 and float64 temporaries per
# entry, so a chunk's are a few MB however many entries a day has.
_WINDOW_CHUNK = 1 << 16


def _control_groups(order, grp, control):
    """The controls (rows where `control`) in ascending (logit, group)
    order, taken from the day's `order` (`_MatchContext.order`), and the
    start of each run of one fit group `grp` in that order.

    A group's members share their covariate row, so their logit and whitened
    row, and every treated row is equally far from all of them. `order` is
    stable, so a run's egos ascend.
    """
    c = order[control[order]]
    g = grp[c]
    return c, np.flatnonzero(np.r_[True, g[1:] != g[:-1]])


def _window_picks(W, s, grp, ego, t, c, start, caliper):
    """Greedy picks over caliper windows: (treated, control, distances).

    `s`, `grp` and `ego` are one day's logits, fit groups and egos, and `W`
    holds one whitened row per fit group; `t` (ascending ego) and `c` index
    the day's rows, and so do the returned picks. The controls `c` come in
    runs of one group (`_control_groups`, whose runs start at `start`),
    whose members are interchangeable but for their egos, so windows and
    distances run over one representative row per group. A group always
    gives up its lowest free ego, so its free egos are a suffix of its run
    and one head pointer per group tracks them. A distance does not depend
    on which controls are still free, so every (treated, group) pair in the
    windows is scored once. Each treated ego takes the least (distance,
    head ego) among the live groups in its window: its first choice comes
    from two `minimum.reduceat` passes over the initial heads, and only an
    ego whose first-choice group has since given up its head sorts its own
    candidates by their current heads and takes the first live one.
    """
    rep = c[start]  # each group's first member, its representative row
    end = np.r_[start[1:], c.size]
    head = start.copy()  # each group's lowest free member, in sorted order
    st, sg = s[t], s[rep]  # sg ascends, so each caliper is one slice
    wt, wg = grp[t].astype(np.intp), grp[rep].astype(np.intp)  # their rows of W
    c_ego = ego[c]
    n_groups = rep.size
    lo, hi = _caliper_windows(sg, st, caliper)
    lens = hi - lo
    # groups' initial head egos are distinct, so their rank names the group
    by_ego = np.argsort(c_ego[start], kind="stable")
    ego_rank = np.empty(n_groups, dtype=np.int64)
    ego_rank[by_ego] = np.arange(n_groups)
    n_free = c.size
    ti, cj, dist = [], [], []
    chunk = (np.cumsum(lens) - lens) // _WINDOW_CHUNK
    cuts = np.flatnonzero(np.diff(chunk)) + 1
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, st.size]):
        n = lens[a:b]
        seg = np.repeat(np.arange(a, b), n)  # treated index of each entry
        if seg.size == 0:
            continue
        k = np.arange(seg.size) - np.repeat(np.cumsum(n) - n - lo[a:b], n)
        md = np.sqrt(_sq_dist(W, wg[k], wt[seg]))
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        ends = np.r_[starts[1:], seg.size]
        best = np.minimum.reduceat(md, starts)
        tied = np.where(md == np.repeat(best, ends - starts), ego_rank[k], n_groups)
        first = by_ego[np.minimum.reduceat(tied, starts)]
        for i, g, d, s0, s1 in zip(
            seg[starts].tolist(), first.tolist(), best.tolist(), starts.tolist(), ends.tolist()
        ):
            if head[g] != start[g]:  # the first choice gave up its initial head
                cand = k[s0:s1]
                live = head[cand] < end[cand]
                if not live.any():
                    continue
                cand, cmd = cand[live], md[s0:s1][live]
                m = np.lexsort((c_ego[head[cand]], cmd))[0]
                g, d = int(cand[m]), float(cmd[m])
            ti.append(i)
            cj.append(int(head[g]))
            dist.append(d)
            head[g] += 1
            n_free -= 1
            if n_free == 0:
                return t[ti], c[cj], dist
    return t[ti], c[cj], dist


def _match_day(ctx, day, rows, caliper_mult, level):
    """Match one day at `level`, whose panel rows are the slice `rows`."""
    panel = ctx.panel
    grp = ctx.group[rows]
    s = ctx.logits[level][grp]
    sd = float(np.std(s, ddof=1)) if s.size > 1 else 0.0
    # inf x 0 is NaN, which no control passes: no caliper stays no caliper
    caliper = math.inf if caliper_mult == math.inf and sd == 0 else caliper_mult * sd
    treat = panel.treatment[rows]
    t = np.flatnonzero(treat == level)
    if t.size == 0 or not (treat == 0).any():
        return DayMatchResult(
            level, day, _pair_table(0), int(t.size), 0, "insufficient treated or control counts"
        )
    # one order of the day's rows gives both the AUC's ties and the control runs
    order = ctx.order(level, grp)
    ranked = treat[order]
    auc = _rank_auc(s, treat == level, order[(ranked == level) | (ranked == 0)])
    c, start = _control_groups(order, grp, treat == 0)
    ego, outcome = panel.ego[rows], panel.outcome[rows]  # ego ascends, and so t's egos
    ti, cj, dist = _window_picks(ctx.W, s, grp, ego, t, c, start, caliper)
    pairs = _pair_table(ti.size)
    pairs.level = level
    pairs.day = day
    pairs.treated = ego[ti]
    pairs.control = ego[cj]
    pairs.logit_gap = s[ti] - s[cj]
    pairs.mahalanobis = dist
    pairs.treated_outcome = outcome[ti]
    pairs.control_outcome = outcome[cj]
    return DayMatchResult(level, day, pairs, int(t.size), ti.size, None, auc)


def match_all_days(
    panel: TreatmentPanel, model: PropensityModel, caliper_mult: float = 0.1
) -> MatchRun:
    """Greedily match each day's treated egos (ascending id) to same-day
    controls (level 0), a level at a time: each level the fit saw but 0.

    Candidates must sit within `caliper_mult` (>= 0; inf for no caliper) x
    SD of the day's logits, and inf stays no caliper on a day whose logits
    all tie (SD 0, where inf x 0 would be NaN); the closest by standardized Mahalanobis distance
    over the core covariates wins, ties to the lowest control id, each
    control used at most once.
    """
    if not caliper_mult >= 0:  # NaN fails too
        raise DataError(f"caliper multiplier must be >= 0, got {caliper_mult}")
    ctx = _MatchContext(panel, model)
    days = panel.rows_by_day()
    results = [_match_day(ctx, D, rows, caliper_mult, k) for k in ctx.logits for D, rows in days]
    pairs = np.concatenate([_pair_table(0)] + [r.pairs for r in results]).view(np.recarray)
    # each result keeps its slice of the run's table, so every pair is held once
    ends = np.cumsum([len(r.pairs) for r in results])
    results = tuple(
        replace(r, pairs=pairs[end - len(r.pairs) : end]) for r, end in zip(results, ends.tolist())
    )
    return MatchRun(results, pairs)


@dataclass(frozen=True)
class RiskTable:
    """Pooled 2x2 adoption table with risk ratio and Katz 95% CI."""

    a: float  # treated adopters
    b: float  # treated non-adopters
    c: float  # control adopters
    d: float  # control non-adopters
    rr: float
    ci_low: float
    ci_high: float
    corrected: bool

    @classmethod
    def from_counts(cls, a, b, c, d) -> "RiskTable":
        if min(a, b, c, d) < 0:
            raise DataError("negative cell count")
        if a + b == 0 or c + d == 0:
            raise DataError("empty treated or control arm")
        corrected = min(a, b, c, d) == 0
        aa, bb, cc, dd = (
            (a + 0.5, b + 0.5, c + 0.5, d + 0.5) if corrected else (a, b, c, d)
        )
        rr = (aa / (aa + bb)) / (cc / (cc + dd))
        se = math.sqrt(1.0 / aa - 1.0 / (aa + bb) + 1.0 / cc - 1.0 / (cc + dd))
        lo = math.exp(math.log(rr) - Z_95 * se)
        hi = math.exp(math.log(rr) + Z_95 * se)
        return cls(
            a=float(a), b=float(b), c=float(c), d=float(d),
            rr=rr, ci_low=lo, ci_high=hi, corrected=corrected,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def pool_risk_ratio(pairs) -> RiskTable:
    """Sum a pairs table's outcomes across days into one corrected 2x2 table."""
    n = len(pairs)
    if n == 0:
        raise DataError("no matched pairs to pool")
    a, c = int(pairs.treated_outcome.sum()), int(pairs.control_outcome.sum())
    return RiskTable.from_counts(a, n - a, c, n - c)


def naive_risk_table(panel: TreatmentPanel, level: int = 1) -> RiskTable:
    """Unmatched risk ratio of `level` against level 0 over the whole panel
    (benchmark, not an estimate)."""
    t = panel.treatment == level
    c = panel.treatment == 0
    if not t.any() or not c.any():
        raise DataError("panel lacks treated or control rows at the requested levels")
    a = int(panel.outcome[t].sum())
    b = int(t.sum()) - a
    cc = int(panel.outcome[c].sum())
    dd = int(c.sum()) - cc
    return RiskTable.from_counts(a, b, cc, dd)


def diagnostics(run: MatchRun) -> dict:
    """Balance and overlap summary of a run, or of one level's (`run.at`):
    AUCs, logit gaps, match distances. The AUCs are the matched results',
    taken by `match_all_days` from the logits it matched on."""
    aucs = [r.auc for r in run.results if r.auc is not None]
    gaps = np.abs(run.pairs.logit_gap)
    dists = run.pairs.mahalanobis
    overlaps = [r.overlap for r in run.results if r.skip_reason is None]
    q = lambda arr, frac: float(np.quantile(arr, frac)) if arr.size else None
    return {
        "n_pairs": len(run.pairs),
        "n_days_matched": sum(1 for r in run.results if r.skip_reason is None),
        "n_days_skipped": len(run.skipped),
        "auc_median": float(np.median(aucs)) if aucs else None,
        "auc_min": float(np.min(aucs)) if aucs else None,
        "dlogit_p50": q(gaps, 0.5),
        "dlogit_p90": q(gaps, 0.9),
        "distance_p50": q(dists, 0.5),
        "distance_p90": q(dists, 0.9),
        "overlap_median": float(np.median(overlaps)) if overlaps else None,
    }


class _LevelNames:
    """The name in `names` of each code in `codes`, made a slice at a time,
    so no column of names spans a pairs table."""

    def __init__(self, names, codes):
        self.names, self.codes = np.asarray(names), codes

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, rows):
        return self.names[self.codes[rows]]


def write_pairs(pairs, levels, path) -> None:
    """Write a pairs table as CSV: a header, then one row per pair holding
    its first six fields, its level as its name in `levels` (by code) and
    floats as their shortest round-trip repr."""
    columns = [pairs[name] for name in _PAIR_CSV_COLUMNS[1:]]
    write_csv(path, _PAIR_CSV_COLUMNS, [_LevelNames(levels, pairs.level), *columns])
