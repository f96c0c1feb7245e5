"""Mechanism classifier: gradient-boosted decision trees, written here.

Multi-class boosting with a softmax cross-entropy objective.  Each round
fits one regression tree per class to that class's gradients; splits
maximize the second-order gain

    0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam))

over histogram-binned feature values (at most 256 bins per feature, bin
edges taken from training-data quantiles, thresholds stored as real feature
values).  Leaf weights are -lr * G/(H+lam).  Deterministic throughout:
training rows are put in a canonical sort order before the seeded
stratified split, and split ties break to the lowest feature index, then
the lowest threshold.

The split search skips what can never split, as XGBoost's `hist` grower
does: only live features (those with at least one threshold) are binned,
only the real bins below each feature's edge count are scored, and a node
whose hessian sum is under 2 * min_child_weight (less 1e-9 of it) becomes
a leaf without a search. Every gain is the one a full-grid search computes
and the first maximum is taken in the same order, so models keep their
bits.

A tree is a `Tree`: flat preorder node arrays (`feature`, `threshold`,
`gain`, `right`, `value`; a split's left child is the node after it), the
node layout of XGBoost (Chen & Guestrin, KDD 2016), grown straight into
those arrays with no Python object per node, and routed over them split by
split as before, so predictions keep their bits. The model JSON format is unchanged: each tree is written
as the nested dict of its `as_dict` view, one boosting round at a time, and
read back into arrays after validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrate import AdoptionLog
from .cascade import MECHANISMS
from .errors import DataError, Records, read_json, write_json
from .features import FEATURE_NAMES, extract_features_log
from .netgraph import DirectedGraph
from .rngstream import TRAIN_SPLIT, stream
from .shocks import ShockSchedule

MODEL_FORMAT = "contagion-lab-gbdt"
MODEL_VERSION = 1

MIN_SPLIT_GAIN = 1e-12


class Tree:
    """One regression tree as flat preorder node arrays.

    Node 0 is the root; a split's left child is the node after it and its
    right child, `right[i]`, follows the left subtree. A split routes x
    left when x[feature] <= threshold and keeps its `gain`; a leaf has
    feature and right -1 and holds its weight in `value` (the fields
    a node does not use are 0). `as_dict` gives the nested-dict view the
    model JSON holds: {"leaf": value} or {"feature": f, "threshold": t,
    "gain": g, "left": ..., "right": ...}.
    """

    __slots__ = ("feature", "threshold", "gain", "right", "value")

    def __init__(self, n_nodes: int):
        self.feature, self.right = (np.full(n_nodes, -1, dtype=np.int32) for _ in range(2))
        self.threshold, self.gain, self.value = (np.zeros(n_nodes) for _ in range(3))

    def __len__(self) -> int:
        return len(self.feature)

    def _trim(self, n_nodes: int) -> "Tree":
        """This tree's first `n_nodes` nodes, in arrays of their own."""
        if n_nodes < len(self):
            for name in self.__slots__:
                setattr(self, name, getattr(self, name)[:n_nodes].copy())
        return self

    def as_dict(self) -> dict:
        fields = ("feature", "threshold", "gain", "right", "value")
        return _node_dict(0, *(getattr(self, k).tolist() for k in fields))

    @classmethod
    def from_dict(cls, root: dict) -> "Tree":
        """The arrays of a nested-dict tree that `_check_trees` has passed."""
        tree, i = cls(_node_count(root)), 0  # counted first: the arrays are made once
        stack = [(root, -1)]  # (node, the split whose right child it is)
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                tree.right[parent] = i
            if "leaf" in node:
                tree.value[i] = node["leaf"]
            else:
                tree.feature[i] = node["feature"]
                tree.threshold[i], tree.gain[i] = node["threshold"], node["gain"]
                stack += (node["right"], i), (node["left"], -1)
            i += 1
        return tree


def _node_dict(i, feature, threshold, gain, right, value) -> dict:
    """Node i of a tree, given as lists, and its subtrees as nested dicts."""
    if feature[i] < 0:
        return {"leaf": value[i]}
    lists = feature, threshold, gain, right, value
    return {"feature": feature[i], "threshold": threshold[i], "gain": gain[i],
            "left": _node_dict(i + 1, *lists), "right": _node_dict(right[i], *lists)}


def _node_count(root: dict) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        if "leaf" not in node:
            stack += node["right"], node["left"]
    return n


@dataclass(frozen=True)
class BoostedForest:
    """Per-round, per-class trees plus the hyperparameters that built them.

    `trees[round][class_index]` is a `Tree`, its nodes in flat preorder
    arrays. `save` writes the model JSON a round at a time, each tree as its
    nested-dict view, so the file's text is what `json.dumps` gives for the
    nested dicts and the whole text is never held; `load` checks every tree
    and turns it into arrays a round at a time.
    """

    classes: tuple[str, ...]
    feature_names: tuple[str, ...]
    trees: list  # trees[round][class_index] -> Tree
    learning_rate: float
    max_depth: int
    min_child_weight: float
    reg_lambda: float
    seed: int
    loss_curve: tuple[float, ...] = field(default=())

    def save(self, path) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "classes": list(self.classes),
            "feature_names": list(self.feature_names),
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_child_weight": self.min_child_weight,
            "reg_lambda": self.reg_lambda,
            "seed": self.seed,
            "loss_curve": list(self.loss_curve),
            # an iterator member is written an item (here a round) at a time
            "trees": ([tree.as_dict() for tree in r] for r in self.trees),
        }
        write_json(path, payload)

    @classmethod
    def load(cls, path) -> "BoostedForest":
        def parse(d):
            if not isinstance(d, dict):
                raise TypeError("expected a JSON object")
            if d.get("format") != MODEL_FORMAT or d.get("version") != MODEL_VERSION:
                raise ValueError("unrecognized model format")
            classes, feature_names = tuple(d["classes"]), tuple(d["feature_names"])
            trees = d["trees"]
            _check_trees(trees, len(classes), len(feature_names))
            for i, r in enumerate(trees):  # each round's dicts go as it is converted
                trees[i] = [Tree.from_dict(tree) for tree in r]
            return cls(
                classes=classes,
                feature_names=feature_names,
                trees=trees,
                learning_rate=float(d["learning_rate"]),
                max_depth=int(d["max_depth"]),
                min_child_weight=float(d["min_child_weight"]),
                reg_lambda=float(d["reg_lambda"]),
                seed=int(d["seed"]),
                loss_curve=tuple(d.get("loss_curve", ())),
            )

        return read_json(path, parse)


def _check_trees(trees, n_classes: int, n_features: int) -> None:
    """Raise unless every round holds one tree per class and every node is a
    finite leaf or a split on a feature in range at a finite threshold, with
    a gain that is a number and not NaN (JSON keeps no NaN's bits)."""
    if not all(isinstance(r, list) and len(r) == n_classes for r in trees):
        raise ValueError(f"every round must hold one tree per class ({n_classes})")
    stack = [tree for r in trees for tree in r]
    while stack:
        node = stack.pop()
        if "leaf" in node:
            _check_finite(node["leaf"], "leaf value")
            continue
        f = node["feature"]
        if type(f) is not int or not 0 <= f < n_features:
            raise ValueError(f"split feature {f!r} outside [0, {n_features})")
        _check_finite(node["threshold"], "split threshold")
        g = node["gain"]
        if type(g) not in (int, float) or math.isnan(g):
            raise ValueError(f"split gain {g!r} is not a number")
        stack += node["left"], node["right"]


def _check_finite(x, what: str) -> None:
    if type(x) not in (int, float) or not math.isfinite(x):
        raise ValueError(f"{what} {x!r} is not a finite number")


# -- binning ---------------------------------------------------------------------


def _bin_edges(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Candidate split thresholds for one feature, all real data values."""
    vals = np.unique(col)
    if len(vals) <= 1:
        return vals[:0]
    if len(vals) <= max_bins - 1:
        return vals[:-1]  # split between consecutive distinct values
    qs = np.linspace(0.0, 1.0, max_bins)
    edges = np.unique(np.quantile(col, qs, method="lower"))
    return edges[:-1]


def _binize(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Bin index per value: bin(x) <= b exactly when x <= edges[b]."""
    B = np.empty(X.shape, dtype=np.int32)
    for f in range(X.shape[1]):
        B[:, f] = np.searchsorted(edges[f], X[:, f], side="left")
    return B


# -- tree growing -----------------------------------------------------------------


def _fit_tree(
    codes: np.ndarray,
    beyond: np.ndarray,
    edges: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    depth: int,
    max_depth: int,
    min_child_weight: float,
    reg_lambda: float,
    learning_rate: float,
    deltas: np.ndarray,
) -> Tree:
    """Grow one tree over rows `idx` from `depth`, writing each row's leaf
    value to `deltas`.

    `codes[i, f]` is row i's bin for feature f offset by f * width, so one
    bincount fills every feature's histogram as row f of a (d, width) grid;
    `beyond[f, b]` marks the bins b at or past feature f's edge count, and
    only the other, real bins are scored. Nodes are grown depth first, left
    child first, and written in that (pre)order straight into the tree's
    arrays, sized for the most nodes the depth and the row count allow (a
    leaf holds a row, so n rows make at most 2n - 1 nodes) and trimmed once
    grown.

    A node whose hessian sum H is under 2 * min_child_weight * (1 - 1e-9)
    is a leaf without a search: a split needs HL >= min_child_weight, which
    leaves H - HL below min_child_weight by far more than its rounding, so
    no bin could pass the floor on both sides.
    """
    real = np.flatnonzero(~beyond.ravel())
    floor = 2 * min_child_weight * (1 - 1e-9) if min_child_weight > 0 else -math.inf
    levels = min(max_depth - depth, 62)
    tree = Tree(max(1, min(2 ** (levels + 1) - 1, 2 * len(idx) - 1)))
    n_nodes = 0
    stack = [(idx, depth, -1)]  # (rows, depth, the split whose right child it is)
    # with no regularization an empty side's gain is 0/0 or x/0
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            idx, depth, parent = stack.pop()
            i = n_nodes
            n_nodes += 1
            if parent >= 0:
                tree.right[parent] = i
            gi, hi = g[idx], h[idx]
            G = float(gi.sum())
            H = float(hi.sum())
            split = None
            if depth < max_depth and len(idx) >= 2 and len(real) and H >= floor:
                split = _best_split(
                    codes, beyond.shape, real, gi, hi, G, H, idx, min_child_weight, reg_lambda
                )
            if split is None:
                value = -learning_rate * G / (H + reg_lambda)
                deltas[idx] = value
                tree.value[i] = value
                continue
            f, b, tree.gain[i], go_left = split
            tree.feature[i], tree.threshold[i] = f, edges[f][b]
            stack += (idx[~go_left], depth + 1, i), (idx[go_left], depth + 1, -1)
    return tree._trim(n_nodes)


def _best_split(codes, shape, real, gi, hi, G, H, idx, min_child_weight, reg_lambda):
    """(feature, bin, gain, rows going left) of the best split of rows `idx`,
    whose gradients and hessians are `gi` and `hi` with sums G and H, or
    None if no split gains more than MIN_SPLIT_GAIN. `shape` is the (d,
    width) histogram grid and `real` its bins below each feature's edge
    count, in flat order."""
    # bincount adds each bin's rows in index order, so the sums match a
    # per-feature pass bit for bit; the cumsum runs over each full row
    d, width = shape
    node_codes = np.take(codes, idx, axis=0)
    GL, HL = (
        np.bincount(node_codes.ravel(), weights=np.repeat(w, d), minlength=d * width)
        .reshape(d, width)
        .cumsum(axis=1)
        .take(real)
        for w in (gi, hi)
    )
    GR = G - GL
    HR = H - HL
    base = G * G / (H + reg_lambda)
    gains = 0.5 * (GL * GL / (HL + reg_lambda) + GR * GR / (HR + reg_lambda) - base)
    gains[~((HL >= min_child_weight) & (HR >= min_child_weight))] = -np.inf
    # an empty side's 0/0 rules out that bin only
    gains[np.isnan(gains)] = -np.inf
    while True:
        # first max in flat order: lowest feature wins ties, then lowest threshold
        j = int(np.argmax(gains))
        best_gain = float(gains[j])
        if not best_gain > MIN_SPLIT_GAIN:
            return None
        best_f, best_b = divmod(int(real[j]), width)
        go_left = node_codes[:, best_f] <= best_f * width + best_b
        if 0 < np.count_nonzero(go_left) < len(idx):
            return best_f, best_b, best_gain, go_left
        # with no hessian floor, rounding in H - HL can leave a split with an
        # empty child a finite gain; that split would make a 0/0 leaf
        gains[j] = -np.inf


def _route_accumulate(i, feature, threshold, right, value, XT, idx, out) -> None:
    """Add to `out[idx]` the leaf value each row of `idx` reaches from node
    i of a tree given as lists, splitting the rows node by node; `XT[f]` is
    feature f's column, contiguous."""
    if feature[i] < 0:
        out[idx] += value[i]
        return
    go_left = XT[feature[i]][idx] <= threshold[i]
    lists = feature, threshold, right, value
    _route_accumulate(i + 1, *lists, XT, idx[go_left], out)
    _route_accumulate(right[i], *lists, XT, idx[~go_left], out)


def _log_softmax(F: np.ndarray) -> np.ndarray:
    z = F - F.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


# -- training ------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainResult:
    model: BoostedForest
    macro_f1: float
    per_class: dict
    n_train: int
    n_test: int


def _canonical_order(X: np.ndarray, y_codes: np.ndarray) -> np.ndarray:
    keys = (y_codes,) + tuple(X[:, c] for c in range(X.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


def _stratified_split(y_codes, n_classes, test_fraction, seed):
    rng = stream(seed, TRAIN_SPLIT)
    train_idx, test_idx = [], []
    for c in range(n_classes):
        pos = np.flatnonzero(y_codes == c)
        perm = rng.permutation(len(pos))
        n_test = int(np.floor(test_fraction * len(pos)))
        if len(pos) >= 2 and n_test == 0:
            n_test = 1
        test_idx.append(pos[perm[:n_test]])
        train_idx.append(pos[perm[n_test:]])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def train(
    X: np.ndarray,
    y: np.ndarray,
    learning_rate: float = 0.1,
    max_depth: int = 6,
    n_rounds: int = 300,
    min_child_weight: float = 1.0,
    reg_lambda: float = 1.0,
    max_bins: int = 256,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> TrainResult:
    """Fit the boosted forest on a stratified split that holds out
    `test_fraction` (in [0, 1)) of each class, at a finite `learning_rate`,
    for at least one round, with finite, non-negative `reg_lambda` and
    `min_child_weight`, a `max_depth` >= 0 and `max_bins` >= 2 (at least
    one threshold per feature).

    Row order does not matter: rows are sorted into a canonical order
    before the seeded split, so shuffled inputs give identical models.
    """
    if not 0 <= test_fraction < 1:
        raise DataError(f"test fraction must be in [0, 1), got {test_fraction}")
    if not math.isfinite(learning_rate):
        raise DataError(f"learning rate must be finite, got {learning_rate}")
    for name, value in (("reg_lambda", reg_lambda), ("min_child_weight", min_child_weight)):
        if not 0 <= value < math.inf:
            raise DataError(f"{name} must be finite and >= 0, got {value}")
    if n_rounds < 1:
        raise DataError(f"need at least one boosting round, got {n_rounds}")
    if max_depth < 0:
        raise DataError(f"max depth must be >= 0, got {max_depth}")
    if max_bins < 2:
        raise DataError(f"max bins must be >= 2, got {max_bins}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise DataError("feature matrix and labels misaligned")
    if len(X) == 0:
        raise DataError("empty training set")
    # the mechanisms present in their order, then any other labels sorted
    labels, inverse = np.unique(y, return_inverse=True)
    present = set(labels)
    classes = tuple(m for m in MECHANISMS if m in present)
    classes += tuple(c for c in labels if c not in MECHANISMS)
    if len(classes) < 2:
        raise DataError("need at least 2 classes to train")
    y_codes = np.array([classes.index(c) for c in labels], dtype=np.int64)[inverse]

    order = _canonical_order(X, y_codes)
    Xc, yc = X[order], y_codes[order]
    train_rows, test_rows = _stratified_split(
        yc, len(classes), test_fraction, seed
    )
    Xtr, ytr = Xc[train_rows], yc[train_rows]
    Xte, yte = Xc[test_rows], yc[test_rows]

    n = len(Xtr)
    edges = [_bin_edges(Xtr[:, f], max_bins) for f in range(Xtr.shape[1])]
    # only features with a threshold are binned; a tree's split features are
    # mapped back to their ids through `ids` (whose last entry keeps a leaf's -1)
    live = [f for f, e in enumerate(edges) if len(e)]
    ids = np.array(live + [-1], dtype=np.int32)
    edges = [edges[f] for f in live]
    n_edges = np.array([len(e) for e in edges], dtype=np.int64)
    width = int(n_edges.max(initial=0)) + 1
    codes = _binize(Xtr[:, live], edges) + np.arange(len(live), dtype=np.int64) * width
    beyond = np.arange(width) >= n_edges[:, None]
    Y = np.zeros((n, len(classes)))
    Y[np.arange(n), ytr] = 1.0
    F = np.zeros((n, len(classes)))
    all_idx = np.arange(n)

    trees = []
    loss_curve = []
    logp = _log_softmax(F)
    for _ in range(n_rounds):
        p = np.exp(logp)
        round_trees = []
        for k in range(len(classes)):
            gk = p[:, k] - Y[:, k]
            hk = p[:, k] * (1.0 - p[:, k])
            deltas = np.zeros(n)
            tree = _fit_tree(
                codes,
                beyond,
                edges,
                gk,
                hk,
                all_idx,
                0,
                max_depth,
                min_child_weight,
                reg_lambda,
                learning_rate,
                deltas,
            )
            F[:, k] += deltas
            tree.feature = ids[tree.feature]
            round_trees.append(tree)
        trees.append(round_trees)
        logp = _log_softmax(F)  # this round's loss and the next round's p
        loss_curve.append(float(-logp[np.arange(n), ytr].mean()))
    # the binned codes and every per-row array go before the held-out prediction
    del codes, Y, F, logp, p, gk, hk, deltas, all_idx
    model = BoostedForest(
        classes=classes,
        feature_names=FEATURE_NAMES,
        trees=trees,
        learning_rate=learning_rate,
        max_depth=max_depth,
        min_child_weight=min_child_weight,
        reg_lambda=reg_lambda,
        seed=seed,
        loss_curve=tuple(loss_curve),
    )
    if len(Xte):
        pred = predict_label(model, Xte)
        true = np.array([classes[c] for c in yte])
        per_class = classification_metrics(true, pred, classes)
        macro = float(np.mean([per_class[c]["f1"] for c in classes]))
    else:
        per_class = {}
        macro = float("nan")
    return TrainResult(
        model=model,
        macro_f1=macro,
        per_class=per_class,
        n_train=len(Xtr),
        n_test=len(Xte),
    )


# -- prediction --------------------------------------------------------------------


def predict_proba(model: BoostedForest, X: np.ndarray) -> np.ndarray:
    """Class probabilities, rows summing to 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.feature_names):
        raise DataError(
            f"expected {len(model.feature_names)} features, got {X.shape[1]}"
        )
    F = np.zeros((len(X), len(model.classes)))
    idx = np.arange(len(X))
    XT = np.ascontiguousarray(X.T)  # rows are routed a column at a time
    for round_trees in model.trees:
        for k, tree in enumerate(round_trees):
            lists = (a.tolist() for a in (tree.feature, tree.threshold, tree.right, tree.value))
            _route_accumulate(0, *lists, XT, idx, F[:, k])
    return np.exp(_log_softmax(F))


def class_labels(model: BoostedForest, proba: np.ndarray) -> np.ndarray:
    """The most probable class of each row of `proba`."""
    return np.asarray(model.classes)[proba.argmax(axis=1)]


def predict_label(model: BoostedForest, X: np.ndarray) -> np.ndarray:
    return class_labels(model, predict_proba(model, X))


# -- metrics -----------------------------------------------------------------------


def classification_metrics(y_true, y_pred, classes) -> dict:
    """Per-class precision/recall/F1/support."""
    out = {}
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    for c in classes:
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[c] = {
            "precision": prec,
            "recall": rec,
            "f1": f1,
            "support": int(np.sum(y_true == c)),
        }
    return out


def macro_f1_score(y_true, y_pred, classes) -> float:
    m = classification_metrics(y_true, y_pred, classes)
    return float(np.mean([m[c]["f1"] for c in classes]))


# -- importances --------------------------------------------------------------------


def gain_importance(model: BoostedForest) -> np.ndarray:
    """Per-feature mean split gain, normalized to sum 1."""
    trees = [tree for round_trees in model.trees for tree in round_trees]
    if not trees:
        raise DataError("model has no splits")
    split = [tree.feature >= 0 for tree in trees]
    feature = np.concatenate([t.feature[s] for t, s in zip(trees, split)])
    # bincount adds in node order, trees in order, as a walk of the trees would
    sums = np.bincount(
        feature,
        weights=np.concatenate([t.gain[s] for t, s in zip(trees, split)]),
        minlength=len(model.feature_names),
    )
    counts = np.bincount(feature, minlength=len(model.feature_names))
    if counts.sum() == 0:
        raise DataError("model has no splits")
    means = np.zeros_like(sums)
    np.divide(sums, counts, out=means, where=counts > 0)
    return means / means.sum()


# -- decomposition ------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """Classifier-attributed mechanism mix of an adoption log."""

    nodes: np.ndarray
    days: np.ndarray
    labels: np.ndarray
    probabilities: np.ndarray
    classes: tuple[str, ...]

    def _tables(self) -> tuple[dict, dict, dict]:
        """Per-day class counts and proportions over the days with an adoption,
        and the overall shares, from one bincount over (day, class) codes; a
        label outside `classes` counts nowhere."""
        k = len(self.classes)
        code = np.full(len(self.labels), k)
        for i, c in enumerate(self.classes):
            code[self.labels == c] = i
        days, day = np.unique(self.days, return_inverse=True)
        counts = np.bincount(day * (k + 1) + code, minlength=len(days) * (k + 1))
        counts = counts.reshape(len(days), k + 1)[:, :k]

        def by_day(table):
            rows = (dict(zip(self.classes, row)) for row in table.tolist())
            return dict(zip(days.tolist(), rows))

        shares = counts.sum(axis=0) / len(self.labels)
        proportions = counts / counts.sum(axis=1)[:, None]
        return by_day(counts), by_day(proportions), dict(zip(self.classes, shares.tolist()))

    def overall_shares(self) -> dict:
        return self._tables()[2]

    def to_json(self, path) -> None:
        counts, proportions, shares = self._tables()
        events = {"node": self.nodes, "day": self.days, "label": self.labels,
                  "probabilities": self.probabilities}
        payload = {
            "classes": list(self.classes),
            "overall_shares": shares,
            "daily_counts": {str(d): v for d, v in counts.items()},
            "daily_proportions": {str(d): v for d, v in proportions.items()},
            "events": Records(events),
        }
        write_json(path, payload)


def decompose(
    model: BoostedForest,
    log: AdoptionLog,
    g: DirectedGraph,
    shocks: ShockSchedule,
) -> DecompositionReport:
    """Attribute each adoption in the log to a mechanism via the classifier."""
    nodes, X = extract_features_log(g, log, shocks)
    proba = predict_proba(model, X)
    return DecompositionReport(
        nodes=nodes,
        days=log.adoption_day[nodes],
        labels=class_labels(model, proba),
        probabilities=proba,
        classes=model.classes,
    )
