"""Boosted-tree classifier: capacity, determinism, importances, decomposition."""

import gc
import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contagion_lab import errors
from contagion_lab.calibrate import NEVER, AdoptionLog
from contagion_lab.errors import DataError, ParseError
from contagion_lab.features import FEATURE_NAMES
from contagion_lab.mechclass import (
    MIN_SPLIT_GAIN,
    BoostedForest,
    DecompositionReport,
    Tree,
    _bin_edges,
    _binize,
    _fit_tree,
    _log_softmax,
    classification_metrics,
    decompose,
    gain_importance,
    macro_f1_score,
    predict_label,
    predict_proba,
    train,
)
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.shocks import ShockSchedule


def synth_rows(n_per_class, seed=0, classes=("Simple", "Complex", "Spontaneous", "Shock")):
    """Feature rows with class-typical geometry, mimicking cascade output."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for label in classes:
        for _ in range(n_per_class):
            if label == "Simple":
                k = rng.integers(20, 120)
                m = rng.integers(1, 5)
                dur = rng.integers(1, 20)
                rec = rng.integers(1, min(dur + 1, 6))
                rows.append([m, k, m / k, dur, rec, 0.0, -1.0])
            elif label == "Complex":
                k = rng.integers(3, 15)
                m = max(1, int(np.ceil(0.25 * k)) + rng.integers(0, 3))
                m = min(m, k)
                dur = rng.integers(1, 10)
                rows.append([m, k, m / k, dur, 1.0, 0.0, -1.0])
            elif label == "Spontaneous":
                k = rng.integers(0, 40)
                rows.append([0, k, 0.0, -1.0, -1.0, 0.0, -1.0])
            else:  # Shock
                k = rng.integers(0, 40)
                lam = rng.uniform(0.3, 1.0)
                rows.append([0, k, 0.0, -1.0, -1.0, lam, rng.integers(0, 4)])
            labels.append(label)
    return np.array(rows, dtype=float), np.array(labels)


def tree_dicts(trees):
    """The nested-dict view of every tree, by round and class."""
    return [[tree.as_dict() for tree in r] for r in trees]


def test_classes_are_the_present_mechanisms_in_order_then_other_labels_sorted():
    X, y = synth_rows(8, seed=2, classes=("Shock", "Complex", "Simple"))
    y[[0, 9, 17]] = "zeta"
    y[[1, 10]] = "alpha"
    res = train(X, y, n_rounds=2, max_depth=2, test_fraction=0)
    assert res.model.classes == ("Simple", "Complex", "Shock", "alpha", "zeta")


def test_overfit_tiny_duplicated_set():
    Xs, ys = synth_rows(13, seed=1)  # 52 distinct rows
    X = np.tile(Xs, (4, 1))[:200]
    y = np.tile(ys, 4)[:200]
    res = train(X, y, n_rounds=200, max_depth=6, seed=0)
    pred = predict_label(res.model, X)
    assert macro_f1_score(y, pred, res.model.classes) == 1.0


def test_determinism_same_seed():
    X, y = synth_rows(30, seed=2)
    a = train(X, y, n_rounds=20, seed=5)
    b = train(X, y, n_rounds=20, seed=5)
    assert json.dumps(tree_dicts(a.model.trees)) == json.dumps(tree_dicts(b.model.trees))
    assert a.macro_f1 == b.macro_f1
    assert a.per_class == b.per_class


def test_row_order_invariance():
    X, y = synth_rows(25, seed=3)
    res = train(X, y, n_rounds=15, seed=7)
    perm = np.random.default_rng(0).permutation(len(X))
    res2 = train(X[perm], y[perm], n_rounds=15, seed=7)
    assert json.dumps(tree_dicts(res.model.trees)) == json.dumps(tree_dicts(res2.model.trees))
    assert res.macro_f1 == res2.macro_f1
    probe, _ = synth_rows(5, seed=99)
    assert np.array_equal(predict_proba(res.model, probe), predict_proba(res2.model, probe))


def test_probabilities_sum_to_one():
    X, y = synth_rows(20, seed=4)
    res = train(X, y, n_rounds=10, seed=1)
    p = predict_proba(res.model, X)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(p > 0) and np.all(p < 1)


def test_training_loss_non_increasing():
    X, y = synth_rows(40, seed=5)
    res = train(X, y, n_rounds=40, seed=2)
    curve = np.array(res.model.loss_curve)
    assert np.all(np.diff(curve) <= 1e-12)


def test_more_rounds_extend_same_prefix():
    X, y = synth_rows(30, seed=6)
    short = train(X, y, n_rounds=8, seed=3)
    long = train(X, y, n_rounds=16, seed=3)
    assert json.dumps(tree_dicts(long.model.trees[:8])) == json.dumps(tree_dicts(short.model.trees))
    assert long.model.loss_curve[7] == short.model.loss_curve[7]


def test_shock_features_dominate_shock_world():
    # only the two shock columns separate the classes
    rng = np.random.default_rng(7)
    n = 400
    lam = np.concatenate([rng.uniform(0.4, 1.0, n // 2), np.zeros(n // 2)])
    rec = np.concatenate([rng.integers(0, 4, n // 2), np.full(n // 2, -1.0)])
    X = np.column_stack(
        [
            rng.integers(0, 4, n),
            rng.integers(1, 50, n),
            rng.random(n) * 0.1,
            rng.integers(-1, 10, n),
            rng.integers(-1, 5, n),
            lam,
            rec,
        ]
    ).astype(float)
    y = np.array(["Shock"] * (n // 2) + ["Spontaneous"] * (n // 2))
    res = train(X, y, n_rounds=30, seed=0)
    imp = gain_importance(res.model)
    assert imp[5] + imp[6] > 0.8
    assert imp.sum() == pytest.approx(1.0)
    assert np.all(imp >= 0)


def test_argmax_behaviors():
    X, y = synth_rows(150, seed=8)
    res = train(X, y, n_rounds=60, seed=1)
    shock_row = np.array([0, 10, 0.0, -1.0, -1.0, 1.0, 0.0])
    assert predict_label(res.model, shock_row)[0] == "Shock"
    complex_row = np.array([4, 8, 0.5, 3.0, 1.0, 0.0, -1.0])
    p = predict_proba(res.model, complex_row)[0]
    ci = res.model.classes.index("Complex")
    si = res.model.classes.index("Simple")
    assert p[ci] > p[si]


def test_stump_importance_single_feature():
    rng = np.random.default_rng(9)
    n = 200
    X = np.zeros((n, 7))
    X[:, 0] = rng.integers(0, 10, n)  # only m varies
    y = np.where(X[:, 0] >= 5, "Simple", "Spontaneous")
    res = train(X, y, n_rounds=5, max_depth=1, seed=0)
    imp = gain_importance(res.model)
    assert imp[0] == 1.0


def test_single_class_raises():
    X = np.random.default_rng(0).random((50, 7))
    with pytest.raises(DataError):
        train(X, np.array(["Simple"] * 50))


def test_empty_input_raises():
    with pytest.raises(DataError):
        train(np.empty((0, 7)), np.array([]))


def test_wrong_arity_raises():
    X, y = synth_rows(10, seed=1)
    res = train(X, y, n_rounds=3, seed=0)
    with pytest.raises(DataError):
        predict_proba(res.model, np.ones((2, 5)))


def test_model_json_round_trip(tmp_path):
    X, y = synth_rows(20, seed=10)
    res = train(X, y, n_rounds=10, seed=4)
    path = tmp_path / "model.json"
    res.model.save(path)
    back = BoostedForest.load(path)
    assert back.classes == res.model.classes
    assert np.array_equal(predict_proba(back, X), predict_proba(res.model, X))
    assert back.loss_curve == res.model.loss_curve


def test_model_bad_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other", "version": 3}')
    with pytest.raises(ParseError):
        BoostedForest.load(path)


def test_metrics_hand_case():
    y_true = np.array(["A", "A", "B", "B", "B"])
    y_pred = np.array(["A", "B", "B", "B", "A"])
    m = classification_metrics(y_true, y_pred, ("A", "B"))
    assert m["A"]["precision"] == pytest.approx(0.5)
    assert m["A"]["recall"] == pytest.approx(0.5)
    assert m["B"]["precision"] == pytest.approx(2 / 3)
    assert m["B"]["recall"] == pytest.approx(2 / 3)
    assert m["A"]["support"] == 2 and m["B"]["support"] == 3
    assert macro_f1_score(y_true, y_pred, ("A", "B")) == pytest.approx(
        (0.5 + 2 / 3) / 2
    )


@pytest.mark.parametrize(
    "bad",
    [
        {"test_fraction": 1.0},
        {"test_fraction": 1.5},
        {"test_fraction": -0.5},
        {"test_fraction": float("nan")},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ],
)
def test_train_rejects_a_split_or_step_it_cannot_use(bad):
    X, y = synth_rows(30, seed=5)
    with pytest.raises(DataError, match="test fraction|learning rate"):
        train(X, y, n_rounds=2, **bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"reg_lambda": float("nan")}, "reg_lambda must be finite and >= 0, got nan"),
        ({"reg_lambda": float("inf")}, "reg_lambda must be finite and >= 0, got inf"),
        ({"reg_lambda": -1.0}, "reg_lambda must be finite and >= 0, got -1.0"),
        ({"min_child_weight": float("nan")}, "min_child_weight must be finite and >= 0, got nan"),
        ({"min_child_weight": -0.5}, "min_child_weight must be finite and >= 0, got -0.5"),
        ({"n_rounds": 0}, "at least one boosting round, got 0"),
        ({"n_rounds": -2}, "at least one boosting round, got -2"),
    ],
)
def test_train_rejects_regularization_or_rounds_it_cannot_use(bad, message):
    # NaN leaves and a null final loss once reached model.json and metrics.json
    X, y = synth_rows(30, seed=5)
    with pytest.raises(DataError, match=message):
        train(X, y, **{"n_rounds": 2, **bad})


def test_train_accepts_no_held_out_fraction():
    # a class of two or more rows still holds out one
    X, y = synth_rows(30, seed=5)
    res = train(X, y, n_rounds=2, test_fraction=0.0)
    assert (res.n_train, res.n_test) == (116, 4)


def test_decompose_report_shapes(tmp_path):
    X, y = synth_rows(60, seed=11)
    res = train(X, y, n_rounds=30, seed=2)
    g = DirectedGraph.from_edges(
        np.array([(0, 1), (0, 2), (3, 0), (3, 1), (4, 3)]), n_nodes=5
    )
    log = AdoptionLog(np.array([3, 1, 1, 5, 8]), last_day=9)
    rep = decompose(res.model, log, g, ShockSchedule.empty())
    assert len(rep.labels) == 5
    shares = rep.overall_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    rep.to_json(tmp_path / "report.json")
    written = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for day, props in written["daily_proportions"].items():
        assert sum(props.values()) == pytest.approx(1.0, abs=1e-9)
    counts = written["daily_counts"]
    assert sum(sum(v.values()) for v in counts.values()) == 5


def test_decompose_single_adopter_one_hot():
    X, y = synth_rows(40, seed=12)
    res = train(X, y, n_rounds=20, seed=3)
    g = DirectedGraph.from_edges(np.array([(0, 1)]), n_nodes=2)
    log = AdoptionLog(np.array([4, NEVER]), last_day=9)
    rep = decompose(res.model, log, g, ShockSchedule.empty())
    shares = rep.overall_shares()
    assert sorted(shares.values()) == [0.0, 0.0, 0.0, 1.0]


def test_decompose_empty_log_raises():
    X, y = synth_rows(10, seed=13)
    res = train(X, y, n_rounds=3, seed=0)
    g = DirectedGraph.from_edges(np.array([(0, 1)]), n_nodes=2)
    log = AdoptionLog(np.array([NEVER, NEVER]), last_day=3)
    with pytest.raises(DataError):
        decompose(res.model, log, g, ShockSchedule.empty())


# -- single-pass histograms against the per-feature loop ------------------------


def fit_tree_per_feature(B, edges, g, h, idx, depth, max_depth, mcw, lam, lr, deltas, nans):
    """The per-feature split search: two bincounts per feature per node."""
    G = float(g[idx].sum())
    H = float(h[idx].sum())

    def close_leaf():
        value = -lr * G / (H + lam)
        deltas[idx] = value
        return {"leaf": value}

    if depth >= max_depth or len(idx) < 2:
        return close_leaf()
    base = G * G / (H + lam)
    best_gain, best_f, best_b = MIN_SPLIT_GAIN, -1, -1
    for f in range(B.shape[1]):
        n_edges = len(edges[f])
        if n_edges == 0:
            continue
        GL = np.cumsum(np.bincount(B[idx, f], weights=g[idx], minlength=n_edges + 1))[:-1]
        HL = np.cumsum(np.bincount(B[idx, f], weights=h[idx], minlength=n_edges + 1))[:-1]
        GR, HR = G - GL, H - HL
        valid = (HL >= mcw) & (HR >= mcw)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - base)
        gains[~valid] = -np.inf
        nans[0] += int(np.isnan(gains).any())
        gains[np.isnan(gains)] = -np.inf  # an empty side's 0/0 rules out that bin only
        b = int(np.argmax(gains))
        if gains[b] > best_gain:
            best_gain, best_f, best_b = float(gains[b]), f, b
    if best_f < 0:
        return close_leaf()
    go_left = B[idx, best_f] <= best_b
    rest = (depth + 1, max_depth, mcw, lam, lr, deltas, nans)
    return {
        "feature": best_f,
        "threshold": float(edges[best_f][best_b]),
        "gain": best_gain,
        "left": fit_tree_per_feature(B, edges, g, h, idx[go_left], *rest),
        "right": fit_tree_per_feature(B, edges, g, h, idx[~go_left], *rest),
    }


def split_grid(X, max_bins=16):
    """Bin edges, bins, offset codes and past-the-edges mask, as `train` builds them."""
    edges = [_bin_edges(X[:, f], max_bins) for f in range(X.shape[1])]
    B = _binize(X, edges)
    n_edges = np.array([len(e) for e in edges])
    width = int(n_edges.max()) + 1
    codes = B + np.arange(X.shape[1], dtype=np.int64) * width
    beyond = np.arange(width) >= n_edges[:, None]
    return edges, B, codes, beyond


def node_hessians(tree, X, h, idx, out):
    """(hessian sum, split or not) of each node of a nested-dict tree, in preorder."""
    out.append((float(h[idx].sum()), "feature" in tree))
    if "feature" in tree:
        go_left = X[idx, tree["feature"]] <= tree["threshold"]
        node_hessians(tree["left"], X, h, idx[go_left], out)
        node_hessians(tree["right"], X, h, idx[~go_left], out)
    return out


SPLIT_CASES = ["float", "dyadic-unregularized", "tied-columns", "dyadic-floor", "all-constant",
               "constant-columns"]


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_single_pass_split_search_matches_per_feature_loop(case):
    rng = np.random.default_rng(SPLIT_CASES.index(case))
    n, d = 300, 6
    X = rng.integers(0, 12, size=(n, d)).astype(float)
    X[:, 2] = rng.normal(size=n)  # many distinct values: quantile edges
    X[:, 4] = 1.0  # constant: no edges
    if case == "tied-columns":
        X[:, 3] = X[:, 1]
    if case == "all-constant":
        X[:] = 2.0
    if case == "constant-columns":
        X[:, 0] = X[:, 3] = -1.0  # dead features first and between live ones
    if case.startswith("dyadic"):
        # exact sums: an empty side has H exactly 0 and its gain is 0/0, and a
        # node's H can sit exactly on the hessian floor 2 * mcw or just under it
        g = rng.integers(-8, 9, size=n) / 8.0
        h = rng.integers(1, 9, size=n) / 8.0
        mcw, lam = (0.0, 0.0) if case == "dyadic-unregularized" else (1.0, 1.0)
    else:
        g, h = rng.normal(size=n), rng.uniform(0.01, 0.25, size=n)
        mcw, lam = 1.0, 1.0
    max_depth = 8 if case == "dyadic-floor" else 5
    edges, B, codes, beyond = split_grid(X)
    idx = np.arange(n)
    want, got = np.zeros(n), np.zeros(n)
    nans = [0]
    ref = fit_tree_per_feature(B, edges, g, h, idx, 0, max_depth, mcw, lam, 0.1, want, nans)
    tree = _fit_tree(codes, beyond, edges, g, h, idx, 0, max_depth, mcw, lam, 0.1, got).as_dict()
    assert tree == ref
    assert np.array_equal(got, want)
    assert ("feature" in tree) == (case != "all-constant")
    if case == "dyadic-unregularized":
        assert nans[0] > 0
    if case == "dyadic-floor":
        nodes = node_hessians(ref, X, h, idx, [])
        assert any(H == 2 * mcw and split for H, split in nodes)
        assert any(2 * mcw - 0.125 <= H < 2 * mcw for H, _ in nodes)
    if case == "constant-columns":
        used = split_features(tree)
        assert 0 not in used and 3 not in used and used & {2, 5}


def split_features(tree):
    """The features a nested-dict tree splits on."""
    if "leaf" in tree:
        return set()
    return {tree["feature"]} | split_features(tree["left"]) | split_features(tree["right"])


def test_unregularized_node_splits_on_a_feature_with_empty_low_bins():
    # the node holds only rows with x0 >= 5, so x0's bins 0..4 are empty on
    # the left: with reg_lambda 0 their gains are 0/0, and x0 must still win
    rng = np.random.default_rng(8)
    X = np.column_stack([np.arange(200) % 10, rng.integers(0, 3, 200)]).astype(float)
    g = np.where(X[:, 0] >= 7, -1.0, 1.0)
    h = np.full(200, 0.5)
    edges, B, codes, beyond = split_grid(X)
    idx = np.flatnonzero(X[:, 0] >= 5)
    got, want = np.zeros(200), np.zeros(200)
    nans = [0]
    tree = _fit_tree(codes, beyond, edges, g, h, idx, 0, 1, 0.0, 0.0, 0.1, got).as_dict()
    ref = fit_tree_per_feature(B, edges, g, h, idx, 0, 1, 0.0, 0.0, 0.1, want, nans)
    assert nans[0] > 0
    assert (tree["feature"], tree["threshold"]) == (0, 6.0)
    assert tree == ref and np.array_equal(got, want)


def test_model_json_bytes_pinned(tmp_path):
    # any change to the split search, gain arithmetic or writer shows here
    X, y = synth_rows(40, seed=12)
    pins = {
        (): "60ca8985da1d66f2293f035fb7119781a7d1f4ce069abac9918b6b817e3f1a51",
        (("max_bins", 8), ("max_depth", 3)):
            "0887bd5e0c6effdd34650762da363e7a84b7272fc208978820c4bce0883518e4",
    }
    for kw, digest in pins.items():
        path = tmp_path / "model.json"
        train(X, y, n_rounds=12, seed=3, **dict(kw)).model.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_dead_features_keep_their_ids(tmp_path):
    # features 0 and 4 are constant, so only the others are binned; splits
    # on features after them must still name their own columns
    X, y = synth_rows(40, seed=12)
    X[:, 0], X[:, 4] = 3.0, -2.0
    model = train(X, y, n_rounds=12, seed=3).model
    used = {int(f) for r in model.trees for tree in r for f in tree.feature if f >= 0}
    assert used <= {1, 2, 3, 5, 6} and 5 in used
    path = tmp_path / "model.json"
    model.save(path)
    digest = "4a3312845f4a13941e0276d10ab1fdc91b49fa921fc4ddea9c59925805ee3ce7"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def route_rows(tree, X, i, idx, out):
    """Add each row's leaf value to `out`, gathering X[idx, feature] at each split."""
    if tree.feature[i] < 0:
        out[idx] += tree.value[i]
        return
    go_left = X[idx, tree.feature[i]] <= tree.threshold[i]
    route_rows(tree, X, i + 1, idx[go_left], out)
    route_rows(tree, X, tree.right[i], idx[~go_left], out)


def test_column_routing_matches_the_row_gather():
    X, y = synth_rows(40, seed=4)
    model = train(X, y, n_rounds=15, seed=2).model
    rng = np.random.default_rng(9)
    Q = X[rng.integers(0, len(X), 500)]  # rows on thresholds, repeated rows
    Q[::3] += rng.normal(scale=0.5, size=Q[::3].shape)
    F = np.zeros((len(Q), len(model.classes)))
    for r in model.trees:
        for k, tree in enumerate(r):
            route_rows(tree, Q, 0, np.arange(len(Q)), F[:, k])
    want = np.exp(_log_softmax(F))
    assert predict_proba(model, Q).tobytes() == want.tobytes()
    assert predict_proba(model, np.asfortranarray(Q)).tobytes() == want.tobytes()


# -- flat trees and their JSON ---------------------------------------------------

AWKWARD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf,
                     -math.inf]),
)
TREES = st.recursive(
    st.builds(lambda v: {"leaf": v}, AWKWARD),
    lambda sub: st.builds(
        lambda f, t, g, left, right: {"feature": f, "threshold": t, "gain": g,
                                      "left": left, "right": right},
        st.integers(0, len(FEATURE_NAMES) - 1), AWKWARD, AWKWARD, sub, sub,
    ),
    max_leaves=12,
)


def finite_rules(tree):
    if "leaf" in tree:
        return math.isfinite(tree["leaf"])
    return (math.isfinite(tree["threshold"]) and not math.isnan(tree["gain"])
            and finite_rules(tree["left"]) and finite_rules(tree["right"]))


# a NaN gain with a payload: JSON writes every NaN as NaN, so its bits cannot
# come back and load must reject it
PAYLOAD_NAN = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(TREES, min_size=2, max_size=2), min_size=1, max_size=3))
@example([[{"feature": 0, "threshold": 0.0, "gain": PAYLOAD_NAN,
            "left": {"leaf": 0.0}, "right": {"leaf": 0.0}}, {"leaf": 0.0}]])
def test_model_json_is_the_dumps_of_its_nested_dicts(tmp_path_factory, rounds):
    # save writes a round at a time the text json.dumps gives the nested
    # dicts; load gives back the same arrays, or rejects a non-finite rule
    model = BoostedForest(
        classes=("Simple", "Complex"), feature_names=FEATURE_NAMES,
        trees=[[Tree.from_dict(tree) for tree in r] for r in rounds], learning_rate=0.1,
        max_depth=6, min_child_weight=1.0, reg_lambda=0.0, seed=3, loss_curve=(0.5, -0.0),
    )
    path = tmp_path_factory.mktemp("m") / "model.json"
    model.save(path)
    payload = {"format": "contagion-lab-gbdt", "version": 1, "classes": ["Simple", "Complex"],
               "feature_names": list(FEATURE_NAMES), "learning_rate": 0.1, "max_depth": 6,
               "min_child_weight": 1.0, "reg_lambda": 0.0, "seed": 3, "loss_curve": [0.5, -0.0],
               "trees": rounds}
    assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"
    if not all(finite_rules(tree) for r in rounds for tree in r):
        with pytest.raises(ParseError, match="is not a (finite )?number"):
            BoostedForest.load(path)
        return
    back = BoostedForest.load(path)
    for r_back, r in zip(back.trees, model.trees, strict=True):
        for a, b in zip(r_back, r, strict=True):
            for name in Tree.__slots__:
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_trained_trees_are_preorder_arrays():
    X, y = synth_rows(30, seed=15)
    model = train(X, y, n_rounds=4, max_depth=4, seed=1).model
    for r in model.trees:
        for tree in r:
            assert Tree.from_dict(tree.as_dict()).as_dict() == tree.as_dict()
            split = tree.feature >= 0
            assert np.all(tree.right[split] > np.flatnonzero(split) + 1)
            assert np.all(tree.right[~split] == -1)


def test_trained_model_holds_under_80_bytes_per_tree_node():
    # five flat arrays a tree: 42 bytes per node held after training here
    # (48 with a sixth, left-child array), where a dict per node held 220
    rng = np.random.default_rng(14)
    X = rng.integers(0, 50, size=(2000, 7)).astype(float)
    y = np.array(["Simple", "Complex", "Spontaneous", "Shock"])[rng.integers(0, 4, 2000)]
    train(X, y, n_rounds=2, seed=0)  # warm: the first fit pays for imports
    tracemalloc.start()
    try:
        res = train(X, y, n_rounds=30, max_depth=6, seed=0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nodes = sum(len(tree) for r in res.model.trees for tree in r)
    assert nodes > 5000
    assert held / nodes <= 80


def test_report_events_write_peaks_a_chunk_above_the_tables(tmp_path):
    # the events are dumped 2^10 row objects at a time: the write peaks
    # 0.07 MiB above the report's own day tables (1.53 MiB) here, where a
    # 2^14-row chunk of objects peaked 13.6 MiB above them
    n = 2 * errors._CHUNK_ROWS + 5
    rng = np.random.default_rng(16)
    classes = ("Simple", "Complex", "Spontaneous", "Shock")
    p = rng.dirichlet(np.ones(4), n)
    report = DecompositionReport(nodes=np.arange(n), days=rng.integers(0, 150, n),
                                 labels=np.asarray(classes)[p.argmax(axis=1)],
                                 probabilities=p, classes=classes)
    path = tmp_path / "report.json"

    def peak(f):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    report.to_json(path)  # warm
    tables, write = peak(report._tables), peak(lambda: report.to_json(path))
    assert write - tables <= 64 * errors._CHUNK_ROWS
    written = json.loads(path.read_text(encoding="utf-8"))["events"]
    assert [e["probabilities"] for e in written] == p.tolist()
