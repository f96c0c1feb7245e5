"""Command-line pipeline: one entry point per processing stage.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 numeric
non-convergence. Every successful run writes a manifest (config echo,
package versions, the input and output files it was given, no timestamps)
next to its first output, so identical invocations produce byte-identical
artifacts. Each command is declared once, in `build_parser`: its handler
and its flags, a file flag typed `_In` or `_Out` so that the manifest can
list it.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

import numpy as np
import scipy

from . import __version__
from .calibrate import (
    DEFAULT_ACTIVITY_MEAN,
    AdoptionLog,
    MechanismParams,
    assign_from_pools,
    calibrate_activity,
    calibrate_background,
    calibrate_thresholds,
    calibrate_transmission,
    eve_counts,
)
from .cascade import (
    DEFAULT_HORIZON_DAYS,
    DEFAULT_STOP_FRACTION,
    dedup_events,
    events_to_log,
    read_events,
    run_ensemble,
    run_realization,  # unused: bench/tracing.py wraps cli.run_realization (span cascade.replay)
    write_events,
)
from .errors import ConvergenceError, DataError, ParseError
from .errors import read_json, write_csv, write_json
from .features import (
    events_feature_matrix,
    extract_features_log,
    read_feature_csv,
    write_feature_csv,
)
from .matchlab import (
    DIRECTIONS,
    CovariateTable,
    Dose,
    PlaceboFuture,
    Timing,
    build_panel,
    diagnostics,
    fit_propensity,
    match_all_days,
    naive_risk_table,
    permute_within_day,
    pool_risk_ratio,
    write_pairs,
)
from .mechclass import (
    BoostedForest,
    class_labels,
    decompose,
    macro_f1_score,
    predict_proba,
    train,
)
from .netgraph import DirectedGraph, load_edge_list, read_node_csv, save_id_map
from .shocks import AdoptionSeries, ShockSchedule, detect_shocks, fit_power_law, shock_day_mask
from .structtest import DEGREE_KINDS, degree_order_test
from .synthgen import SynthConfig, gen_graph, gen_traits

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


class _In(str):
    """The type of a file flag the run reads: its manifest lists it as an input."""


class _Out(str):
    """The type of a file flag the run writes: its manifest lists it as an output."""


def _write_manifest(args, sp, summary) -> None:
    """The run's manifest, beside its first output; it lists the file flags
    given, in flag order."""
    files = {_In: [], _Out: []}
    for action in sp._actions:
        path = getattr(args, action.dest, None)
        if action.type in files and path:
            files[action.type].append(str(path))
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "config") and not k.startswith("_")
    }
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": files[_In],
        "outputs": files[_Out],
        "summary": summary,
        "versions": {
            "contagion-lab": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "scipy": scipy.__version__,
        },
    }
    _write_json(manifest, f"{files[_Out][0]}.manifest.json")


def _require(sp, args, *names):
    for name in names:
        if getattr(args, name) is None:
            sp.error(f"--{name.replace('_', '-')} is required")


def _info(args, message):
    if args.verbose:
        print(message, file=sys.stderr)


def _load_schedule(path) -> ShockSchedule:
    return ShockSchedule.from_json(path) if path else ShockSchedule.empty()


def _write_json(payload, path) -> None:
    write_json(path, payload, indent=2, sort_keys=True)


def _graph_and_log(args) -> tuple[DirectedGraph, AdoptionLog]:
    """The --graph cache and the --log adoption log over --first-day..--last-day."""
    g = DirectedGraph.load(args.graph)
    return g, AdoptionLog.from_csv(args.log, g, first_day=args.first_day, last_day=args.last_day)


def _graph_and_log_flags(sp):
    """The flags `_graph_and_log` reads."""
    sp.add_argument("--graph", type=_In, help="graph cache (.npz)")
    sp.add_argument("--log", type=_In, help="adoption log CSV")
    sp.add_argument("--first-day", type=int, default=0)
    sp.add_argument("--last-day", type=int, default=None)


# --------------------------------------------------------------------- stages

def cmd_ingest(args, sp):
    _require(sp, args, "edges", "out")
    g = load_edge_list(args.edges)
    g.save(args.out)
    if args.id_map:
        save_id_map(g, args.id_map)
    rep = g.load_report
    return {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "records": rep.records if rep else None,
        "duplicates": rep.duplicates if rep else None,
        "self_loops": rep.self_loops if rep else None,
    }


def cmd_synth(args, sp):
    _require(sp, args, "nodes", "out")
    cfg = SynthConfig(
        n_nodes=args.nodes,
        mean_degree=args.mean_degree,
        exponent=args.exponent,
        homophily=args.homophily,
        trait_balance=args.trait_balance,
        seed=args.seed,
    )
    trait = gen_traits(cfg)
    g = gen_graph(cfg, trait)
    g.save(args.out)
    if args.traits:
        write_csv(args.traits, ("node", "trait"), (g.node_ids, trait))
    return {"nodes": g.node_count, "edges": g.edge_count}


def _params_for_simulate(args, g) -> MechanismParams:
    if args.params:
        params = MechanismParams.from_json(args.params)
        if params.n_nodes != g.node_count:
            raise DataError(
                f"params cover {params.n_nodes} nodes but the graph has {g.node_count}"
            )
        return params
    n = g.node_count
    return MechanismParams(
        beta=np.full(n, args.beta),
        phi=np.full(n, args.phi),
        r=args.r,
        activity=np.full(n, args.activity),
        shock_schedule=_load_schedule(args.shocks),
        shock_prob_at_peak=args.shock_prob,
    )


def cmd_simulate(args, sp):
    _require(sp, args, "graph", "out")
    g = DirectedGraph.load(args.graph)
    params = _params_for_simulate(args, g)
    n_jobs = (os.cpu_count() or 1) if args.threads is None else max(1, args.threads)
    _info(args, f"running {args.realizations} realizations on {n_jobs} workers")
    result = run_ensemble(
        g,
        params,
        n_realizations=args.realizations,
        seed0=args.seed,
        stop_fraction=args.stop_fraction,
        horizon_days=args.horizon,
        seeds=args.seed_nodes,
        n_jobs=n_jobs,
    )
    write_events(result.events, args.out)
    if args.log_out:
        log = events_to_log(result.first_realization, g.node_count, last_day=args.horizon - 1)
        log.to_csv(args.log_out, g)
    return {
        "realizations": args.realizations,
        "events": len(result.events),
        "mechanisms": result.counts_after,
        "mechanisms_before_dedup": result.counts_before,
    }


def _shock_ranges(d) -> list:
    """The (first, last) day pairs of a detect-shocks ranges JSON."""
    ranges = [tuple(r) for r in d["ranges"]]
    if not all(len(r) == 2 and all(type(x) is int for x in r) for r in ranges):
        raise ValueError("ranges must be [first, last] integer pairs")
    return ranges


def cmd_calibrate(args, sp):
    _require(sp, args, "graph", "log", "out")
    if not 0 < args.activity_mean <= 1:  # NaN fails too
        raise DataError(f"activity mean must lie in (0, 1], got {args.activity_mean}")
    g, log = _graph_and_log(args)
    if args.shock_ranges:
        ranges = read_json(args.shock_ranges, _shock_ranges)
        mask = shock_day_mask(log.horizon_days, ranges)
        log = AdoptionLog(log.adoption_day, log.first_day, log.last_day, shock_mask=mask)
    eve = eve_counts(g, log)
    beta = calibrate_transmission(g, log, eve)
    phi = calibrate_thresholds(g, log, eve)
    r = calibrate_background(g, log, eve)
    if args.activity_posts:
        counts = np.zeros(g.node_count)

        def posting(field):
            count = float(field)
            if not 0 <= count < np.inf:
                raise ValueError(f"posting count {field!r} is not finite and >= 0")
            return count

        nodes, values = read_node_csv(args.activity_posts, g, "count", posting, unique=False)
        counts[nodes] = values
        activity = calibrate_activity(counts, args.activity_mean)
    else:
        activity = np.full(g.node_count, args.activity_mean)
    payload = {
        "beta": {"values": [float(x) for x in beta.values], **beta.summary()},
        "phi": {"values": [float(x) for x in phi.values], **phi.summary()},
        "r": r,
        "activity_mean": float(np.mean(activity)),
    }
    if args.params_out:
        params = assign_from_pools(
            g.node_count,
            beta.values,
            phi.values,
            r,
            activity,
            shock_schedule=_load_schedule(args.shocks),
            shock_prob_at_peak=args.shock_prob,
            seed=args.seed,
        )
        params.to_json(args.params_out)
    _write_json(payload, args.out)
    return {
        "beta_n": beta.n,
        "beta_mean": beta.mean,
        "phi_n": phi.n,
        "phi_mean": phi.mean,
        "r": r,
    }


def cmd_features(args, sp):
    _require(sp, args, "graph", "log", "out")
    g, log = _graph_and_log(args)
    schedule = _load_schedule(args.shocks)
    nodes, X = extract_features_log(g, log, schedule)
    write_feature_csv(X, args.out)
    return {"rows": int(len(nodes))}


def cmd_train(args, sp):
    _require(sp, args, "out")
    if bool(args.events) == bool(args.features):
        sp.error("exactly one of --events or --features is required")
    if args.events:
        events = read_events(args.events)
        if not args.no_dedup:
            events = dedup_events(events)
        X, y = events_feature_matrix(events)
    else:
        X, y = read_feature_csv(args.features)
        if y is None:
            raise DataError("training features must include a label column")
    result = train(
        X,
        y,
        learning_rate=args.learning_rate,
        max_depth=args.depth,
        n_rounds=args.rounds,
        min_child_weight=args.min_child_weight,
        reg_lambda=args.reg_lambda,
        max_bins=args.max_bins,
        test_fraction=args.test_fraction,
        seed=args.seed,
    )
    result.model.save(args.out)
    metrics = {
        "macro_f1": result.macro_f1,
        "per_class": result.per_class,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "final_loss": result.model.loss_curve[-1],
    }
    if args.metrics_out:
        _write_json(metrics, args.metrics_out)
    print(f"held-out macro-F1 {result.macro_f1:.4f} ({result.n_test} test rows)")
    return {"macro_f1": result.macro_f1, "n_train": result.n_train, "n_test": result.n_test}


def cmd_classify(args, sp):
    _require(sp, args, "model", "features", "out")
    model = BoostedForest.load(args.model)
    X, labels = read_feature_csv(args.features)
    probs = predict_proba(model, X)
    pred = class_labels(model, probs)
    header = ["row", "label"] + [f"p_{c}" for c in model.classes]
    write_csv(args.out, header, (range(len(pred)), pred, *probs.T))
    summary = {
        "rows": int(len(pred)),
        "predicted": {c: int(np.sum(pred == c)) for c in model.classes},
    }
    if labels is not None:
        summary["macro_f1"] = macro_f1_score(labels, pred, model.classes)
    return summary


def cmd_decompose(args, sp):
    _require(sp, args, "model", "graph", "log", "out")
    model = BoostedForest.load(args.model)
    g, log = _graph_and_log(args)
    schedule = _load_schedule(args.shocks)
    report = decompose(model, log, g, schedule)
    report.to_json(args.out)
    return {"shares": report.overall_shares()}


def cmd_degree_order_test(args, sp):
    _require(sp, args, "graph", "log", "out")
    g, log = _graph_and_log(args)
    result = degree_order_test(g, log, degree_kind=args.degree)
    _write_json(result.to_dict(), args.out)
    return result.to_dict()


def cmd_detect_shocks(args, sp):
    _require(sp, args, "series", "out")
    series = AdoptionSeries.from_csv(args.series)
    ranges = detect_shocks(
        series, min_count=args.min_count, window=args.window, z=args.z
    )
    _write_json({"ranges": [[int(a), int(b)] for a, b in ranges]}, args.out)
    return {"n_ranges": len(ranges)}


def cmd_fit_shock(args, sp):
    _require(sp, args, "series", "peaks", "out")
    series = AdoptionSeries.from_csv(args.series)
    counts = series.counts
    taus = sorted(args.peaks)
    fits = []
    for i, tau in enumerate(taus):
        end = taus[i + 1] if i + 1 < len(taus) else len(counts)
        fit = fit_power_law(counts[:end], peak=tau, min_points=args.min_points)
        fits.append(fit)
    schedule = ShockSchedule.from_peaks(
        taus, [counts[t] for t in taus], [f.alpha for f in fits]
    )
    schedule.to_json(args.out)
    fit_payload = [
        {
            "tau": int(tau),
            "alpha": f.alpha,
            "gamma": f.gamma,
            "r_squared": f.r_squared,
            "iterations": f.iterations,
            "n_points": f.n_points,
        }
        for tau, f in zip(taus, fits)
    ]
    if args.fits_out:
        _write_json(fit_payload, args.fits_out)
    return {"bursts": len(taus)}


def cmd_match(args, sp):
    _require(sp, args, "graph", "log", "out_pairs", "out_risk")
    if args.kind == "timing" and args.d is None:
        sp.error("--d is required for --kind timing")
    if args.kind == "dose" and args.d is not None:
        sp.error("--d applies only to --kind timing; dose has a fixed 7-day window")
    if args.placebo == "future":
        if args.kind != "timing":
            sp.error("--placebo future requires --kind timing")
        kind = PlaceboFuture(d=args.d, direction=args.direction)
    elif args.kind == "timing":
        kind = Timing(d=args.d, direction=args.direction)
    else:
        kind = Dose(direction=args.direction)
    g, log = _graph_and_log(args)
    panel = build_panel(CovariateTable(g, log, lag=args.lag), kind)
    if args.placebo == "permute":
        panel = permute_within_day(panel, args.seed)
    model = fit_propensity(panel, min_level_rows=args.min_level_rows)
    run = match_all_days(panel, model, caliper_mult=args.caliper)
    table = pool_risk_ratio(run.pairs)
    # each file holds the run pooled over its levels, then each level's own
    name = panel.levels
    runs = {k: run.at(k) for k in sorted({r.level for r in run.results})}
    tables = {k: pool_risk_ratio(r.pairs) for k, r in runs.items() if len(r.pairs)}
    write_pairs(run.pairs, name, args.out_pairs)
    risk = {name[k]: t.to_dict() for k, t in tables.items()}
    write_json(args.out_risk, {**table.to_dict(), "levels": risk}, indent=2)
    if args.out_diagnostics:
        diag = {name[k]: diagnostics(r) for k, r in runs.items()}
        _write_json({**diagnostics(run), "levels": diag}, args.out_diagnostics)
    return {
        "kind": panel.kind_label,
        "panel_rows": panel.n_rows,
        "propensity_iterations": model.iterations,
        "propensity_step_halvings": model.step_halvings,
        "propensity_groups": len(model.probs),
        "n_pairs": len(run.pairs),
        "n_days_skipped": len(run.skipped),
        "n_days_skipped_by_reason": dict(
            collections.Counter(r.skip_reason for r in run.skipped)
        ),
        "rr": table.rr,
        "ci": [table.ci_low, table.ci_high],
        "levels": {
            name[k]: {
                "rr": t.rr,
                "ci": [t.ci_low, t.ci_high],
                "naive_rr": naive_risk_table(panel, level=k).rr,
            }
            for k, t in tables.items()
        },
    }


def _manifest(d) -> tuple[dict, list]:
    """A manifest and its output paths."""
    if not isinstance(d, dict):
        raise TypeError("a manifest is a JSON object")
    return d, [os.fspath(out) for out in d.get("outputs", [])]


def cmd_report(args, sp):
    _require(sp, args, "dir", "out")
    if not os.path.isdir(args.dir):
        raise DataError(f"not a directory: {args.dir}")
    runs = []
    missing = []
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".manifest.json"):
            continue
        manifest, outputs = read_json(os.path.join(args.dir, name), _manifest)
        checked = []
        for out in outputs:
            cand = out if os.path.isabs(out) else os.path.join(args.dir, os.path.basename(out))
            path = out if os.path.exists(out) else cand
            ok = os.path.exists(path) and os.path.getsize(path) > 0
            checked.append({"path": out, "ok": ok})
            if not ok:
                missing.append(out)
        runs.append(
            {
                "manifest": name,
                "command": manifest.get("command"),
                "summary": manifest.get("summary"),
                "outputs": checked,
            }
        )
    _write_json({"runs": runs, "missing": missing}, args.out)
    if missing:
        print(f"warning: {len(missing)} referenced outputs missing or empty", file=sys.stderr)
    return {"n_runs": len(runs), "n_missing": len(missing)}


# --------------------------------------------------------------------- parser

def _command(subs, name, handler, help):
    """Subcommand `name`, run as `handler(args, sp)`, with the flags every
    command takes."""
    sp = subs.add_parser(name, help=help)
    sp.set_defaults(_handler=handler)
    sp.add_argument("--config", help="flat JSON file of flag defaults; flags win")
    sp.add_argument("--verbose", action="store_true", help="progress messages on stderr")
    return sp


def build_parser():
    """The parser and its subcommands' parsers by name."""
    parser = _Parser(prog="contagion-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"contagion-lab {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    sp = _command(subs, "ingest", cmd_ingest, "edge CSV to graph cache")
    sp.add_argument("--edges", type=_In, help="edge list CSV with header source,target")
    sp.add_argument("--out", type=_Out, help="graph cache (.npz)")
    sp.add_argument("--id-map", type=_Out, help="optional node id map CSV")

    sp = _command(subs, "synth", cmd_synth, "generate a synthetic graph")
    sp.add_argument("--nodes", type=int)
    sp.add_argument("--mean-degree", type=float, default=5.0)
    sp.add_argument("--exponent", type=float, default=2.5)
    sp.add_argument(
        "--homophily",
        type=float,
        default=0.0,
        help="h in [0, 1]: cross-trait followees get weight 1-h; sampled in O(edges)",
    )
    sp.add_argument("--trait-balance", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=_Out, help="graph cache (.npz)")
    sp.add_argument("--traits", type=_Out, help="optional trait CSV")

    sp = _command(subs, "simulate", cmd_simulate, "run cascade realizations")
    sp.add_argument("--graph", type=_In, help="graph cache (.npz)")
    sp.add_argument("--params", type=_In, help="mechanism parameter JSON; overrides inline values")
    sp.add_argument("--beta", type=float, default=0.089)
    sp.add_argument("--phi", type=float, default=0.146)
    sp.add_argument("--r", type=float, default=60e-6)
    sp.add_argument("--activity", type=float, default=0.032)
    sp.add_argument("--shocks", type=_In, help="shock schedule JSON")
    sp.add_argument("--shock-prob", type=float, default=0.0)
    sp.add_argument("--realizations", type=int, default=100)
    sp.add_argument("--stop-fraction", type=float, default=DEFAULT_STOP_FRACTION)
    sp.add_argument("--horizon", type=int, default=DEFAULT_HORIZON_DAYS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--seed-nodes", type=int, default=1)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", type=_Out, help="events JSONL")
    sp.add_argument("--log-out", type=_Out, help="adoption log CSV of realization 0")

    sp = _command(subs, "calibrate", cmd_calibrate, "fit pools from a log")
    _graph_and_log_flags(sp)
    sp.add_argument("--shock-ranges", type=_In, help="detect-shocks output JSON to mask")
    sp.add_argument("--activity-posts", type=_In, help="per-node posting CSV (node,count)")
    sp.add_argument("--activity-mean", type=float, default=DEFAULT_ACTIVITY_MEAN)
    sp.add_argument("--out", type=_Out, help="calibration JSON")
    sp.add_argument("--params-out", type=_Out, help="optional per-node parameter JSON")
    sp.add_argument("--shocks", type=_In, help="shock schedule JSON for the parameter file")
    sp.add_argument("--shock-prob", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)

    sp = _command(subs, "features", cmd_features, "egocentric feature matrix")
    _graph_and_log_flags(sp)
    sp.add_argument("--shocks", type=_In, help="shock schedule JSON")
    sp.add_argument("--out", type=_Out, help="feature CSV")

    sp = _command(subs, "train", cmd_train, "fit the mechanism classifier")
    sp.add_argument("--events", type=_In, help="events JSONL from simulate")
    sp.add_argument("--features", type=_In, help="labeled feature CSV")
    sp.add_argument("--no-dedup", action="store_true", help="skip event deduplication")
    sp.add_argument("--rounds", type=int, default=300)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--learning-rate", type=float, default=0.1)
    sp.add_argument("--min-child-weight", type=float, default=1.0)
    sp.add_argument("--reg-lambda", type=float, default=1.0)
    sp.add_argument("--max-bins", type=int, default=256)
    sp.add_argument("--test-fraction", type=float, default=0.2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=_Out, help="model JSON")
    sp.add_argument("--metrics-out", type=_Out, help="held-out metrics JSON")

    sp = _command(subs, "classify", cmd_classify, "label feature rows")
    sp.add_argument("--model", type=_In, help="model JSON")
    sp.add_argument("--features", type=_In, help="feature CSV")
    sp.add_argument("--out", type=_Out, help="prediction CSV")

    sp = _command(subs, "decompose", cmd_decompose, "mechanism mix of a log")
    sp.add_argument("--model", type=_In, help="model JSON")
    _graph_and_log_flags(sp)
    sp.add_argument("--shocks", type=_In, help="shock schedule JSON")
    sp.add_argument("--out", type=_Out, help="decomposition JSON")

    sp = _command(subs, "degree-order-test", cmd_degree_order_test,
                  "degree vs adoption-order rank correlation")
    _graph_and_log_flags(sp)
    sp.add_argument("--degree", choices=DEGREE_KINDS, default="in")
    sp.add_argument("--out", type=_Out, help="result JSON")

    sp = _command(subs, "detect-shocks", cmd_detect_shocks,
                  "flag burst days in a daily count series")
    sp.add_argument("--series", type=_In, help="CSV with header day,count")
    sp.add_argument("--min-count", type=int, default=150)
    sp.add_argument("--window", type=int, default=30)
    sp.add_argument("--z", type=float, default=3.0)
    sp.add_argument("--out", type=_Out, help="ranges JSON")

    sp = _command(subs, "fit-shock", cmd_fit_shock, "fit decay exponents at given peaks")
    sp.add_argument("--series", type=_In, help="CSV with header day,count")
    sp.add_argument("--peaks", type=_int_list, help="comma-separated peak days")
    sp.add_argument("--min-points", type=int, default=3)
    sp.add_argument("--out", type=_Out, help="shock schedule JSON")
    sp.add_argument("--fits-out", type=_Out, help="per-burst fit diagnostics JSON")

    sp = _command(subs, "match", cmd_match, "matched-sample risk ratios")
    _graph_and_log_flags(sp)
    sp.add_argument("--kind", choices=("timing", "dose"), default="timing")
    sp.add_argument("--d", type=int, help="timing window length in days (1..6)")
    sp.add_argument("--direction", choices=DIRECTIONS, default="followee")
    sp.add_argument("--placebo", choices=("none", "future", "permute"), default="none")
    sp.add_argument("--lag", type=int, default=7,
                    help="covariate measurement lag in days; the covariates must predate the "
                         "treatment window, so timing needs lag > d and dose lag >= 8")
    sp.add_argument("--caliper", type=float, default=0.1)
    sp.add_argument("--min-level-rows", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0, help="read only by --placebo permute")
    sp.add_argument("--out-pairs", type=_Out, help="matched pairs CSV")
    sp.add_argument("--out-risk", type=_Out, help="pooled risk table JSON")
    sp.add_argument("--out-diagnostics", type=_Out, help="balance diagnostics JSON")

    sp = _command(subs, "report", cmd_report, "audit manifests in a directory")
    sp.add_argument("--dir", type=_In, help="directory containing *.manifest.json files")
    sp.add_argument("--out", type=_Out, help="report JSON")

    return parser, subs.choices


def _flat_object(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise TypeError("config file must hold a flat JSON object")
    return cfg


# the JSON values, beside a string, that a config file may give a flag of a type
_CONFIG_JSON = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    _int_list: ((list,), "a list of integers"),
}


def _config_value(action, value):
    """A config file's `value` for the flag `action`, checked as the flag's
    own value would be: a switch takes true or false; null leaves a flag
    unset where its default does; a string goes through the flag's type,
    and any other JSON value must be one of that type's; the flag's choices
    apply to the result."""
    if action.nargs == 0:  # a switch
        expected, name = (bool,), "true or false"
    elif value is None and action.default is None:
        return value
    else:
        expected, name = _CONFIG_JSON.get(action.type, ((), "a string"))
        expected += (str,)
    if type(value) not in expected or (
        isinstance(value, list) and not all(type(x) is int for x in value)
    ):
        raise ValueError(f"{value!r} is not {name}")
    if isinstance(value, str) and action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {', '.join(action.choices)}")
    return value


def _apply_config(sp, path):
    cfg = read_json(path, _flat_object)
    actions = {a.dest: a for a in sp._actions}
    defaults = {}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            sp.error(f"unknown config key: {key}")
        try:
            defaults[dest] = _config_value(actions[dest], value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
            raise ParseError(f"bad value for config key {key!r}: {e}", path=str(path)) from e
    sp.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("contagion-lab: error: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        sp = commands[args.command]
        if args.config:
            _apply_config(sp, args.config)
            args = parser.parse_args(argv)
        _write_manifest(args, sp, args._handler(args, sp))
        return EXIT_OK
    except SystemExit as e:
        return 0 if e.code is None else int(e.code)
    except (DataError, ParseError) as e:
        print(f"contagion-lab: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as e:
        print(f"contagion-lab: error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as e:
        print(f"contagion-lab: error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
