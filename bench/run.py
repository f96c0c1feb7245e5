"""contagion-lab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload readme|scale|match --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured through the CLI;
with --trace 1 they are the per-layer ones, from a serial in-process run with
spans around the package's public functions. The line before it is the full
record (every step time, quality figures, digests, environment), which is also
written to .bench_run/results/. Exit code 0 when every output check passed,
1 when one failed, 2 when the checkout holds no contagion_lab package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_run"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep repeating the pipeline until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every size (for tests)")
    p.add_argument("--work", default=str(WORK), help="scratch and results directory")
    return p.parse_args(argv)


def import_package():
    """Import contagion_lab from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "contagion_lab" / "__init__.py").is_file():
        print(f"bench: no contagion_lab package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import contagion_lab

    pkg = Path(contagion_lab.__file__).resolve().parent
    if pkg.parent != src.resolve():
        print(f"bench: contagion_lab resolved to {pkg}, not this checkout", file=sys.stderr)
        raise SystemExit(2)
    return pkg.parent


def end_to_end(setup_times, reps) -> tuple[dict, dict]:
    """The gated metrics (every workload has them) and the per-step detail."""
    from harness import median

    metrics = {
        "wall_s": (median([r.wall_s for r in reps]), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (median([r.peak_rss_mb for r in reps]), "MB"),
    }
    detail = {f"{step}_s": median([r.steps[step].wall_s for r in reps]) for step in reps[0].steps}
    detail["cpu_s"] = median([r.cpu_s for r in reps])
    detail.update(reps[0].quality)
    detail["repetitions"] = len(reps)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workloads.pin_environment(os.environ)  # before numpy loads, for the traced run
    src_dir = import_package()
    import harness

    run = harness.Run(args.workload, args.seed, src_dir, args.work, tiny=args.tiny)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        setup_times = run.setup()
        metrics, detail = {}, {}
        if not run.problems:
            if args.trace:
                metrics, untraced = run.traced()
                reps = [untraced]
            else:
                reps = run.repetitions(args.seconds)
            if not run.problems:
                e2e, detail = end_to_end(setup_times, reps)
                metrics = metrics or e2e
                record["digests"] = reps[0].digests
        record.update(
            detail=detail,
            steps={s: argv for s, argv in workloads.steps(
                args.workload, args.seed, args.tiny, serial=bool(args.trace))},
            environment={**run.environment,
                         "git_commit": harness.git_commit(ROOT), "tiny": args.tiny},
            problems=run.problems,
        )
    finally:
        run.cleanup()
    correct = not run.problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed or (0 if correct else 1),
        "metrics": metrics,
    }
    record["result"] = result
    results = Path(args.work) / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
