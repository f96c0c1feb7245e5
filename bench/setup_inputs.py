"""Set-up child: import the checkout's package and write one workload's inputs.

Usage: python3 setup_inputs.py WORKLOAD SEED OUT_DIR [--tiny]

Runs in a fresh interpreter with the same environment as the CLI children,
so its wall time includes the package import every workload pays before it
can start. It writes `env.json` (the versions the children will use) and the
workload's generated inputs: nothing for readme, the shock schedule for scale,
and the homophily graph plus trait-driven adoption log for match.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np
import scipy

import contagion_lab
import contagion_lab.cli  # noqa: F401  (set-up pays the same import as each CLI start)
from contagion_lab.synthgen import SynthConfig, gen_graph, gen_homophily_adoptions, gen_traits

from workloads import MATCH_WORLD, SHOCK_SCHEDULE, sizes


def _openblas_version() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "contagion_lab": contagion_lab.__version__,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "CONTAGION_LAB_THREADS")
        },
    }


def write_inputs(workload: str, seed: int, out: str, tiny: bool) -> None:
    if workload == "scale":
        with open(os.path.join(out, "shocks.json"), "w", encoding="utf-8") as fh:
            json.dump(SHOCK_SCHEDULE, fh, indent=2)
            fh.write("\n")
    elif workload == "match":
        size = sizes(workload, tiny)
        w = MATCH_WORLD
        cfg = SynthConfig(
            n_nodes=size["nodes"],
            mean_degree=w["mean_degree"],
            exponent=w["exponent"],
            homophily=w["homophily"],
            seed=seed,
        )
        trait = gen_traits(cfg)
        g = gen_graph(cfg, trait)
        g.save(os.path.join(out, "graph.npz"))
        log = gen_homophily_adoptions(g, trait, np.array(w["rates"]), w["days"], seed=seed)
        log.to_csv(os.path.join(out, "log.csv"), g)


def main(argv) -> int:
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    tiny = "--tiny" in argv[3:]
    write_inputs(workload, seed, out, tiny)
    with open(os.path.join(out, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(environment(), fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
