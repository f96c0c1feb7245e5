"""The three workloads: CLI steps, their sizes, and the inputs set-up writes.

readme  the README's five steps verbatim (4,000 nodes, 50 realizations on a
        2-worker pool, 100 training rounds)
scale   the same five steps at 100,000 nodes with a 3-burst shock schedule,
        4 serial realizations and 30 rounds
match   one timing-design `match` call on a 5,000-node homophily world whose
        graph and log set-up generates

`tiny` shrinks every size so the tests can run all three through the same code.
"""

from __future__ import annotations

WORKLOADS = ("readme", "scale", "match")

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SHOCK_SCHEDULE = [
    {"tau": 8, "gamma": 1.0, "alpha": 0.679},
    {"tau": 16, "gamma": 0.0011, "alpha": 0.5},
    {"tau": 60, "gamma": 0.335, "alpha": 0.626},
]
SHOCK_PROB = "0.06"

MATCH_WORLD = {
    "mean_degree": 12.0,
    "exponent": 2.3,
    "homophily": 0.8,
    "rates": [0.004, 0.001],  # daily adoption rate for trait 0 and trait 1
    "days": 120,
}

_SIZES = {
    "readme": {"nodes": 4000, "realizations": 50, "horizon": 150, "rounds": 100, "threads": 2},
    "scale": {"nodes": 100000, "realizations": 4, "horizon": 150, "rounds": 30, "threads": 1},
    "match": {"nodes": 5000},
}
_TINY = {
    "readme": {"nodes": 300, "realizations": 3, "horizon": 40, "rounds": 3, "threads": 2},
    "scale": {"nodes": 600, "realizations": 2, "horizon": 40, "rounds": 3, "threads": 1},
    "match": {"nodes": 1500},
}


def pin_environment(environ) -> None:
    """Pin BLAS threads and drop CONTAGION_LAB_THREADS, which overrides --threads."""
    environ.pop("CONTAGION_LAB_THREADS", None)
    environ.update(BLAS_PINS)


def sizes(workload: str, tiny: bool = False) -> dict:
    return (_TINY if tiny else _SIZES)[workload]


def inputs(workload: str) -> tuple[str, ...]:
    """Files set-up writes and every repetition starts from."""
    return {"readme": (), "scale": ("shocks.json",), "match": ("graph.npz", "log.csv")}[workload]


def steps(workload: str, seed: int, tiny: bool = False, serial: bool = False):
    """(step name, CLI argv) pairs in order; `serial` forces --threads 1."""
    s = sizes(workload, tiny)
    seed = str(seed)
    if workload == "match":
        return [("match", [
            "match", "--graph", "graph.npz", "--log", "log.csv", "--kind", "timing",
            "--d", "3", "--lag", "7", "--last-day", str(MATCH_WORLD["days"] - 1),
            "--seed", seed, "--out-pairs", "pairs.csv", "--out-risk", "risk.json",
            "--out-diagnostics", "diagnostics.json",
        ])]
    shocks = workload == "scale"
    threads = "1" if serial else str(s["threads"])
    simulate = [
        "simulate", "--graph", "graph.npz", "--beta", "0.2", "--phi", "0.3", "--r", "0.001",
        "--activity", "0.4", "--realizations", str(s["realizations"]),
        "--horizon", str(s["horizon"]), "--seed", seed, "--out", "events.jsonl",
        "--log-out", "log.csv", "--threads", threads,
    ]
    calibrate = ["calibrate", "--graph", "graph.npz", "--log", "log.csv", "--out", "pools.json"]
    decompose = [
        "decompose", "--graph", "graph.npz", "--log", "log.csv", "--model", "model.json",
        "--out", "report.json",
    ]
    if shocks:
        simulate += ["--shocks", "shocks.json", "--shock-prob", SHOCK_PROB]
        calibrate += ["--params-out", "params.json", "--shocks", "shocks.json",
                      "--shock-prob", SHOCK_PROB, "--seed", seed]
        decompose += ["--shocks", "shocks.json"]
    return [
        ("synth", ["synth", "--nodes", str(s["nodes"]), "--mean-degree", "18",
                   "--exponent", "2.05", "--seed", seed, "--out", "graph.npz"]),
        ("simulate", simulate),
        ("calibrate", calibrate),
        ("train", ["train", "--events", "events.jsonl", "--rounds", str(s["rounds"]),
                   "--out", "model.json", "--metrics-out", "metrics.json"]),
        ("decompose", decompose),
    ]
