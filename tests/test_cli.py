"""Exit codes, manifests, config handling, and pipeline smoke runs."""

import csv
import hashlib
import io
import json
import os
import pickle
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import contagion_lab
from contagion_lab import cli, matchlab
from contagion_lab.calibrate import AdoptionLog
from contagion_lab.errors import ConvergenceError
from contagion_lab.netgraph import DirectedGraph
from contagion_lab.shocks import AdoptionSeries, ShockSchedule


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def manifest(out_path):
    with open(f"{out_path}.manifest.json") as fh:
        return json.load(fh)


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    # one small graph + ensemble shared by the read-only smoke tests
    d = tmp_path_factory.mktemp("world")
    g = d / "g.npz"
    ev = d / "events.jsonl"
    log = d / "log.csv"
    assert run(["synth", "--nodes", 600, "--mean-degree", 6, "--seed", 7,
                "--out", g]) == 0
    assert run(["simulate", "--graph", g, "--beta", 0.15, "--phi", 0.12,
                "--r", 6e-4, "--activity", 0.5, "--realizations", 8,
                "--horizon", 90, "--seed", 3, "--seed-nodes", 2,
                "--threads", 1, "--out", ev, "--log-out", log]) == 0
    return {"dir": d, "graph": g, "events": ev, "log": log}


@pytest.fixture(scope="module")
def hworld(tmp_path_factory):
    # trait-driven adoptions spread over enough days for lag-7 matching
    from contagion_lab.synthgen import gen_homophily_adoptions

    d = tmp_path_factory.mktemp("hworld")
    g = d / "g.npz"
    log = d / "log.csv"
    traits = d / "traits.csv"
    assert run(["synth", "--nodes", 400, "--mean-degree", 8, "--homophily", 0.9,
                "--seed", 4, "--out", g, "--traits", traits]) == 0
    graph = DirectedGraph.load(g)
    trait = np.array([int(r[1]) for r in list(csv.reader(open(traits)))[1:]])
    gen_homophily_adoptions(graph, trait, (0.02, 0.002), 50, seed=9).to_csv(log, graph)
    return {"graph": g, "log": log}


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def fresh_python(code):
    """The stripped stdout of `code` run in a new interpreter that imports
    this checkout's package."""
    env = dict(os.environ)
    pkg_root = str(Path(contagion_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_loads_no_scipy_stats_or_special():
    # every CLI step pays its import; scipy.stats alone costs about 1 s
    code = ("import sys, contagion_lab.cli; "
            "print(sorted(m for m in ('scipy', 'scipy.stats', 'scipy.special') "
            "if m in sys.modules))")
    assert fresh_python(code) == "['scipy']"


def test_cli_import_loads_no_multiprocessing():
    # only a realization pool needs it; every other CLI start would pay 3-7 ms
    code = "import sys, contagion_lab.cli; print('multiprocessing' in sys.modules)"
    assert fresh_python(code) == "False"


def test_package_import_loads_no_submodule():
    # names are imported from their modules; the package re-exports none
    code = ("import sys, contagion_lab; "
            "print(sorted(m for m in sys.modules if m.startswith('contagion_lab.')))")
    assert fresh_python(code) == "[]"


def test_engine_import_loads_no_later_stage():
    code = ("import sys, contagion_lab.cascade; "
            "print([m for m in ('matchlab', 'mechclass', 'synthgen', 'structtest', 'cli') "
            "if 'contagion_lab.' + m in sys.modules])")
    assert fresh_python(code) == "[]"


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0
    assert "contagion-lab" in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    assert run([]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["synth", "--bogus", "1"]) == 1
    capsys.readouterr()


def test_missing_required_flag_names_it(tmp_path, capsys):
    assert run(["simulate", "--out", tmp_path / "ev.jsonl"]) == 1
    assert "--graph" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = run(["ingest", "--edges", tmp_path / "nope.csv", "--out", tmp_path / "g.npz"])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()


def test_bad_edge_header_is_data_error(tmp_path, capsys):
    bad = tmp_path / "edges.csv"
    bad.write_text("from,to\na,b\n")
    assert run(["ingest", "--edges", bad, "--out", tmp_path / "g.npz"]) == 2
    capsys.readouterr()


def test_convergence_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    def boom(args, sp):
        raise ConvergenceError("did not settle", iterations=50)

    monkeypatch.setattr(cli, "cmd_report", boom)
    assert run(["report", "--dir", tmp_path, "--out", tmp_path / "r.json"]) == 3
    assert "did not settle" in capsys.readouterr().err


def test_synth_writes_graph_and_manifest(tmp_path):
    out = tmp_path / "g.npz"
    assert run(["synth", "--nodes", 200, "--seed", 1, "--out", out]) == 0
    g = DirectedGraph.load(out)
    assert g.node_count == 200
    m = manifest(out)
    assert m["command"] == "synth"
    assert m["config"]["nodes"] == 200
    assert m["config"]["seed"] == 1
    assert set(m["versions"]) >= {"contagion-lab", "numpy", "python"}
    assert "timestamp" not in json.dumps(m).lower()


def test_graph_cache_is_written_to_the_path_given(tmp_path, capsys):
    # a cache path without .npz once became g.npz while the manifest named g
    g = tmp_path / "g"
    assert run(["synth", "--nodes", 100, "--seed", 2, "--out", g]) == 0
    assert sorted(os.listdir(tmp_path)) == ["g", "g.manifest.json"]
    assert run(["simulate", "--graph", g, "--realizations", 2, "--horizon", 10,
                "--threads", 1, "--out", tmp_path / "ev.jsonl"]) == 0
    assert run(["report", "--dir", tmp_path, "--out", tmp_path / "report.json"]) == 0
    assert "missing" not in capsys.readouterr().err
    report = json.load(open(tmp_path / "report.json"))
    assert report["missing"] == [] and len(report["runs"]) == 2


def test_pipeline_smoke(tmp_path, capsys):
    """synth -> simulate -> train -> decompose on a 1,000-node world."""
    g = tmp_path / "g.npz"
    ev = tmp_path / "ev.jsonl"
    log = tmp_path / "log.csv"
    model = tmp_path / "model.json"
    dec = tmp_path / "decomp.json"
    for argv in (
        ["synth", "--nodes", 1000, "--mean-degree", 6, "--seed", 7, "--out", g],
        ["simulate", "--graph", g, "--beta", 0.15, "--phi", 0.12, "--r", 6e-4,
         "--activity", 0.5, "--realizations", 10, "--horizon", 120,
         "--seed", 3, "--seed-nodes", 2, "--threads", 1,
         "--out", ev, "--log-out", log],
        ["train", "--events", ev, "--rounds", 40, "--depth", 4, "--seed", 1,
         "--out", model],
        ["decompose", "--model", model, "--graph", g, "--log", log, "--out", dec],
    ):
        assert run(argv) == 0, argv[0]
    assert "macro-F1" in capsys.readouterr().out
    # every manifest-listed output exists and is non-empty
    for out in (g, ev, model, dec):
        for path in manifest(out)["outputs"]:
            assert os.path.getsize(path) > 0, path
    shares = json.load(open(dec))["overall_shares"]
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_rerun_is_byte_identical(tmp_path):
    g = tmp_path / "g.npz"
    ev = tmp_path / "ev.jsonl"
    argvs = (
        ["synth", "--nodes", 300, "--mean-degree", 5, "--seed", 11, "--out", g],
        ["simulate", "--graph", g, "--beta", 0.2, "--r", 1e-3, "--activity", 0.6,
         "--realizations", 5, "--horizon", 60, "--seed", 5, "--threads", 1,
         "--seed-nodes", 1, "--out", ev],
    )
    for argv in argvs:
        assert run(argv) == 0
    first = {p: sha(p) for p in
             (g, ev, f"{g}.manifest.json", f"{ev}.manifest.json")}
    for argv in argvs:
        assert run(argv) == 0
    for p, h in first.items():
        assert sha(p) == h, p


def test_simulate_outputs_pinned(world):
    # rerun identity compares the code with itself; these digests pin the bytes
    assert sha(world["events"]) == (
        "145273f3907d025b247b340012d3e154be38eefc23e940c9408727e935dfb4c5")
    assert sha(world["log"]) == (
        "eef299ede4f5cdef1fc79f8d7a1db0be9bb885573deccea835bcb7de72c87c87")


def _shock_series(path):
    # two noiseless power-law bursts, peaks on days 40 and 110
    counts = np.ones(160)
    for (height, alpha), lo, hi in zip(((700.0, 0.55), (400.0, 0.8)), (40, 110), (110, 160)):
        counts[lo:hi] = height * (np.arange(hi - lo) + 1.0) ** -alpha
    AdoptionSeries(np.round(counts)).to_csv(path)


# every text output of every subcommand, manifests included; the inputs are
# copied into the working directory so that every recorded path is relative
TEXT_OUTPUT_RUNS = {
    "world": [
        ["detect-shocks", "--series", "series.csv", "--out", "ranges.json"],
        ["fit-shock", "--series", "series.csv", "--peaks", "40,110",
         "--out", "schedule.json", "--fits-out", "fits.json"],
        ["calibrate", "--graph", "g.npz", "--log", "log.csv", "--shock-ranges", "ranges.json",
         "--out", "pools.json", "--params-out", "params.json", "--shocks", "schedule.json",
         "--shock-prob", 0.3, "--seed", 2],
        ["simulate", "--graph", "g.npz", "--params", "params.json", "--realizations", 2,
         "--horizon", 30, "--seed", 1, "--threads", 1, "--out", "sim.jsonl",
         "--log-out", "sim_log.csv"],
        ["train", "--events", "events.jsonl", "--rounds", 20, "--depth", 3, "--seed", 0,
         "--out", "model.json", "--metrics-out", "metrics.json"],
        ["features", "--graph", "g.npz", "--log", "log.csv", "--shocks", "schedule.json",
         "--out", "features.csv"],
        ["classify", "--model", "model.json", "--features", "features.csv",
         "--out", "labels.csv"],
        ["decompose", "--model", "model.json", "--graph", "g.npz", "--log", "log.csv",
         "--shocks", "schedule.json", "--out", "report.json"],
        ["degree-order-test", "--graph", "g.npz", "--log", "log.csv", "--out", "order.json"],
        ["ingest", "--edges", "edges.csv", "--out", "g2.npz", "--id-map", "ids.csv"],
        ["synth", "--nodes", 50, "--homophily", 0.5, "--seed", 3, "--out", "s.npz",
         "--traits", "traits.csv"],
        ["report", "--dir", ".", "--out", "audit.json"],
    ],
    "hworld": [
        ["match", "--graph", "g.npz", "--log", "log.csv", "--kind", "timing", "--d", 3,
         "--min-level-rows", 5, "--out-pairs", "pairs.csv", "--out-risk", "risk.json",
         "--out-diagnostics", "diagnostics.json"],
        ["match", "--graph", "g.npz", "--log", "log.csv", "--kind", "dose", "--lag", 8,
         "--direction", "mutual", "--min-level-rows", 5, "--out-pairs", "dose_pairs.csv",
         "--out-risk", "dose_risk.json"],
        ["match", "--graph", "g.npz", "--log", "log.csv", "--kind", "timing", "--d", 3,
         "--placebo", "permute", "--seed", 5, "--min-level-rows", 5,
         "--out-pairs", "permute_pairs.csv", "--out-risk", "permute_risk.json",
         "--out-diagnostics", "permute_diagnostics.json"],
        ["match", "--graph", "g.npz", "--log", "log.csv", "--kind", "timing", "--d", 3,
         "--placebo", "future", "--min-level-rows", 5,
         "--out-pairs", "future_pairs.csv", "--out-risk", "future_risk.json",
         "--out-diagnostics", "future_diagnostics.json"],
        ["report", "--dir", ".", "--out", "audit.json"],
    ],
}
TEXT_OUTPUT_SHA256 = {
    "world": {
        "audit.json":
            "ccdb536f8b1ef45ba9d2309d6491fbd9a8bedb75cc17571817ba73b7e7fd8993",
        "audit.json.manifest.json":
            "14735196cf3deef0a9141586da8b9539b7bb01123ea1f55724998e1a76bc63ab",
        "edges.csv":
            "7979d568b0029bc69359e85d36b1578d953ba6b9894258d2f654921644624257",
        "features.csv":
            "16cf274e25cc0679af4e5fcf65bb45442a1d98897f1d294511b14a814157e0da",
        "features.csv.manifest.json":
            "89762b9557c4529e593e596faa6ed8721aacbe711a1344dd90cd1a77b5f54fab",
        "fits.json":
            "1c01f8cc0557eccb5be91db5ad241afe063da29ee625ee97b6df7c2ff0a8497d",
        "g2.npz.manifest.json":
            "4a2b7955177bb4c1dd9849aa7dc9b6a4c55c48d3e3901e65bb67232278c620bf",
        "ids.csv":
            "c4e58133a8e5c5523ecd163fa963641aaa6fd2c4eb0757b9d1989de39630d32c",
        "labels.csv":
            "6032bb99e8e54d500271309e3cbabbbd3de7fdb361c5ca6b88cb2ba788fa39a8",
        "labels.csv.manifest.json":
            "130d4932c07abc02ffe27363f06980af6bb3739704ee8891a8dad86b9c2e86b2",
        "metrics.json":
            "a07df5352629d02a772aad35d03f331d418edf7101a28042aac9fc86ad841ee1",
        "model.json":
            "506bc6f5f303f1c4ee6d646ed072afb19516c914c2092a0acfd87778e6d3d908",
        "model.json.manifest.json":
            "339b115c55b5233a4a30b1983ff9a9c74d52c7c4f8b376f26564b12e33a75a77",
        "order.json":
            "34f6ddfaff22fd756b4051b1b1932ba2d9894cac76f3c4ba0489f32a48bbcc31",
        "order.json.manifest.json":
            "db5ef1ff53e5a220e1fc00e2ce36613ec191e670d558dfdc89fbfdf3bb8eeecb",
        "params.json":
            "2f625fca9cce269ef8ad912e71a19f1918702360a46c1613db5191aa52be251c",
        "pools.json":
            "96a5bb137e7bfe982feee1c036c4287aab55e5553c0424ccaf6eeb9fbffd25a5",
        "pools.json.manifest.json":
            "2ea10613e3eaca0d0ea57849942883133dbdedafc193d6ff537154ff6a52315f",
        "ranges.json":
            "bc4fbabad96fed99ea58655a36d39dcabc57c35bf6f53d9aabfd62b9b0214c0b",
        "ranges.json.manifest.json":
            "7544a178d65671ef3a603133347d5f6c307230e3a67adc95271dc15be313c736",
        "report.json":
            "02d24ea1e487408a9c297da9d165461dc183d2fef4cf55ac96276c1f76cee8fd",
        "report.json.manifest.json":
            "300dc54317905a3122c1310f70ab9d8a134d324ef95bee18746f6cb4fbd7d2e9",
        "s.npz.manifest.json":
            "91fd08f7c864400739b598d1b19708cdbc4b15b1e4affb29f32af06440a0c8d6",
        "schedule.json":
            "8168eb6b137e18b2251588100015afd3d9bb65dd311473c0c13fcfe2d0c6d2cd",
        "schedule.json.manifest.json":
            "4afcdfd13da3d1cd03e324154df2419a5c84f6893fa4c30f37c91e4d21d94748",
        "series.csv":
            "a40abb3f6099dd3f1302a8d173486fecb6f843669b1c842870b1872b32429cbe",
        "sim.jsonl":
            "9e71b9d6fd73f103492820c486504f53fdb199ccb63ce3814575fb881788ac72",
        "sim.jsonl.manifest.json":
            "1d2392645f7436d1fa1abbf74de739102d709fb4b16b3cf107bf9fa1614e9fd9",
        "sim_log.csv":
            "951ad3dbc41d408c6ced83fd66f02e1c4bb52d6a7fde25ebe05e18c9458330c1",
        "traits.csv":
            "d968fdf90476a356db8be8ccc55259c0d11da87a185de33797336eedcd35a5d5",
    },
    "hworld": {
        "audit.json":
            "03a1ba3cf40481c7bca6b7bf1030894b4cb47752ca3b70cc3abf4d0e6f2d9d63",
        "audit.json.manifest.json":
            "435efa0170c2123507f068d84fd5b28dd3454ee126005b26f21e383febbeb16e",
        "diagnostics.json":
            "c13021a2d5ed853dea50c47eb21a504102ec6e62282dfdd3d2ffd3e3eac4784f",
        "dose_pairs.csv":
            "7e3b834bbe6c141c8f5aa2e30ab9fbbd2804475cdb3a74f7a508b9b30cc1e065",
        "dose_pairs.csv.manifest.json":
            "e513e8415f7b4442094044f37ae2d38326dfe5b964d1f9c23e6b9024a630c4ee",
        "dose_risk.json":
            "fc953e84468388aefb59a68353bb4f3f097b58183903a173f000e97292c49fa9",
        "edges.csv":
            "72a5fc033ddb92025a83c582f21bb58231a64c2171c77355058b9b6f001f8906",
        "future_diagnostics.json":
            "4b86789fab8689a5491be26c62786d3834f4251df2ca3ff5e4830c333885cfb4",
        "future_pairs.csv":
            "bb8a80a44bae4bae9dfb0f4892a74fed182f1964eee7430397a60bf89f90aef9",
        "future_pairs.csv.manifest.json":
            "a8970ec1306e182415cd16b954c934e4ad09a422237215e206b2812df62caa5f",
        "future_risk.json":
            "0825a91ee88087159418b5054b4d246a8c0d4ad6fe52a653d5e968793e1175a8",
        "pairs.csv":
            "a40c6919080d9fb17ef4acef9e28edbafb2cc1e845873e02b0f94c7c3041f81b",
        "pairs.csv.manifest.json":
            "277c45e2d9b0d1cd028fd357555fd3e94b0be68d20120d9eba0ce864ac2eaeaf",
        "permute_diagnostics.json":
            "a123c3cebf2bc546f95a3e2e61c1b047ed29b028603bbf96d2e714b513898d41",
        "permute_pairs.csv":
            "f5e7b802f90afa835f10ca3311cc19fd5291b8b6fa5de8f92c3df8eeec775a39",
        "permute_pairs.csv.manifest.json":
            "1ce4788916223607955c1278e818ede9c87d689d441a0fd3297e402556b83a38",
        "permute_risk.json":
            "09ca75e87c31c08f29dfbd904cee8a40238bd129626ef9945d12ac55e46d1001",
        "risk.json":
            "dae05a95e1fdced1fc25295f35c72bfc8440364a42dfd1ad72cfe55a69a1a4ad",
        "series.csv":
            "a40abb3f6099dd3f1302a8d173486fecb6f843669b1c842870b1872b32429cbe",
    },
}


def _pinned_bytes(path):
    # a manifest echoes the running numpy, scipy and python versions; they
    # are masked so that the pin holds across environments
    data = Path(path).read_bytes()
    if path.endswith(".manifest.json"):
        for name, version in (("numpy", np.__version__), ("scipy", scipy.__version__),
                              ("python", "%d.%d.%d" % sys.version_info[:3])):
            data = data.replace(f'"{name}": "{version}"'.encode(), f'"{name}": "*"'.encode())
    return data


@pytest.mark.parametrize("case", sorted(TEXT_OUTPUT_RUNS))
def test_text_outputs_pinned(case, request, tmp_path, monkeypatch, capsys):
    # the bytes of every text file the CLI writes, pinned before any writer moved
    fixture = request.getfixturevalue(case)
    monkeypatch.chdir(tmp_path)
    for name in ("graph", "log", "events"):
        if name in fixture:
            Path(fixture[name].name).write_bytes(fixture[name].read_bytes())
    inputs = set(os.listdir("."))
    _shock_series("series.csv")
    from tests.test_netgraph import save_edge_list

    save_edge_list(DirectedGraph.load("g.npz"), "edges.csv")
    for argv in TEXT_OUTPUT_RUNS[case]:
        assert run(argv) == 0, argv
    capsys.readouterr()
    written = sorted(set(os.listdir(".")) - inputs)
    digests = {name: hashlib.sha256(_pinned_bytes(name)).hexdigest()
               for name in written if not name.endswith(".npz")}
    assert digests == TEXT_OUTPUT_SHA256[case]


def test_thread_count_does_not_change_results(world, tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    base = ["simulate", "--graph", world["graph"], "--beta", 0.2, "--r", 1e-3,
            "--activity", 0.6, "--realizations", 6, "--horizon", 40,
            "--seed", 9, "--seed-nodes", 1]
    assert run(base + ["--threads", 1, "--out", out1]) == 0
    assert run(base + ["--threads", 2, "--out", out2]) == 0
    assert sha(out1) == sha(out2)


def test_config_file_supplies_defaults_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "g.npz"
    cfg.write_text(json.dumps(
        {"nodes": 300, "mean_degree": 4.0, "seed": 5, "out": str(out)}))
    assert run(["synth", "--config", cfg]) == 0
    assert DirectedGraph.load(out).node_count == 300
    assert run(["synth", "--config", cfg, "--nodes", 150]) == 0
    assert DirectedGraph.load(out).node_count == 150
    assert manifest(out)["config"]["nodes"] == 150


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nodes": 10, "color": "red"}))
    assert run(["synth", "--config", cfg, "--out", tmp_path / "g.npz"]) == 1
    assert "color" in capsys.readouterr().err


def test_config_bad_value_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nodes": "abc"}))
    assert run(["synth", "--config", cfg, "--out", tmp_path / "g.npz"]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "nodes" in err


def test_config_json_values_keep_their_meaning(tmp_path):
    # a JSON list for --peaks and a JSON int for a float flag mean what the flags do
    series = tmp_path / "series.csv"
    _shock_series(series)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"peaks": [40, 110], "min_points": 3, "verbose": True}))
    by_flags, by_config = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["fit-shock", "--series", series, "--peaks", "40,110", "--out", by_flags]) == 0
    assert run(["fit-shock", "--config", cfg, "--series", series, "--out", by_config]) == 0
    assert sha(by_flags) == sha(by_config)
    cfg.write_text(json.dumps({"nodes": 60, "mean_degree": 4, "homophily": "0.5"}))
    assert run(["synth", "--config", cfg, "--out", tmp_path / "g.npz"]) == 0
    assert manifest(tmp_path / "g.npz")["config"]["mean_degree"] == 4


def test_every_command_declares_a_handler_and_an_output():
    _, commands = cli.build_parser()
    assert len(commands) == 13
    for name, sp in commands.items():
        assert callable(sp.get_default("_handler")), name
        assert any(a.type is cli._Out for a in sp._actions), name


def test_simulate_manifest_lists_its_shock_schedule(world, tmp_path):
    # the inline parameters read --shocks; the manifest once left it out
    schedule = tmp_path / "schedule.json"
    ShockSchedule.from_peaks([5], [40.0], [0.6]).to_json(schedule)
    out = tmp_path / "ev.jsonl"
    assert run(["simulate", "--graph", world["graph"], "--shocks", schedule,
                "--shock-prob", 0.2, "--realizations", 2, "--horizon", 20,
                "--threads", 1, "--out", out]) == 0
    assert manifest(out)["inputs"] == [str(world["graph"]), str(schedule)]


def test_manifest_lists_file_flags_given_by_config(world, tmp_path):
    out, log_out = tmp_path / "ev.jsonl", tmp_path / "log.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": str(world["graph"]), "log-out": str(log_out),
                               "realizations": 2, "horizon": 20, "threads": 1}))
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    m = manifest(out)
    assert m["inputs"] == [str(world["graph"])]
    assert m["outputs"] == [str(out), str(log_out)]
    assert m["config"]["log_out"] == str(log_out)


def test_train_requires_exactly_one_source(world, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["train", "--out", out]) == 1
    assert run(["train", "--events", world["events"],
                "--features", tmp_path / "f.csv", "--out", out]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("count", [601, -1])
def test_simulate_bad_seed_count_is_data_error(world, tmp_path, capsys, count):
    assert run(["simulate", "--graph", world["graph"], "--seed-nodes", count,
                "--realizations", 1, "--horizon", 5, "--threads", 1,
                "--out", tmp_path / "e.jsonl"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("exponent", ["nan", "inf"])
def test_synth_bad_exponent_is_data_error(tmp_path, capsys, exponent):
    out = tmp_path / "g.npz"
    assert run(["synth", "--nodes", 50, "--exponent", exponent, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"tail exponent must be finite and exceed 1, got {exponent}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--horizon", 0], "horizon must be at least 1 day, got 0"),
        (["--horizon", -2], "horizon must be at least 1 day, got -2"),
        (["--stop-fraction", "nan"], "stop fraction must be > 0, got nan"),
        (["--stop-fraction", -0.5], "stop fraction must be > 0, got -0.5"),
    ],
)
def test_simulate_bad_horizon_or_stop_is_data_error(world, tmp_path, capsys, flags, message):
    # an empty horizon once wrote events.jsonl, then failed with no manifest
    out = tmp_path / "out"
    out.mkdir()
    assert run(["simulate", "--graph", world["graph"], "--seed-nodes", 2,
                "--realizations", 1, "--threads", 1, *flags,
                "--out", out / "e.jsonl", "--log-out", out / "log.csv"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--reg-lambda", "nan"], "reg_lambda must be finite and >= 0, got nan"),
        (["--reg-lambda", -1], "reg_lambda must be finite and >= 0, got -1.0"),
        (["--min-child-weight", "nan"], "min_child_weight must be finite and >= 0, got nan"),
        (["--min-child-weight", -1], "min_child_weight must be finite and >= 0, got -1.0"),
        (["--rounds", 0], "need at least one boosting round, got 0"),
    ],
)
def test_train_bad_regularization_or_rounds_is_data_error(world, tmp_path, capsys, flags,
                                                          message):
    # NaN leaves once reached model.json, and "final_loss": NaN metrics.json
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--events", world["events"], "--rounds", 2, *flags,
                "--out", out / "m.json", "--metrics-out", out / "metrics.json"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d.update(features=d["features"][:5]),
        lambda d: d.update(mechanism="Viral"),
        lambda d: d.update(fired=["Simple", "Viral"]),
        lambda d: d.update(node=10**23),
        lambda d: d.update(features=[10**400] + d["features"][1:]),
        lambda d: d.update(mechanism="Shock", fired=["Simple"], day=-5, node=-3),
        lambda d: d.update(node=-3),
        lambda d: d.update(day=-5),
    ],
    ids=["five features", "unknown mechanism", "unknown fired", "node past int64",
         "feature past float", "edited record", "negative node", "negative day"],
)
def test_train_malformed_events_is_parse_error(world, tmp_path, capsys, change):
    lines = open(world["events"]).read().splitlines()
    bad = json.loads(lines[1])
    change(bad)
    lines[1] = json.dumps(bad)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    assert run(["train", "--events", events, "--rounds", 2,
                "--out", tmp_path / "m.json"]) == 2
    assert f"{events}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [b"{not json", b'{"node": "\xff"}', b"[1, 2]"])
def test_train_events_errors_count_blank_lines(world, tmp_path, capsys, bad):
    # the table is filled a line at a time; the blank line 2 still counts,
    # so the bad record is on line 5
    lines = open(world["events"], "rb").read().splitlines()
    events = tmp_path / "events.jsonl"
    events.write_bytes(b"\n".join(lines[:1] + [b""] + lines[1:3] + [bad] + lines[3:]) + b"\n")
    assert run(["train", "--events", events, "--rounds", 2,
                "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert f"{events}:5:" in err and "Traceback" not in err


def test_classify_output_shape(world, tmp_path, capsys):
    model = tmp_path / "m.json"
    feats = tmp_path / "f.csv"
    labels = tmp_path / "lab.csv"
    assert run(["train", "--events", world["events"], "--rounds", 20,
                "--depth", 3, "--seed", 0, "--out", model]) == 0
    assert run(["features", "--graph", world["graph"], "--log", world["log"],
                "--out", feats]) == 0
    assert run(["classify", "--model", model, "--features", feats,
                "--out", labels]) == 0
    capsys.readouterr()
    rows = list(csv.reader(open(labels)))
    assert rows[0][:2] == ["row", "label"]
    classes = [h[2:] for h in rows[0][2:]]
    assert all(h.startswith("p_") for h in rows[0][2:])
    for row in rows[1:]:
        p = np.array([float(x) for x in row[2:]])
        assert abs(p.sum() - 1.0) < 1e-9
        assert row[1] == classes[int(np.argmax(p))]


FEATURE_HEADER = ("m,k,saturation,exposure_duration,influence_recency,"
                  "shock_intensity,shock_recency")


def _model(*trees):
    return {"format": "contagion-lab-gbdt", "version": 1, "classes": ["a", "b"],
            "feature_names": FEATURE_HEADER.split(","), "trees": list(trees),
            "learning_rate": 0.1, "max_depth": 3, "min_child_weight": 1.0,
            "reg_lambda": 1.0, "seed": 0}


SPLIT = {"feature": 0, "threshold": 0.5, "gain": 1.0,
         "left": {"leaf": 0.1}, "right": {"leaf": -0.1}}


@pytest.mark.parametrize(
    "payload",
    [
        ["not", "an", "object"],
        {"format": "contagion-lab-gbdt", "version": 1},  # no fields at all
        {"format": "contagion-lab-gbdt", "version": 1, "classes": ["a"],
         "feature_names": [], "trees": [], "learning_rate": "fast",
         "max_depth": 3, "min_child_weight": 1.0, "reg_lambda": 1.0, "seed": 0},
        _model([{k: v for k, v in SPLIT.items() if k != "threshold"}, {"leaf": 0.0}]),
        _model([{**SPLIT, "feature": 99}, {"leaf": 0.0}]),
        _model([{**SPLIT, "gain": "high"}, {"leaf": 0.0}]),
        _model([{k: v for k, v in SPLIT.items() if k != "gain"}, {"leaf": 0.0}]),
        _model([{"leaf": 0.0}]),  # one tree for two classes
    ],
)
def test_classify_malformed_model_is_data_error(tmp_path, capsys, payload):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(payload))
    feats = tmp_path / "f.csv"
    feats.write_text(f"{FEATURE_HEADER}\n1,2,0.5,1,1,0,-1\n")
    assert run(["classify", "--model", model, "--features", feats,
                "--out", tmp_path / "lab.csv"]) == 2
    assert str(model) in capsys.readouterr().err


def test_classify_accepts_a_well_formed_hand_model(tmp_path, capsys):
    # the hand-made malformed models above differ from this one only by their defect
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_model([SPLIT, {"leaf": 0.0}])))
    feats = tmp_path / "f.csv"
    feats.write_text(f"{FEATURE_HEADER}\n0,2,0.5,1,1,0,-1\n1,2,0.5,1,1,0,-1\n")
    out = tmp_path / "lab.csv"
    assert run(["classify", "--model", model, "--features", feats, "--out", out]) == 0
    capsys.readouterr()
    assert [row[1] for row in csv.reader(open(out))][1:] == ["a", "b"]


def test_classify_writes_utf8_under_an_ascii_locale(tmp_path):
    # the label file is UTF-8 whatever the locale's encoding
    model = tmp_path / "m.json"
    payload = _model([SPLIT, {"leaf": 0.0}])
    payload["classes"] = ["\u00e9veil", "b"]
    model.write_text(json.dumps(payload))
    feats = tmp_path / "f.csv"
    feats.write_text(f"{FEATURE_HEADER}\n0,2,0.5,1,1,0,-1\n1,2,0.5,1,1,0,-1\n")
    out = tmp_path / "lab.csv"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    pkg_root = str(Path(contagion_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "contagion_lab", "classify", "--model",
                           str(model), "--features", str(feats), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(open(out, encoding="utf-8")))
    assert rows[0][2:] == ["p_\u00e9veil", "p_b"]
    assert [row[1] for row in rows[1:]] == ["\u00e9veil", "b"]


def test_detect_then_fit_shock(tmp_path):
    # noiseless piecewise decay: each burst owns the days up to the next peak
    n_days, taus, bursts = 160, (40, 110), ((700.0, 0.55), (400.0, 0.8))
    counts = np.ones(n_days)
    edges = list(taus) + [n_days]
    for (height, alpha), lo, hi in zip(bursts, edges, edges[1:]):
        t = np.arange(lo, hi, dtype=float)
        counts[lo:hi] = height * (t - lo + 1.0) ** -alpha
    series = tmp_path / "series.csv"
    with open(series, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "count"])
        for i, c in enumerate(counts):
            w.writerow([i, int(round(c))])
    ranges_out = tmp_path / "ranges.json"
    assert run(["detect-shocks", "--series", series, "--out", ranges_out]) == 0
    ranges = json.load(open(ranges_out))["ranges"]
    assert any(lo <= 40 <= hi for lo, hi in ranges)
    assert any(lo <= 110 <= hi for lo, hi in ranges)

    sched_out = tmp_path / "sched.json"
    fits_out = tmp_path / "fits.json"
    assert run(["fit-shock", "--series", series, "--peaks", "40,110",
                "--out", sched_out, "--fits-out", fits_out]) == 0
    fits = json.load(open(fits_out))
    assert abs(fits[0]["alpha"] - 0.55) < 0.02
    assert abs(fits[1]["alpha"] - 0.80) < 0.02
    sched = json.load(open(sched_out))
    assert max(b["gamma"] for b in sched) == 1.0
    assert [b["tau"] for b in sched] == [40, 110]


def test_degree_order_test_rejects_bad_choice(world, tmp_path, capsys):
    rc = run(["degree-order-test", "--graph", world["graph"], "--log", world["log"],
              "--degree", "sideways", "--out", tmp_path / "d.json"])
    assert rc == 1
    capsys.readouterr()


def test_degree_order_test_smoke(world, tmp_path):
    out = tmp_path / "d.json"
    assert run(["degree-order-test", "--graph", world["graph"],
                "--log", world["log"], "--out", out]) == 0
    res = json.load(open(out))
    assert set(res) >= {"rho", "p_value", "n", "degree_kind"}
    assert -1.0 <= res["rho"] <= 1.0


def test_match_flag_validation(hworld, tmp_path, capsys):
    common = ["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--out-pairs", tmp_path / "p.csv", "--out-risk", tmp_path / "r.json"]
    assert run(common + ["--kind", "timing"]) == 1        # missing --d
    assert run(common + ["--kind", "dose", "--placebo", "future"]) == 1
    assert run(common + ["--kind", "timing", "--d", 3, "--level", "0"]) == 1
    assert run(common + ["--kind", "timing", "--d", 3, "--shortlist", 5]) == 1
    capsys.readouterr()


def test_match_level_is_checked_before_the_work(hworld, tmp_path, monkeypatch, capsys):
    # a --d the dose design would ignore fails before any table is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the covariate table was built")

    monkeypatch.setattr(cli, "CovariateTable", unreachable)
    common = ["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--out-pairs", tmp_path / "p.csv", "--out-risk", tmp_path / "r.json"]
    for flags, message in (
        (["--kind", "dose", "--lag", 8, "--d", 3],
         "--d applies only to --kind timing; dose has a fixed 7-day window"),
    ):
        assert run(common + flags) == 1, flags
        assert message in capsys.readouterr().err, flags
    assert not (tmp_path / "p.csv").exists()


def test_match_newton_cap_exits_three(hworld, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(matchlab, "NEWTON_MAX_ITER", 1)
    rc = run(["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--kind", "timing", "--d", 3, "--min-level-rows", 5,
              "--out-pairs", tmp_path / "p.csv", "--out-risk", tmp_path / "r.json"])
    assert rc == 3
    assert "propensity fit did not converge" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_match_smoke_outputs(hworld, tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    risk = tmp_path / "risk.json"
    diag = tmp_path / "diag.json"
    rc = run(["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--kind", "timing", "--d", 3, "--min-level-rows", 5,
              "--out-pairs", pairs, "--out-risk", risk,
              "--out-diagnostics", diag])
    assert rc == 0
    capsys.readouterr()
    header = next(csv.reader(open(pairs)))
    assert header == ["level", "day", "treated", "control", "logit_gap", "mahalanobis"]
    r = json.load(open(risk))
    assert set(r) >= {"a", "b", "c", "d", "rr", "ci_low", "ci_high"}
    dg = json.load(open(diag))
    assert set(dg) >= {"n_pairs", "auc_median", "overlap_median"}
    m = manifest(pairs)
    assert str(risk) in m["outputs"]
    assert m["summary"]["n_days_skipped_by_reason"] == {}
    assert m["summary"]["n_days_skipped"] == 0
    assert type(m["summary"]["propensity_step_halvings"]) is int
    # the fit runs over the panel's distinct covariate rows: count them apart
    g = DirectedGraph.load(hworld["graph"])
    log = AdoptionLog.from_csv(hworld["log"], g)
    cov = matchlab.CovariateTable(g, log, lag=7)
    panel = matchlab.build_panel(cov, matchlab.Timing(d=3))
    distinct = np.unique(panel.covariates(np.arange(panel.n_rows)), axis=0)
    assert m["summary"]["propensity_groups"] == len(distinct) < panel.n_rows


def test_match_summary_counts_skipped_days_by_reason(hworld, tmp_path, capsys):
    # the log ends on day 49, so the days after it have no treated egos
    pairs = tmp_path / "pairs.csv"
    rc = run(["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--kind", "timing", "--d", 3, "--min-level-rows", 5, "--last-day", 70,
              "--out-pairs", pairs, "--out-risk", tmp_path / "risk.json"])
    assert rc == 0
    capsys.readouterr()
    summary = manifest(pairs)["summary"]
    assert summary["n_days_skipped"] > 0
    assert summary["n_days_skipped_by_reason"] == {
        "insufficient treated or control counts": summary["n_days_skipped"]
    }


def test_binary_match_never_loads_scipy_special(hworld, tmp_path):
    # the propensity fit's probabilities are numpy's, not scipy.special's
    argv = ["match", "--graph", str(hworld["graph"]), "--log", str(hworld["log"]),
            "--kind", "timing", "--d", "3", "--min-level-rows", "5",
            "--out-pairs", str(tmp_path / "p.csv"), "--out-risk", str(tmp_path / "r.json"),
            "--out-diagnostics", str(tmp_path / "d.json")]
    code = ("import sys, contagion_lab.cli as cli; "
            f"rc = cli.main({argv!r}); "
            "print(rc, 'scipy.special' in sys.modules)")
    assert fresh_python(code).split()[-2:] == ["0", "False"]


# the sha256s of each level's pairs.csv and risk.json from hworld's dose run
# at `--level k`, when a run matched one level and had that flag; on mutual
# ties, level 2's run found no pair and levels 3 and 3+ have no rows
DOSE_LEVEL_SHA256 = {
    "followee": {
        "1": ("8bafb0d5a8e63e95510a67b7a74190bf4cb7cf54d671580e1a711b0c01201940",
              "8ed61f586a0e9e1a71a47aee5556b191362d396450c3844e09a73f3f1347c13b"),
        "2": ("1620939f40b015f464f0bd95d3db89d22be8cc84bd1e34536f1c15f92792aa72",
              "eb2b3ca8972e2cd63ad8b21ea9e819ecd9aff9068d70677e6cc4641e379149ee"),
        "3": ("f6406a68a13506f8924c535d440276ae4b6427baf72714ee9d0b7c1b7f0c7d19",
              "a34e1f92864190b3baf3c24919cc58e85b86337459414c04cebb62bf6fd45666"),
        "3+": ("00e64c7d035b4e83b9ac5805fa28f51f103880006c6015ca924c789a32439c19",
               "9c8e5de5b5c7843cd3471862f0c643b20869908a018ddd64bb82ce2939fd1ca0"),
    },
    "mutual": {
        "1": ("0c46283596ffce740049ad2eed42ed7d3aa9ab38d6c993fd5531be2366dcce5c",
              "12835d66aa2b31701017e62568212d487824a52c7177fb1e7ec97d8300fa6496"),
    },
}


def _dose_run(hworld, tmp_path, direction):
    """hworld's dose run on `direction` ties: its pairs.csv rows, its risk.json
    and its diagnostics.json."""
    pairs, risk, diag = tmp_path / "pairs.csv", tmp_path / "risk.json", tmp_path / "diag.json"
    assert run(["match", "--graph", hworld["graph"], "--log", hworld["log"], "--kind", "dose",
                "--lag", 8, "--direction", direction, "--min-level-rows", 5,
                "--out-pairs", pairs, "--out-risk", risk, "--out-diagnostics", diag]) == 0
    with open(pairs, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows, json.loads(risk.read_text()), json.loads(diag.read_text())


@pytest.mark.parametrize("direction", sorted(DOSE_LEVEL_SHA256))
def test_match_levels_equal_single_level_runs(hworld, tmp_path, capsys, direction):
    # one run matches every dose level against one fit; each level's rows and
    # table keep the bytes of a run that matched that level alone
    rows, risk, _ = _dose_run(hworld, tmp_path, direction)
    capsys.readouterr()
    pins = DOSE_LEVEL_SHA256[direction]
    names = [r[0] for r in rows[1:]]
    assert names == sorted(names, key=matchlab.DOSE_LEVELS.index)  # level-major
    assert set(names) == set(pins) and list(risk["levels"]) == list(pins)
    for level, want in pins.items():
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(rows[0][1:])
        w.writerows(r[1:] for r in rows[1:] if r[0] == level)
        table = json.dumps(risk["levels"][level], indent=2) + "\n"
        got = tuple(hashlib.sha256(b.encode()).hexdigest() for b in (buf.getvalue(), table))
        assert got == want, level
    # the top-level table pools every pair of the run
    for cell in "abcd":
        assert risk[cell] == sum(t[cell] for t in risk["levels"].values())
    assert risk["a"] + risk["b"] == len(rows) - 1


def test_match_level_without_pairs_is_left_out_of_the_tables(hworld, tmp_path, capsys):
    # on mutual ties dose level 2 has treated egos but no pair, and levels 3
    # and 3+ have no rows, so the fit never saw them
    rows, risk, diag = _dose_run(hworld, tmp_path, "mutual")
    capsys.readouterr()
    assert list(risk["levels"]) == ["1"]
    assert list(diag["levels"]) == ["1", "2"]
    assert diag["levels"]["2"]["n_pairs"] == 0 and diag["levels"]["2"]["n_days_matched"] > 0
    assert diag["n_pairs"] == diag["levels"]["1"]["n_pairs"] == len(rows) - 1
    for key in ("n_days_matched", "n_days_skipped"):  # (level, day) results
        assert diag[key] == sum(d[key] for d in diag["levels"].values())
    summary = manifest(tmp_path / "pairs.csv")["summary"]
    assert list(summary["levels"]) == ["1"] and "level" not in summary
    assert summary["levels"]["1"]["rr"] == summary["rr"] == risk["rr"]
    assert summary["n_days_skipped"] == diag["n_days_skipped"]


def test_match_dose_converges(hworld, tmp_path, capsys):
    # the multinomial fit stops on its Newton decrement
    pairs = tmp_path / "pairs.csv"
    rc = run(["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--kind", "dose", "--lag", 8, "--min-level-rows", 5,
              "--out-pairs", pairs, "--out-risk", tmp_path / "risk.json"])
    assert rc == 0
    capsys.readouterr()
    assert 1 <= manifest(pairs)["summary"]["propensity_iterations"] < 30


def test_match_dose_rejects_a_lag_inside_its_window(hworld, tmp_path, capsys):
    # the default lag of 7 would count a day - 7 adoption in both the
    # covariates and the dose
    rc = run(["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--kind", "dose", "--min-level-rows", 5,
              "--out-pairs", tmp_path / "p.csv", "--out-risk", tmp_path / "r.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lag must be at least 8" in err and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--max-bins", -5],
        ["train", "--max-bins", 0],
        ["train", "--max-bins", 1],
        ["train", "--depth", -3],
        ["calibrate", "--activity-mean", "nan"],
        ["calibrate", "--activity-mean", 5],
        ["calibrate", "--activity-mean", 0],
        ["calibrate", "--activity-mean", 5, "--params-out", "{out}/params.json"],
    ],
    ids=lambda argv: " ".join(str(a) for a in argv[:3]) + " params" * (len(argv) > 3),
)
def test_bad_tree_shape_or_activity_mean_is_data_error(world, tmp_path, capsys, argv):
    # once a linspace traceback, trees without a split, a negative depth
    # taken as 0, or an activity mean written as NaN or outside (0, 1]
    inputs = {
        "train": ["--events", world["events"], "--rounds", 2, "--out", tmp_path / "m.json"],
        "calibrate": ["--graph", world["graph"], "--log", world["log"],
                      "--out", tmp_path / "pools.json"],
    }
    command, flag, value, *more = argv
    more = [str(a).format(out=tmp_path) for a in more]
    assert run([command, *inputs[command], flag, value, *more]) == 2
    err = capsys.readouterr().err
    shown = float(value) if flag == "--activity-mean" else value
    assert f"got {shown}" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [["--test-fraction", 1], ["--test-fraction", -0.5], ["--learning-rate", "nan"]],
    ids=["all held out", "negative fraction", "nan step"],
)
def test_train_bad_split_or_step_is_data_error(world, tmp_path, capsys, flags):
    out = tmp_path / "m.json"
    assert run(["train", "--events", world["events"], "--rounds", 2, *flags,
                "--out", out, "--metrics-out", tmp_path / "metrics.json"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--nodes", 50, "--seed", -1, "--out", "{out}/g.npz"],
        ["simulate", "--graph", "{graph}", "--realizations", 1, "--horizon", 5,
         "--threads", 1, "--seed", -3, "--out", "{out}/e.jsonl"],
        ["calibrate", "--graph", "{graph}", "--log", "{log}", "--out", "{out}/pools.json",
         "--params-out", "{out}/params.json", "--seed", -1],
        ["train", "--events", "{events}", "--rounds", 2, "--seed", -4,
         "--out", "{out}/m.json"],
        ["match", "--graph", "{hgraph}", "--log", "{hlog}", "--kind", "timing", "--d", 3,
         "--min-level-rows", 5, "--placebo", "permute", "--seed", -2,
         "--out-pairs", "{out}/p.csv", "--out-risk", "{out}/r.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_data_error(world, hworld, tmp_path, capsys, argv):
    # SeedSequence rejects a negative seed with a ValueError traceback
    paths = {"out": tmp_path, "graph": world["graph"], "log": world["log"],
             "events": world["events"], "hgraph": hworld["graph"], "hlog": hworld["log"]}
    seed = argv[argv.index("--seed") + 1]
    assert run([str(a).format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"seed must be a non-negative integer, got {seed}" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())  # calibrate once left its pools behind


@pytest.mark.parametrize("caliper", [-1, "nan"])
def test_match_bad_caliper_is_data_error(hworld, tmp_path, capsys, caliper):
    rc = run(["match", "--graph", hworld["graph"], "--log", hworld["log"],
              "--kind", "timing", "--d", 3, "--min-level-rows", 5, "--caliper", caliper,
              "--out-pairs", tmp_path / "p.csv", "--out-risk", tmp_path / "r.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "caliper multiplier must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "p.csv").exists()


def test_match_without_pairs_writes_no_output(tmp_path, capsys):
    # n01..n29 follow n00 alone; no treated ego finds a control in its caliper
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target\n" + "".join(f"n{i:02d},n00\n" for i in range(1, 30)))
    log = tmp_path / "log.csv"
    log.write_text("node,day\nn00,5\nn07,15\nn11,20\n")
    graph = tmp_path / "g.npz"
    assert run(["ingest", "--edges", edges, "--out", graph]) == 0
    out = tmp_path / "out"
    out.mkdir()
    rc = run(["match", "--graph", graph, "--log", log, "--kind", "timing", "--d", 3,
              "--lag", 4, "--last-day", 29, "--min-level-rows", 5,
              "--out-pairs", out / "pairs.csv", "--out-risk", out / "risk.json",
              "--out-diagnostics", out / "diagnostics.json"])
    assert rc == 2
    assert "no matched pairs to pool" in capsys.readouterr().err
    assert not any(out.iterdir())  # a header-only pairs CSV was once left behind


def test_infinite_caliper_matches_days_whose_logits_all_tie(tmp_path, capsys):
    # a 60-node ring (n{i} follows n{i+1}): every row's covariates, and so
    # every logit, tie, so each day's logit SD is 0 and inf x 0 once gave a
    # NaN caliper that no control passes, while every finite multiplier
    # matched every treated ego
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target\n" + "".join(f"n{i},n{(i + 1) % 60}\n" for i in range(60)))
    rng = np.random.default_rng(0)
    nodes, days = rng.choice(60, 30, replace=False), rng.integers(8, 14, 30)
    log = tmp_path / "log.csv"
    log.write_text("node,day\n" + "".join(f"n{a},{b}\n" for a, b in zip(nodes, days)))
    graph = tmp_path / "g.npz"
    assert run(["ingest", "--edges", edges, "--out", graph]) == 0

    g = DirectedGraph.load(graph)
    panel = matchlab.build_panel(
        matchlab.CovariateTable(g, AdoptionLog.from_csv(log, g, last_day=13), lag=7),
        matchlab.Timing(d=3),
    )
    model = matchlab.fit_propensity(panel, min_level_rows=1)
    finite, inf = (matchlab.match_all_days(panel, model, m).results for m in (0.1, np.inf))
    logits = model.group_logits(1)[model.group]
    tied = [i for i, (_, rows) in enumerate(panel.rows_by_day())
            if np.std(logits[rows], ddof=1) == 0]
    assert sum(finite[i].n_matched for i in tied) > 0
    assert [inf[i].n_matched for i in tied] == [finite[i].n_matched for i in tied]

    n_pairs = {}
    for caliper in (0.1, "inf"):
        pairs = tmp_path / f"pairs_{caliper}.csv"
        assert run(["match", "--graph", graph, "--log", log, "--kind", "timing", "--d", 3,
                    "--lag", 7, "--last-day", 13, "--min-level-rows", 1, "--caliper", caliper,
                    "--out-pairs", pairs, "--out-risk", tmp_path / f"risk_{caliper}.json"]) == 0
        n_pairs[caliper] = manifest(pairs)["summary"]["n_pairs"]
    capsys.readouterr()
    assert n_pairs["inf"] >= n_pairs[0.1] > 0


def test_detect_shocks_window_below_two_is_data_error(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("day,count\n" + "".join(f"{d},10\n" for d in range(40)))
    out = tmp_path / "ranges.json"
    assert run(["detect-shocks", "--series", series, "--window", 1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "window must be >= 2" in err and "Traceback" not in err
    assert not out.exists()


def test_train_without_regularization_ends_cleanly(world, tmp_path, capsys):
    # no ridge and no hessian floor: rounding once gave a split with an
    # empty child a finite gain, and its leaf divided 0 by 0
    out = tmp_path / "m.json"
    assert run(["train", "--events", world["events"], "--rounds", 5,
                "--reg-lambda", 0, "--min-child-weight", 0, "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_calibrate_writes_pools_and_params(world, tmp_path):
    cal = tmp_path / "cal.json"
    params = tmp_path / "params.json"
    assert run(["calibrate", "--graph", world["graph"], "--log", world["log"],
                "--out", cal, "--params-out", params, "--seed", 2]) == 0
    payload = json.load(open(cal))
    assert payload["beta"]["n"] == len(payload["beta"]["values"])
    assert payload["r"] >= 0
    from contagion_lab.calibrate import MechanismParams

    mp = MechanismParams.from_json(params)
    assert mp.n_nodes == DirectedGraph.load(world["graph"]).node_count


def test_calibrate_builds_the_eve_counts_once(world, tmp_path, monkeypatch):
    from contagion_lab import calibrate

    builds = []

    class CountedIndex(calibrate.ExposureIndex):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(calibrate, "ExposureIndex", CountedIndex)
    counted = tmp_path / "counted.json"
    assert run(["calibrate", "--graph", world["graph"], "--log", world["log"],
                "--out", counted]) == 0
    assert len(builds) == 1
    # each calibrator on its own (building its own index) gives the same pools
    g = DirectedGraph.load(world["graph"])
    log = calibrate.AdoptionLog.from_csv(world["log"], g)
    payload = json.load(open(counted))
    assert payload["beta"]["values"] == calibrate.calibrate_transmission(g, log).values.tolist()
    assert payload["phi"]["values"] == calibrate.calibrate_thresholds(g, log).values.tolist()
    assert payload["r"] == calibrate.calibrate_background(g, log)
    assert len(builds) == 4


def test_report_flags_missing_outputs(tmp_path, capsys):
    good = tmp_path / "a.json"
    good.write_text("{}")
    fake = {"command": "x", "config": {}, "inputs": [],
            "outputs": [str(good), str(tmp_path / "gone.json")],
            "summary": {}, "versions": {}}
    (tmp_path / "a.json.manifest.json").write_text(json.dumps(fake))
    out = tmp_path / "report.json"
    assert run(["report", "--dir", tmp_path, "--out", out]) == 0
    rep = json.load(open(out))
    assert len(rep["runs"]) == 1
    assert any("gone.json" in m for m in rep["missing"])
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{bad", "[1, 2]", '{"outputs": 5}'])
def test_report_malformed_manifest_is_data_error(tmp_path, capsys, text):
    bad = tmp_path / "a.json.manifest.json"
    bad.write_text(text)
    assert run(["report", "--dir", tmp_path, "--out", tmp_path / "report.json"]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code",
    [
        ('{"ranges": [[3, 10], [40, 45]]}', 0),
        ("{bad", 2),
        ('{"spans": [[3, 10]]}', 2),  # no "ranges"
        ('{"ranges": 5}', 2),
        ('[[3, 10]]', 2),
        ('{"ranges": [[3, 10, 12]]}', 2),  # not a pair
        ('{"ranges": [[3, "x"]]}', 2),
    ],
)
def test_calibrate_shock_ranges_file(world, tmp_path, capsys, text, code):
    ranges = tmp_path / "ranges.json"
    ranges.write_text(text)
    out = tmp_path / "cal.json"
    assert run(["calibrate", "--graph", world["graph"], "--log", world["log"],
                "--shock-ranges", ranges, "--out", out]) == code
    if code:
        assert str(ranges) in capsys.readouterr().err
    else:
        assert str(ranges) in manifest(out)["inputs"]


@pytest.mark.parametrize("day", ["100000000000000000000", "-1"])
def test_calibrate_log_day_out_of_range_is_parse_error(world, tmp_path, capsys, day):
    # a day past int64 used to overflow with a traceback; -1 is the NEVER
    # sentinel and used to read silently as "never adopted"
    node = DirectedGraph.load(world["graph"]).node_ids[0]
    log = tmp_path / "log.csv"
    log.write_text(f"node,day\n{node},{day}\n")
    assert run(["calibrate", "--graph", world["graph"], "--log", log,
                "--out", tmp_path / "cal.json"]) == 2
    assert f"{log}:2:" in capsys.readouterr().err


def test_ingest_round_trip(world, tmp_path):
    edges = tmp_path / "edges.csv"
    from tests.test_netgraph import save_edge_list

    g = DirectedGraph.load(world["graph"])
    save_edge_list(g, edges)
    out = tmp_path / "g2.npz"
    idmap = tmp_path / "ids.csv"
    assert run(["ingest", "--edges", edges, "--out", out, "--id-map", idmap]) == 0
    g2 = DirectedGraph.load(out)
    assert g2.node_count == g.node_count
    assert g2.edge_count == g.edge_count
    assert len(list(csv.reader(open(idmap)))) == g.node_count + 1


class _OpenOnUnpickle:
    """Pickles to a call that creates `path`: the proof that code ran."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _rewrite(good, bad, change):
    with np.load(good) as z:
        members = {name: z[name] for name in z.files}
    change(members)
    np.savez(bad, **members)


def _v1_cache(good, bad):
    g = DirectedGraph.load(good)
    np.savez(bad, format=np.array("contagion-lab-graph"), version=np.array(1),
             followee_indptr=g.followee_csr()[0], followee_ids=g.followee_csr()[1],
             follower_indptr=g.follower_csr()[0], follower_ids=g.follower_csr()[1],
             node_ids=np.array(g.node_ids, dtype=object))


def _v2_cache(good, bad):
    # version 2 stored the neighbor ids as int64
    _rewrite(good, bad, lambda m: m.update(
        version=np.array(2),
        followee_ids=m["followee_ids"].astype(np.int64),
        follower_ids=m["follower_ids"].astype(np.int64)))


def _flip_data_byte(good, bad):
    # the last byte of a stored member is array data, which only its CRC-32 guards
    data = bytearray(good.read_bytes())
    with zipfile.ZipFile(good) as zf:
        info = zf.getinfo("followee_ids.npy")
    assert info.compress_type == zipfile.ZIP_STORED
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    data[info.header_offset + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    bad.write_bytes(bytes(data))


MALFORMED_CACHES = {
    "garbage": lambda good, bad: bad.write_bytes(bytes(range(256)) * 4),
    "truncated": lambda good, bad: bad.write_bytes(good.read_bytes()[:3000]),
    "pickle": lambda good, bad: bad.write_bytes(
        pickle.dumps(_OpenOnUnpickle(bad.parent / "sentinel"))),
    "object member": lambda good, bad: _rewrite(good, bad, lambda m: m.update(
        node_id_offsets=m["node_id_offsets"].astype(object))),
    "missing member": lambda good, bad: _rewrite(good, bad, lambda m: m.pop("follower_ids")),
    "wrong version": lambda good, bad: _rewrite(good, bad, lambda m: m.update(
        version=np.array(7))),
    "v1": _v1_cache,
    "v2": _v2_cache,
    "flipped data byte": _flip_data_byte,
}


@pytest.mark.parametrize("kind", MALFORMED_CACHES)
def test_malformed_graph_cache_is_data_error(world, tmp_path, capsys, kind):
    bad = tmp_path / "bad.npz"
    MALFORMED_CACHES[kind](Path(world["graph"]), bad)
    assert run(["calibrate", "--graph", bad, "--log", world["log"],
                "--out", tmp_path / "cal.json"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not (tmp_path / "sentinel").exists()
    if kind in ("v1", "v2"):
        assert f"graph cache version {kind[1]} cannot be read" in err
        assert "re-run synth or ingest" in err
    if kind == "flipped data byte":
        assert "Bad CRC-32 for file 'followee_ids.npy'" in err


def test_pickle_probe_is_live(tmp_path):
    # the payload above does run when unpickled, so its absence means something
    pickle.loads(pickle.dumps(_OpenOnUnpickle(tmp_path / "armed"))).close()
    assert (tmp_path / "armed").exists()


# ------------------------------------------------ malformed text inputs

def _write(d, name, data):
    path = d / name
    (path.write_bytes if isinstance(data, bytes) else path.write_text)(data)
    return path


def _node(world, i=0):
    return DirectedGraph.load(world["graph"]).node_ids[i]


def _params(world, d, **change):
    # beta, phi and activity hold one value for every node
    n = DirectedGraph.load(world["graph"]).node_count
    params = {"beta": 0.1, "phi": 0.2, "r": 1e-4, "activity": 0.5,
              "shock_schedule": [], "shock_prob_at_peak": 0.0, **change}
    for key in ("beta", "phi", "activity"):
        params[key] = [params[key]] * n
    return _write(d, "params.json", json.dumps(params))


def _shocks(d, **change):
    return _write(d, "shocks.json", json.dumps([{"tau": 3, "gamma": 1.0, "alpha": 0.5, **change}]))


def _simulate(world, d, flag, path):
    return ["simulate", "--graph", world["graph"], "--realizations", 1, "--horizon", 5,
            "--threads", 1, "--out", d / "out.jsonl", flag, path]


def _calibrate(world, d, log=None, posts=None):
    argv = ["calibrate", "--graph", world["graph"], "--log", log or world["log"],
            "--out", d / "cal.json", "--params-out", d / "params_out.json"]
    return argv + (["--activity-posts", posts] if posts else [])


def _train(d, features=None, events=None):
    flag, path = ("--features", features) if features else ("--events", events)
    return ["train", flag, path, "--rounds", 2, "--out", d / "m.json"]


# each case: (world, dir) -> (argv, the file to name, its line or None, a message part)
MALFORMED_INPUTS = {
    "params r not a number": lambda w, d: (
        _simulate(w, d, "--params", p := _params(w, d, r="abc")), p, None, "abc"),
    "params beta not numbers": lambda w, d: (
        _simulate(w, d, "--params", p := _params(w, d, beta="x")), p, None, "'x'"),
    "shock tau not a number": lambda w, d: (
        _simulate(w, d, "--shocks", p := _shocks(d, tau="x")), p, None, "'x'"),
    "shock tau a list": lambda w, d: (
        _simulate(w, d, "--shocks", p := _shocks(d, tau=[1])), p, None, "list"),
    "feature row of three fields": lambda w, d: (
        _train(d, features=(p := _write(d, "f.csv", f"{FEATURE_HEADER}\n1,2,3,4,5,6,7\n1,2,3\n"))),
        p, 3, "3 fields"),
    "log not UTF-8": lambda w, d: (
        _calibrate(w, d, log=(p := _write(d, "log.csv", f"node,day\n{_node(w)},".encode() + b"\xff\n"))),
        p, 2, "not UTF-8"),
    "edges not UTF-8": lambda w, d: (
        ["ingest", "--edges", p := _write(d, "e.csv", b"source,target\na,b\nc,\xffd\n"),
         "--out", d / "g.npz"], p, 3, "not UTF-8"),
    "series not UTF-8": lambda w, d: (
        ["detect-shocks", "--series", p := _write(d, "s.csv", b"day,count\n0,\xff1\n"),
         "--out", d / "r.json"], p, 2, "not UTF-8"),
    "events not UTF-8": lambda w, d: (
        _train(d, events=(p := _write(d, "e.jsonl", b'\n{"\xff": 1}\n'))), p, 2, "not UTF-8"),
    "config not UTF-8": lambda w, d: (
        ["synth", "--config", p := _write(d, "cfg.json", b'{"nodes": "\xff"}'),
         "--out", d / "g.npz"], p, 1, "not UTF-8"),
    "config nodes not an integer": lambda w, d: (
        ["synth", "--config", p := _write(d, "cfg.json", '{"nodes": 50.5}'), "--out", d / "g.npz"],
        p, None, "'nodes': 50.5 is not an integer"),
    "config seed a list": lambda w, d: (
        ["synth", "--config", p := _write(d, "cfg.json", '{"nodes": 50, "seed": [1]}'),
         "--out", d / "g.npz"], p, None, "'seed': [1] is not an integer"),
    "config kind not a choice": lambda w, d: (
        ["match", "--config", p := _write(d, "cfg.json", '{"kind": "bogus"}'),
         "--out-pairs", d / "p.csv", "--out-risk", d / "r.json"],
        p, None, "'kind': 'bogus' is not one of timing, dose"),
    "config placebo not a choice": lambda w, d: (
        ["match", "--config", p := _write(d, "cfg.json", '{"placebo": "maybe"}'),
         "--out-pairs", d / "p.csv", "--out-risk", d / "r.json"],
        p, None, "'placebo': 'maybe' is not one of none, future, permute"),
    "config nested too deeply": lambda w, d: (
        ["synth", "--config", p := _write(d, "cfg.json", "[" * 100_000), "--out", d / "g.npz"],
        p, None, "recursion"),
    "events nested too deeply": lambda w, d: (
        _train(d, events=(p := _write(d, "e.jsonl", "[" * 100_000 + "\n"))), p, 1, "recursion"),
    "posting counts not UTF-8": lambda w, d: (
        _calibrate(w, d, posts=(p := _write(d, "posts.csv", f"node,count\n{_node(w)},".encode()
                                                             + b"\xff\n"))), p, 2, "not UTF-8"),
    "posting count NaN": lambda w, d: (
        _calibrate(w, d, posts=(p := _write(d, "posts.csv", f"node,count\n{_node(w)},nan\n"))),
        p, 2, "not finite"),
    "params beta NaN": lambda w, d: (
        _simulate(w, d, "--params", p := _params(w, d, beta=float("nan"))), p, None,
        "transmission rates"),
    "params phi NaN": lambda w, d: (
        _simulate(w, d, "--params", p := _params(w, d, phi=float("nan"))), p, None,
        "thresholds"),
    "shock gamma NaN": lambda w, d: (
        _simulate(w, d, "--shocks", p := _shocks(d, gamma=float("nan"))), p, None, "heights"),
    "shock alpha NaN": lambda w, d: (
        _simulate(w, d, "--shocks", p := _shocks(d, alpha=float("nan"))), p, None, "exponents"),
    "log day past --last-day": lambda w, d: (
        _calibrate(w, d, log=(p := _write(d, "log.csv", f"node,day\n{_node(w)},9\n")))
        + ["--last-day", 5], p, 2, "outside [0, 5]"),
    "log header only": lambda w, d: (
        _calibrate(w, d, log=(p := _write(d, "log.csv", "node,day\n"))), p, None, "no records"),
    "edges header only": lambda w, d: (
        ["ingest", "--edges", p := _write(d, "e.csv", "source,target\n\n"), "--out", d / "g.npz"],
        p, None, "no records"),
    "series header only": lambda w, d: (
        ["detect-shocks", "--series", p := _write(d, "s.csv", "day,count\n"),
         "--out", d / "r.json"], p, None, "no records"),
    "features header only": lambda w, d: (
        _train(d, features=(p := _write(d, "f.csv", f"{FEATURE_HEADER},label\n"))), p, None,
        "no records"),
    "posting counts header only": lambda w, d: (
        _calibrate(w, d, posts=(p := _write(d, "posts.csv", "node,count\n"))), p, None,
        "no records"),
    # a later record is bad in another way: the first bad one in file order is named
    "log names a node the graph lacks": lambda w, d: (
        _calibrate(w, d, log=(p := _write(d, "log.csv", f"node,day\n{_node(w)},1\nghost,2\n"
                                                        f"{_node(w, 1)},x\n"))),
        p, 3, "'ghost' not found"),
    "log repeats a node": lambda w, d: (
        _calibrate(w, d, log=(p := _write(d, "log.csv", f"node,day\n{_node(w)},1\n{_node(w, 1)},2\n"
                                                        f"{_node(w)},3\nghost,1\n"))),
        p, 4, f"duplicate record for node '{_node(w)}'"),
    "posting counts name an unknown node": lambda w, d: (
        _calibrate(w, d, posts=(p := _write(d, "posts.csv", f"node,count\n{_node(w)},3\n\n"
                                                            f"ghost,1\n{_node(w)},nan\n"))),
        p, 4, "'ghost' not found"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_two_naming_file_and_line(world, tmp_path, capsys, case):
    argv, path, line, message = MALFORMED_INPUTS[case](world, tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"{path}: " if line is None else f"{path}:{line}: ") in err
    assert message in err
