"""The text writers: the package's one output policy, and that it is the only one."""

import ast
import csv
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contagion_lab
from contagion_lab import errors
from contagion_lab.errors import Records, write_csv, write_json, write_jsonl

PACKAGE = Path(contagion_lab.__file__).parent


def awkward_floats():
    """Floats whose text is easy to get wrong: signed zeros, subnormals, the
    edges of exact integers, long reprs, and random bit patterns."""
    fixed = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e16 + 2,
             2.0**53, 2.0**53 + 2, 1e22, 1e-7, 0.1 + 0.2, 1 / 3, 1.7976931348623157e308,
             float("inf"), -float("inf"), float("nan")]
    bits = np.random.default_rng(5).integers(0, 2**63, size=987, dtype=np.int64)
    return fixed + [struct.unpack("<d", struct.pack("<q", int(b)))[0] for b in bits]


def test_csv_floats_are_their_shortest_repr(tmp_path):
    # the writers it replaced wrote repr(float(v)) for every float
    values = np.array(awkward_floats())
    path = tmp_path / "f.csv"
    write_csv(path, ("i", "x"), (np.arange(len(values)), values))
    want = "i,x\r\n" + "".join(f"{i},{repr(float(v))}\r\n" for i, v in enumerate(values))
    assert path.read_bytes() == want.encode()


def test_csv_is_utf8_with_crlf_rows_and_quoting(tmp_path):
    path = tmp_path / "f.csv"
    ids = ("éveil", "a,b", 'say "hi"')
    write_csv(path, ("node", "n"), (ids, range(3)))
    assert path.read_bytes() == (
        'node,n\r\néveil,0\r\n"a,b",1\r\n"say ""hi""",2\r\n'.encode("utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1:] == [[x, str(i)] for i, x in enumerate(ids)]


@pytest.mark.parametrize("n", [0, 1, 3, 10])
def test_csv_chunks_write_the_one_shot_bytes(tmp_path, monkeypatch, n):
    # rows are converted and written a chunk at a time; chunk boundaries at
    # every third row must not show in the file
    monkeypatch.setattr(errors, "_CHUNK_ROWS", 3)
    rng = np.random.default_rng(n)
    ints = rng.integers(-10**12, 10**12, n)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    strs = [f"n{i}," * (i % 3) + "é" for i in range(n)]
    path = tmp_path / "c.csv"
    write_csv(path, ("i", "x", "s", "r"), (ints, floats, strs, range(n)))
    with open(tmp_path / "one.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("i", "x", "s", "r"))
        w.writerows(zip(ints.tolist(), floats.tolist(), strs, range(n)))
    assert path.read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("layout", [{}, {"indent": 2}, {"indent": 2, "sort_keys": True}])
def test_json_layouts_match_json_dump(tmp_path, layout):
    value = {"b": [1, 2.5, None, True], "a": {"é": -0.0, "z": []}, "c": "x\ny"}
    path = tmp_path / "v.json"
    write_json(path, value, **layout)
    with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
        json.dump(value, fh, **layout)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def materialized(value):
    """`value` with each numpy array member as its `.tolist()` and each
    `Records` member as its list of objects."""
    def plain(v):
        if isinstance(v, Records):
            names = list(v.columns)
            cols = [c.tolist() if isinstance(c, np.ndarray) else list(c)
                    for c in v.columns.values()]
            return [dict(zip(names, row)) for row in zip(*cols)]
        return v.tolist() if isinstance(v, np.ndarray) else v
    return {k: plain(v) for k, v in value.items()}


def assert_writes_its_dumps(path, value, **layout):
    write_json(path, value, **layout)
    assert path.read_text(encoding="utf-8") == json.dumps(materialized(value), **layout) + "\n"


CHUNK = errors._CHUNK_ROWS


@pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_json_arrays_write_the_text_of_their_lists(tmp_path, n):
    # array members are written a chunk at a time; no boundary shows
    floats = np.resize(np.array(awkward_floats()), n)
    value = {"x": floats, "r": 0.5, "i": np.arange(n) - n // 2, "pairs": floats.reshape(-1, 1),
             "s": np.array(["é", "a\"b"])[np.arange(n) % 2], "nested": {"k": [1, None]}}
    for layout in ({}, {"sort_keys": True}):
        assert_writes_its_dumps(tmp_path / "v.json", value, **layout)


@pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_json_report_events_write_the_text_of_their_objects(tmp_path, n):
    rng = np.random.default_rng(n)
    p = rng.dirichlet(np.ones(4), n)
    p[::7, 0] = -0.0
    events = Records({"node": rng.integers(0, 10**6, n), "day": rng.integers(0, 730, n),
                      "label": np.array(["Simple", "Complex", "Shock"])[rng.integers(0, 3, n)],
                      "probabilities": p})
    value = {"classes": ["Simple", "Complex"], "overall_shares": {"Simple": 0.25},
             "events": events}
    assert_writes_its_dumps(tmp_path / "report.json", value)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=3), st.integers(0, 2**32))
def test_json_members_of_any_length_write_their_dumps(tmp_path_factory, lengths, seed):
    # chunks of 5 items (3 objects for `Records`): every length puts a
    # boundary somewhere else
    rng = np.random.default_rng(seed)
    pool = np.array(awkward_floats())
    value = {f"m{i}": pool[rng.integers(0, len(pool), n)] for i, n in enumerate(lengths)}
    n = lengths[0]
    mixed = [None, "é"] * (n // 2) + [1] * (n % 2)
    value["rows"] = Records({"a": rng.integers(-5, 5, n), "b": mixed})
    chunks = errors._CHUNK_ROWS, errors._RECORD_ROWS
    errors._CHUNK_ROWS, errors._RECORD_ROWS = 5, 3
    try:
        assert_writes_its_dumps(tmp_path_factory.mktemp("j") / "v.json", value)
    finally:
        errors._CHUNK_ROWS, errors._RECORD_ROWS = chunks


def test_jsonl_writes_one_object_per_row_in_key_order(tmp_path):
    path = tmp_path / "e.jsonl"
    write_jsonl(path, {"node": np.array([3, 1]), "x": np.array([[0.5, -0.0], [1e16, 2.0]]),
                       "name": ["é", ("a", "b")]})
    assert path.read_text(encoding="utf-8").splitlines() == [
        '{"node": 3, "x": [0.5, -0.0], "name": "\\u00e9"}',
        '{"node": 1, "x": [1e+16, 2.0], "name": ["a", "b"]}',
    ]


def test_only_errors_writes_text():
    # one module decides the output policy: no other module imports csv or
    # json, or opens a file itself
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        imports |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not imports & {"csv", "json"}, path.name
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert not any(isinstance(f, ast.Name) and f.id == "open" for f in calls), path.name
