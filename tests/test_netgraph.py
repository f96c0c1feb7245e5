"""Graph loading, adjacency, degrees, round-trips."""

import csv
import hashlib
import io
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion_lab import errors, netgraph
from contagion_lab.calibrate import NEVER, AdoptionLog
from contagion_lab.errors import DataError, ParseError
from contagion_lab.netgraph import (
    CACHE_FORMAT,
    CACHE_VERSION,
    DirectedGraph,
    LoadReport,
    load_edge_list,
    save_id_map,
)

SYNTH_CACHE_SHA256 = "4d2df13c48d9d8e7e1fc76cec83ce075b15988293a8d536882e7331332639dc6"
# followee_csr() + follower_csr(): int64 offsets, int32 neighbor ids
CSR_DTYPES = (np.int64, np.int32, np.int64, np.int32)


def save_edge_list(g, path):
    """Write the canonical edge-list CSV (sorted, external ids)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["source", "target"])
        for s, t in g.edges():
            w.writerow([g.node_ids[s], g.node_ids[t]])


def write_csv(path, text):
    path.write_text(text)
    return path


def brute_degrees(edges, n):
    """Independent degree recount, straight from the pair list."""
    fin = [set() for _ in range(n)]
    fout = [set() for _ in range(n)]
    for s, t in edges:
        if s == t:
            continue
        fin[s].add(t)  # s follows t: t is a followee of s
        fout[t].add(s)
    ind = np.array([len(x) for x in fin])
    outd = np.array([len(x) for x in fout])
    mut = np.array([len(fin[i] & fout[i]) for i in range(n)])
    return ind, outd, mut


def test_reciprocal_pair(tmp_path):
    p = write_csv(tmp_path / "e.csv", "source,target\na,b\nb,a\n")
    g = load_edge_list(p)
    ind, outd, mut = g.in_degree, g.out_degree, g.mutual_degree
    assert list(ind) == [1, 1]
    assert list(outd) == [1, 1]
    assert list(mut) == [1, 1]
    assert g.edge_count == 2


def test_duplicates_collapse_self_loops_drop(tmp_path):
    p = write_csv(tmp_path / "e.csv", "source,target\na,b\na,b\nb,b\na,c\n")
    g = load_edge_list(p)
    assert g.edge_count == 2
    r = g.load_report
    assert r.records == 4
    assert r.duplicates == 1
    assert r.self_loops == 1
    # b had only a self-loop record; it still exists as a node
    assert g.node_count == 3


def test_ten_node_star():
    # leaves 1..9 all follow hub 0; hub follows nobody
    edges = np.array([(s, 0) for s in range(1, 10)])
    g = DirectedGraph.from_edges(edges, n_nodes=10)
    ind, outd, mut = g.in_degree, g.out_degree, g.mutual_degree
    assert ind[0] == 0 and outd[0] == 9
    assert all(ind[i] == 1 and outd[i] == 0 for i in range(1, 10))
    assert mut.sum() == 0
    assert list(g.followers(0)) == list(range(1, 10))
    assert list(g.followees(3)) == [0]


def test_degrees_match_brute_force_recount():
    rng = np.random.default_rng(7)
    n = 50
    edges = rng.integers(0, n, size=(400, 2))
    g = DirectedGraph.from_edges(edges, n_nodes=n)
    ind, outd, mut = g.in_degree, g.out_degree, g.mutual_degree
    bi, bo, bm = brute_degrees(edges.tolist(), n)
    assert np.array_equal(ind, bi)
    assert np.array_equal(outd, bo)
    assert np.array_equal(mut, bm)


def test_mutual_is_intersection():
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 30, size=(200, 2))
    edgeless = np.empty((0, 2), dtype=np.int64)
    for g in (DirectedGraph.from_edges(edges, n_nodes=30),
              DirectedGraph.from_edges(edgeless, n_nodes=4)):
        ptr, ids = g.mutual_csr()
        assert len(ptr) == g.node_count + 1
        for i in range(g.node_count):
            expect = sorted(set(g.followees(i)) & set(g.followers(i)))
            assert list(g.mutual(i)) == expect
            assert list(ids[ptr[i] : ptr[i + 1]]) == expect
        assert np.array_equal(g.mutual_degree, np.diff(ptr))


def test_degree_sums_equal_edge_count():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 40, size=(300, 2))
        g = DirectedGraph.from_edges(edges, n_nodes=40)
        assert g.in_degree.sum() == g.edge_count
        assert g.out_degree.sum() == g.edge_count


def test_adjacency_sorted_ascending():
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 25, size=(150, 2))
    g = DirectedGraph.from_edges(edges, n_nodes=25)
    for i in range(25):
        fe = g.followees(i)
        fo = g.followers(i)
        assert np.all(np.diff(fe) > 0)
        assert np.all(np.diff(fo) > 0)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 20, size=(80, 2))
    g = DirectedGraph.from_edges(edges, n_nodes=20)
    p = tmp_path / "out.csv"
    save_edge_list(g, p)
    g2 = load_edge_list(p)
    assert g == g2


def test_npz_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 15, size=(60, 2))
    g = DirectedGraph.from_edges(edges, n_nodes=15)
    p = tmp_path / "g.npz"
    g.save(p)
    g2 = DirectedGraph.load(p)
    assert g == g2
    assert np.array_equal(g.out_degree, g2.out_degree)


EXOTIC_IDS = ("a", "a\x00", "\u00fc", "x" * 40)


def exotic_graph(tmp_path):
    """An ingest graph whose ids a fixed-width unicode array would corrupt."""
    a, a0, u, long = EXOTIC_IDS
    p = tmp_path / "exotic.csv"
    p.write_text(
        f"source,target\n{a},{a0}\n{a0},{u}\n{u},{a}\n{long},{a}\n{a},{long}\n",
        encoding="utf-8",
    )
    return load_edge_list(p)


def synth_graph():
    from contagion_lab.synthgen import SynthConfig, gen_graph

    return gen_graph(SynthConfig(n_nodes=200, mean_degree=4, seed=5))


def assert_same_graph(g, g2):
    # __eq__ ignores the follower CSR, so compare every array here
    assert g2 == g
    assert g2.node_ids == g.node_ids
    for a, b, dtype in zip((*g.followee_csr(), *g.follower_csr()),
                           (*g2.followee_csr(), *g2.follower_csr()), CSR_DTYPES):
        assert b.dtype == dtype and np.array_equal(a, b)
        assert not b.flags.writeable


@pytest.mark.parametrize("make", ["exotic", "synth"])
def test_npz_round_trip_keeps_ids_and_both_csrs(tmp_path, make):
    g = exotic_graph(tmp_path) if make == "exotic" else synth_graph()
    if make == "exotic":
        assert set(g.node_ids) == set(EXOTIC_IDS)
    p = tmp_path / "g.npz"
    g.save(p)
    assert_same_graph(g, DirectedGraph.load(p))


def test_npz_saves_are_byte_identical_and_pinned(tmp_path):
    g = synth_graph()
    g.save(tmp_path / "a.npz")
    g.save(tmp_path / "b.npz")
    a = (tmp_path / "a.npz").read_bytes()
    assert a == (tmp_path / "b.npz").read_bytes()
    # pinned so that a change to the cache bytes is a deliberate one
    assert hashlib.sha256(a).hexdigest() == SYNTH_CACHE_SHA256


def test_npz_holds_no_object_arrays(tmp_path):
    p = tmp_path / "g.npz"
    exotic_graph(tmp_path).save(p)
    with np.load(p, allow_pickle=False) as z:
        assert all(z[name].dtype != object for name in z.files)
        assert "followee_ids" in z.files


def write_mutated_cache(tmp_path, **changes):
    """A copy of a valid cache with each named member replaced by fn(members)."""
    good = tmp_path / "good.npz"
    exotic_graph(tmp_path).save(good)
    with np.load(good) as z:
        members = {name: z[name] for name in z.files}
    members.update({name: fn(members) for name, fn in changes.items()})
    bad = tmp_path / "bad.npz"
    np.savez(bad, **members)
    return bad


def _at(name, i, value):
    """Member `name` with entry i set to value, or to value(array)."""
    def put(m):
        a = m[name].copy()
        a[i] = value(a) if callable(value) else value
        return a
    return put


@pytest.mark.parametrize(
    "name, new, message",
    [
        ("format", lambda m: np.array("something-else"), "not a contagion-lab graph cache"),
        ("version", lambda m: np.array(2.0), "not a contagion-lab graph cache"),
        ("version", lambda m: np.array(4), "version 4"),
        ("followee_indptr", lambda m: m["followee_indptr"].astype(np.int32),
         "followee_indptr is not 1-D int64"),
        ("follower_ids", lambda m: m["follower_ids"].reshape(1, -1),
         "follower_ids is not 1-D int32"),
        ("node_id_utf8", lambda m: m["node_id_utf8"].astype(np.int64),
         "node_id_utf8 is not 1-D uint8"),
        ("node_id_utf8", lambda m: np.frombuffer(b"\xff\xfe", dtype=np.uint8), "not UTF-8"),
        ("followee_ids", _at("followee_ids", 0, 5), "followee_ids outside"),
        ("follower_ids", _at("follower_ids", -1, -1), "follower_ids outside"),
        ("followee_indptr", _at("followee_indptr", 0, 1), "followee_indptr"),
        ("follower_indptr", _at("follower_indptr", 1, lambda a: a[-1]), "follower_indptr"),
        ("followee_indptr", _at("followee_indptr", -1, lambda a: a[-1] + 1), "followee_indptr"),
        ("follower_indptr", lambda m: np.append(m["follower_indptr"], 5), "follower_indptr"),
        ("node_id_offsets", _at("node_id_offsets", -1, lambda a: a[-1] - 1), "node_id_offsets"),
        ("node_id_offsets", _at("node_id_offsets", 1, 5), "node_id_offsets"),
        ("node_id_offsets", lambda m: m["node_id_offsets"][:0], "node_id_offsets"),
    ],
)
def test_npz_structural_checks_name_the_file(tmp_path, name, new, message):
    bad = write_mutated_cache(tmp_path, **{name: new})
    with pytest.raises(DataError, match=message) as e:
        DirectedGraph.load(bad)
    assert str(bad) in str(e.value)


def test_npz_csrs_must_hold_the_same_edges(tmp_path):
    # each CSR is well-formed on its own; the follower one lost its last edge
    bad = write_mutated_cache(
        tmp_path,
        follower_ids=lambda m: m["follower_ids"][:-1],
        follower_indptr=_at("follower_indptr", -1, lambda a: a[-1] - 1),
    )
    with pytest.raises(DataError, match="CSRs hold 5 and 4 edges") as e:
        DirectedGraph.load(bad)
    assert str(bad) in str(e.value)


def test_dense_ids_sorted_by_external(tmp_path):
    p = write_csv(tmp_path / "e.csv", "source,target\nzed,apple\nmid,zed\n")
    g = load_edge_list(p)
    assert g.node_ids == ("apple", "mid", "zed")
    assert g.resolve(["zed", "ghost", "apple", "zed"]).tolist() == [2, -1, 0, 2]


def test_id_map_export(tmp_path):
    p = write_csv(tmp_path / "e.csv", "source,target\nb,a\n")
    g = load_edge_list(p)
    out = tmp_path / "ids.csv"
    save_id_map(g, out)
    assert out.read_text().splitlines() == ["id,external", "0,a", "1,b"]


def test_bad_header_raises(tmp_path):
    p = write_csv(tmp_path / "e.csv", "from,to\na,b\n")
    with pytest.raises(ParseError) as e:
        load_edge_list(p)
    assert "line" in str(e.value) or ":1:" in str(e.value)


def test_malformed_row_raises_with_line(tmp_path):
    p = write_csv(tmp_path / "e.csv", "source,target\na,b\nc\n")
    with pytest.raises(ParseError) as e:
        load_edge_list(p)
    assert ":3:" in str(e.value)


def test_empty_file_raises(tmp_path):
    p = write_csv(tmp_path / "e.csv", "")
    with pytest.raises(ParseError):
        load_edge_list(p)


def test_arrays_frozen():
    g = DirectedGraph.from_edges(np.array([[0, 1]]), n_nodes=2)
    ptr, ids = g.followee_csr()
    with pytest.raises(ValueError):
        ids[0] = 5


# -- construction against the unique-rows reference ------------------------------


def reference_csr(edges, n):
    """Self-loops dropped, rows deduplicated with np.unique(axis=0), and
    each direction grouped with lexsort and np.add.at."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    kept = edges[edges[:, 0] != edges[:, 1]]
    uniq = np.unique(kept, axis=0) if len(kept) else kept
    arrays = []
    for keys, values in ((uniq[:, 0], uniq[:, 1]), (uniq[:, 1], uniq[:, 0])):
        order = np.lexsort((values, keys))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, keys[order] + 1, 1)
        np.cumsum(indptr, out=indptr)
        arrays += [indptr, values[order].astype(np.int64)]
    report = LoadReport(
        records=len(edges),
        edges=len(uniq),
        duplicates=len(kept) - len(uniq),
        self_loops=len(edges) - len(kept),
    )
    return arrays, report


@pytest.mark.parametrize("n,m", [(1, 0), (1, 5), (2, 1), (7, 60), (40, 900), (300, 5000)])
@pytest.mark.parametrize("given_n", [True, False])
def test_from_edges_matches_unique_reference(n, m, given_n):
    rng = np.random.default_rng(n * 1000 + m)
    edges = rng.integers(0, n, size=(m, 2))
    if m:
        edges[rng.integers(0, m, size=max(m // 10, 1))] = edges[0]  # duplicates
        edges[-1] = (n - 1, n - 1)  # self-loop on the top id
    g = DirectedGraph.from_edges(edges, n_nodes=n if given_n else None)
    if not given_n:
        kept = edges[edges[:, 0] != edges[:, 1]]
        n = int(kept.max()) + 1 if len(kept) else 0
    arrays, report = reference_csr(edges, n)
    assert g.node_count == n
    assert g.load_report == report
    for a, b, dtype in zip((*g.followee_csr(), *g.follower_csr()), arrays, CSR_DTYPES):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (2, -1)],  # negative endpoint
        [(0, 1), (5, 2)],  # endpoint >= n_nodes
        [(1, -1)],  # key 1*5 - 1 would decode to the valid pair (0, 4)
    ],
)
def test_from_edges_rejects_out_of_range_endpoints(edges):
    with pytest.raises(DataError, match="out of node range"):
        DirectedGraph.from_edges(np.array(edges), n_nodes=5)


def test_from_edges_rejects_negative_without_n_nodes():
    with pytest.raises(DataError, match="out of node range"):
        DirectedGraph.from_edges(np.array([(1, -1), (0, 4)]))


# -- construction against the earlier two-argsort build ---------------------------


def argsort_build(edges, node_ids=None, n_nodes=None):
    """The earlier DirectedGraph.from_edges: self-loops masked out, a sorted
    unique key per pair, then one argsort per direction.  Returns the four
    CSR arrays, the node ids and the load report."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n_records = len(edges)
    keep = edges[:, 0] != edges[:, 1]
    n_self = int(n_records - keep.sum())
    edges = edges[keep]
    if n_nodes is None:
        n_nodes = int(edges.max()) + 1 if len(edges) else 0
    if node_ids is None:
        w = len(str(max(n_nodes - 1, 0)))
        node_ids = tuple(map(f"%0{w}d".__mod__, range(n_nodes)))
    if len(node_ids) != n_nodes:
        raise DataError(f"expected {n_nodes} node ids, got {len(node_ids)}")
    if len(edges) and (edges.min() < 0 or edges.max() >= n_nodes):
        raise DataError("edge endpoint out of node range")
    span = max(n_nodes, 1)
    key = np.sort(edges[:, 0] * span + edges[:, 1])
    key = key[np.diff(key, prepend=-1) != 0]
    edges = np.column_stack([key // span, key % span])
    arrays = []
    for keys, values in ((edges[:, 0], edges[:, 1]), (edges[:, 1], edges[:, 0])):
        order = np.argsort(keys * n_nodes + values)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=n_nodes), out=indptr[1:])
        arrays += [indptr, values[order]]
    report = LoadReport(n_records, len(edges), n_records - n_self - len(edges), n_self)
    return arrays, node_ids, report


@st.composite
def edge_arrays(draw, slack=0):
    """(edges, n_nodes or None): random rows over n ids, so self-loops,
    duplicates, unsorted rows and isolated nodes all occur; m may be 0.
    With slack, endpoints may fall up to `slack` outside [0, n)."""
    n = draw(st.integers(0, 12))
    ids = st.integers(-slack, max(n - 1, 0) + slack)
    rows = draw(st.lists(st.tuples(ids, ids), max_size=40))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    return edges, draw(st.sampled_from([n, None]))


def from_edges_parts(edges, **kwargs):
    """DirectedGraph.from_edges as argsort_build returns it."""
    g = DirectedGraph.from_edges(edges, **kwargs)
    arrays = [*g.followee_csr(), *g.follower_csr()]
    for a, dtype in zip(arrays, CSR_DTYPES):
        assert a.dtype == dtype and not a.flags.writeable
    return arrays, g.node_ids, g.load_report


def outcome(build, edges, **kwargs):
    """What `build` returns, or the message of the DataError it raises."""
    try:
        return build(edges, **kwargs)
    except DataError as e:
        return str(e)


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert got[1:] == want[1:]
    for a, b in zip(got[0], want[0]):
        assert b.dtype == np.int64 and np.array_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(edge_arrays())
def test_from_edges_matches_argsort_build(case):
    edges, n_nodes = case
    got = from_edges_parts(edges, n_nodes=n_nodes)
    assert_same_outcome(got, argsort_build(edges, n_nodes=n_nodes))


@settings(max_examples=300, deadline=None)
@given(edge_arrays(slack=2), st.integers(-1, 1))
def test_from_edges_errors_match_argsort_build(case, id_count_change):
    # out-of-range endpoints and a wrong node-id count raise DataError alike
    edges, n_nodes = case
    kwargs = {"n_nodes": n_nodes}
    if n_nodes is not None and id_count_change:
        kwargs["node_ids"] = tuple(f"v{i}" for i in range(max(n_nodes + id_count_change, 0)))
    got = outcome(from_edges_parts, edges, **kwargs)
    assert_same_outcome(got, outcome(argsort_build, edges, **kwargs))


def test_from_edges_working_memory_is_about_three_words_per_edge():
    # tracemalloc sees every numpy buffer, so the peak is exact and repeatable;
    # the earlier two-argsort build peaked at 7.1 words per edge on this input
    m, n = 200_000, 10_000
    edges = np.random.default_rng(17).integers(0, n, size=(m, 2))
    node_ids = tuple(map(str, range(n)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = DirectedGraph.from_edges(edges, node_ids=node_ids, n_nodes=n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.edge_count > 0.99 * m
    assert peak <= 4 * 8 * m


@settings(max_examples=300, deadline=None)
@given(edge_arrays())
def test_mutual_csr_matches_per_node_mutual(case):
    # includes graphs with no nodes, with no edges and with only self-loops
    edges, n_nodes = case
    g = DirectedGraph.from_edges(edges, n_nodes=n_nodes)
    ptr, ids = g.mutual_csr()
    assert ptr.dtype == np.int64 and ids.dtype == np.int32
    assert len(ptr) == g.node_count + 1 and ptr[0] == 0 and ptr[-1] == len(ids)
    for i in range(g.node_count):
        assert np.array_equal(ids[ptr[i] : ptr[i + 1]], g.mutual(i))


def test_mutual_csr_working_memory_is_at_most_six_words_per_edge():
    # np.isin over the two key arrays peaked at 13.6 words per edge here; the
    # key range is too wide for its lookup-table path, as on any large graph
    m, n = 200_000, 5_000
    edges = np.random.default_rng(19).integers(0, n, size=(m, 2))
    g = DirectedGraph.from_edges(edges, n_nodes=n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ptr, ids = g.mutual_csr()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(ids) > 1000
    assert peak <= 6 * 8 * g.edge_count


# -- cache compatibility ------------------------------------------------------------


def save_whole_members(g, path, compress_type=zipfile.ZIP_DEFLATED):
    """The cache writer of earlier builds: each member copied whole into a
    buffer, then written by `writestr`; deflated at level 1 by default."""
    offsets = np.zeros(len(g.node_ids) + 1, dtype=np.int64)
    np.cumsum([len(x) for x in g.node_ids], out=offsets[1:])
    text = "".join(g.node_ids).encode("utf-8", "surrogatepass")
    arrays = {
        "format": np.array(CACHE_FORMAT),
        "version": np.array(CACHE_VERSION, dtype=np.int64),
        "followee_indptr": g.followee_csr()[0],
        "followee_ids": g.followee_csr()[1],
        "follower_indptr": g.follower_csr()[0],
        "follower_ids": g.follower_csr()[1],
        "node_id_utf8": np.frombuffer(text, dtype=np.uint8),
        "node_id_offsets": offsets,
    }
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o600 << 16
            zf.writestr(info, buf.getvalue(), compress_type, 1)


@pytest.mark.parametrize("make", ["exotic", "synth"])
def test_deflated_cache_of_earlier_builds_loads(tmp_path, make):
    g = exotic_graph(tmp_path) if make == "exotic" else synth_graph()
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    save_whole_members(g, old)
    g.save(new)
    assert_same_graph(g, DirectedGraph.load(old))
    # the members hold the same bytes; only their compression differs
    with zipfile.ZipFile(old) as a, zipfile.ZipFile(new) as b:
        assert a.namelist() == b.namelist()
        assert all(a.read(name) == b.read(name) for name in a.namelist())
        assert {i.compress_type for i in a.infolist()} == {zipfile.ZIP_DEFLATED}


@pytest.mark.parametrize("make", ["exotic", "synth"])
def test_streamed_save_writes_the_bytes_of_whole_member_writes(tmp_path, make):
    g = exotic_graph(tmp_path) if make == "exotic" else synth_graph()
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    save_whole_members(g, old, zipfile.ZIP_STORED)
    g.save(new)
    assert new.read_bytes() == old.read_bytes()


def test_cache_members_are_stored(tmp_path):
    p = tmp_path / "g.npz"
    synth_graph().save(p)
    with zipfile.ZipFile(p) as zf:
        infos = zf.infolist()
    assert len(infos) == 8
    assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)


# -- int32 neighbor ids and the node-id text ---------------------------------------


def test_ids_are_read_only_int32_and_offsets_int64(tmp_path):
    p = tmp_path / "g.npz"
    synth_graph().save(p)
    wide = DirectedGraph.from_edges(np.array([(0, 1), (1, 0), (2, 1)], dtype=np.int64))
    for g in (synth_graph(), wide, DirectedGraph.load(p)):
        arrays = (*g.followee_csr(), *g.follower_csr(), *g.mutual_csr())
        for a, dtype in zip(arrays, CSR_DTYPES + CSR_DTYPES[:2], strict=True):
            assert a.dtype == dtype and not a.flags.writeable


def test_from_edges_reads_int32_edges_without_a_wide_copy():
    # an int64 copy of this input is 2 words per edge on its own: the build
    # that made one peaked at 5.5 words per edge here, this one at 2.3
    m, n = 200_000, 10_000
    edges = np.random.default_rng(17).integers(0, n, size=(m, 2), dtype=np.int32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = DirectedGraph.from_edges(edges, n_nodes=n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.edge_count > 0.99 * m
    assert peak <= 3 * 8 * m


@pytest.mark.parametrize(
    "edges, n_nodes",
    [(np.empty((0, 2), np.int64), 2**31), (np.array([(0, 2**31 - 1)]), None)],
)
def test_from_edges_rejects_more_nodes_than_int32_ids_hold(edges, n_nodes):
    # raised before any node id is built: nothing near n_nodes is allocated
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="2147483648 nodes exceed the int32 id range"):
            DirectedGraph.from_edges(edges, n_nodes=n_nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 100, 101, 12_345])
def test_default_ids_are_zero_padded_to_one_width(n):
    g = DirectedGraph.from_edges(np.empty((0, 2), np.int64), n_nodes=n)
    w = len(str(max(n - 1, 0)))
    assert g.node_ids == tuple(f"%0{w}d" % i for i in range(n))


def test_node_ids_are_built_on_first_use(tmp_path):
    p = tmp_path / "g.npz"
    synth_graph().save(p)
    g = DirectedGraph.load(p)
    assert g.external_ids([5, 0, 199]) == ["005", "000", "199"]
    assert "_node_ids" not in vars(g)
    assert g.node_ids[:2] == ("000", "001") and "_node_ids" in vars(g)


def written(write, path, *args):
    """The bytes `write(path, *args)` leaves, or the type of what it raises."""
    try:
        write(path, *args)
    except (ValueError, csv.Error) as e:  # a lone surrogate does not encode
        return type(e)
    return path.read_bytes()


# any code point, NUL and lone surrogates included
any_char = st.characters(exclude_categories=()) | st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
any_text = st.text(any_char, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_text, min_size=1, max_size=8), st.data())
def test_exotic_ids_survive_the_id_text(tmp_path_factory, ids, data):
    ids = tuple(ids)
    n = len(ids)
    edges = np.array([(i, (i + 1) % n) for i in range(n)])
    g = DirectedGraph.from_edges(edges, node_ids=ids, n_nodes=n)
    assert g.node_ids == ids
    # to_csv writes the labels the id tuple gives, or fails as writing them does
    adopted = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    log = AdoptionLog(np.where(adopted, 0, NEVER), first_day=0, last_day=0)
    nodes = log.adopters()
    labels = [ids[i] for i in nodes.tolist()]
    assert g.external_ids(nodes) == labels
    d = tmp_path_factory.mktemp("ids")
    want = written(errors.write_csv, d / "want.csv", ("node", "day"), (labels, [0] * len(labels)))
    assert written(log.to_csv, d / "got.csv", g) == want
    g.save(d / "g.npz")
    g2 = DirectedGraph.load(d / "g.npz")
    assert g2 == g and g2.node_ids == ids


@settings(max_examples=150, deadline=None)
@given(st.lists(any_text, min_size=1, max_size=8, unique=True), st.data())
def test_resolve_finds_each_label_in_unsorted_ids(ids, data):
    # ids in the order given, over any code point; a label that names no node is -1
    ids = tuple(ids)
    g = DirectedGraph.from_edges(np.empty((0, 2), np.int64), node_ids=ids, n_nodes=len(ids))
    labels = data.draw(st.lists(st.sampled_from(ids) | any_text, max_size=12))
    where = {x: i for i, x in enumerate(ids)}
    got = g.resolve(labels)
    assert got.dtype == np.int64
    assert got.tolist() == [where.get(x, -1) for x in labels]


def test_resolve_reads_the_ids_a_chunk_at_a_time(monkeypatch):
    monkeypatch.setattr(netgraph, "_CHUNK", 7)
    g = DirectedGraph.from_edges(np.empty((0, 2), np.int64), n_nodes=100)
    nodes = np.random.default_rng(3).integers(0, 100, 60)
    labels = g.external_ids(nodes) + ["100", "7", ""]
    assert g.resolve(labels).tolist() == nodes.tolist() + [-1, -1, -1]
    assert "_node_ids" not in vars(g)

