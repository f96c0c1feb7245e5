"""Directed follower graph: load, validate, serve adjacency in both directions.

Edges are stored twice in CSR form (followees and followers), sorted
ascending, so degree lookups are O(1) and neighbor iteration is
deterministic.  Neighbor ids are int32 and offsets int64, so a graph holds
fewer than 2**31 nodes.  Nodes carry dense 0-based integer ids assigned in
sorted external-id order; the external ids travel with the graph as one text
plus code-point offsets, and their tuple is built only when asked for.  The
binary cache is an npz archive of plain, uncompressed arrays.

Conventions: a record (source, target) means source follows target, so
target is one of source's followees (information sources) and source is one
of target's followers (audience).  in_degree(i) counts followees of i.
"""

from __future__ import annotations

import logging
import zipfile
import zlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DataError, ParseError, read_csv, write_csv

log = logging.getLogger(__name__)

CACHE_FORMAT = "contagion-lab-graph"
CACHE_VERSION = 3
# the largest node count whose ids fit the int32 id arrays
_MAX_NODES = int(np.iinfo(np.int32).max)
# entries per step of the chunked passes (compaction, re-key, id resolution)
_CHUNK = 1 << 14


@dataclass(frozen=True)
class LoadReport:
    """Bookkeeping from an edge-list load."""

    records: int
    edges: int
    duplicates: int
    self_loops: int


class DirectedGraph:
    """Immutable directed graph with CSR adjacency in both directions."""

    def __init__(
        self,
        followee_indptr: np.ndarray,
        followee_ids: np.ndarray,
        follower_indptr: np.ndarray,
        follower_ids: np.ndarray,
        id_text: str,
        id_offsets: np.ndarray,
        load_report: LoadReport | None = None,
    ):
        self._fe_ptr = followee_indptr
        self._fe = followee_ids
        self._fo_ptr = follower_indptr
        self._fo = follower_ids
        # node i's external id is id_text[id_offsets[i] : id_offsets[i + 1]]
        self._id_text = id_text
        self._id_offsets = id_offsets
        self.load_report = load_report
        for a in (self._fe_ptr, self._fe, self._fo_ptr, self._fo, self._id_offsets):
            a.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray,
        node_ids: tuple[str, ...] | None = None,
        n_nodes: int | None = None,
    ) -> "DirectedGraph":
        """Build from an (m, 2) integer array of (source, target) pairs.

        Self-loops are dropped and duplicates collapsed; both are counted in
        the load report.  A signed integer input is read as it is, never
        copied; its keys go to `_from_keys`.  Beyond the input: about 2.3
        words (18 bytes) per edge, measured on 200k edges over 10k nodes.
        """
        edges = np.asarray(edges)
        if edges.dtype.kind != "i":
            edges = edges.astype(np.int64)
        edges = edges.reshape(-1, 2)
        loop = edges[:, 0] == edges[:, 1]
        # the node count and the range check skip self-loop records
        kept = ~loop[:, None] if loop.any() else True
        top = int(edges.max(where=kept, initial=-1))
        n_nodes = top + 1 if n_nodes is None else n_nodes
        if n_nodes > _MAX_NODES:
            raise DataError(f"{n_nodes} nodes exceed the int32 id range (at most {_MAX_NODES})")
        ids = None if node_ids is None else _joined_ids(node_ids)
        if ids is not None and len(ids[1]) - 1 != n_nodes:
            raise DataError(f"expected {n_nodes} node ids, got {len(ids[1]) - 1}")
        # before the keying below, where an out-of-range pair would alias
        if top >= n_nodes or edges.min(where=kept, initial=0) < 0:
            raise DataError("edge endpoint out of node range")
        key = np.multiply(edges[:, 0], max(n_nodes, 1), dtype=np.int64)
        key += edges[:, 1]
        np.putmask(key, loop, -1)
        del loop, kept
        return cls._from_keys(key, n_nodes, ids)

    @classmethod
    def _from_keys(cls, key: np.ndarray, n_nodes: int, ids=None) -> "DirectedGraph":
        """Build from one int64 key per edge record, source·n + target, or -1
        for a self-loop record, and the node ids as (text, offsets), or None
        for the default ids.

        `key` is an owned buffer: it is sorted, compacted and re-keyed in
        place, and both CSRs come from it.  Beyond it: the two int32 id arrays
        and one mask byte per record.
        """
        text, offsets = _padded_ids(max(n_nodes, 0)) if ids is None else ids
        n_records = len(key)
        span = max(n_nodes, 1)
        key.sort()
        # self-loops sort first; then keep the first key of each run
        n_self = int(np.searchsorted(key, 0))
        first = np.empty(n_records - n_self, dtype=bool)
        first[:1] = True
        np.not_equal(key[n_self + 1 :], key[n_self:-1], out=first[1:])
        key = _compact(key, n_self, first)
        del first
        n_dup = n_records - n_self - len(key)
        if n_self:
            log.warning("dropped %d self-loop record(s)", n_self)
        if n_dup:
            log.warning("collapsed %d duplicate record(s)", n_dup)

        # followees of i: the targets of the keys in [i * n, (i + 1) * n)
        bounds = np.arange(n_nodes + 1, dtype=np.int64) * span
        fe_ptr = np.searchsorted(key, bounds)
        fe = np.empty(len(key), dtype=np.int32)
        np.remainder(key, span, out=fe, casting="unsafe")
        # followers of i: the same buffer re-keyed as target * n + source
        key //= span
        for a in range(0, len(key), _CHUNK):
            key[a : a + _CHUNK] += np.multiply(fe[a : a + _CHUNK], span, dtype=np.int64)
        key.sort()
        fo_ptr = np.searchsorted(key, bounds)
        fo = np.empty(len(key), dtype=np.int32)
        np.remainder(key, span, out=fo, casting="unsafe")
        report = LoadReport(n_records, len(fe), n_dup, n_self)
        return cls(fe_ptr, fe, fo_ptr, fo, text, offsets, report)

    # -- basic accessors ----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._fe_ptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self._fe)

    def followees(self, i: int) -> np.ndarray:
        """Nodes i follows (i's information sources), ascending."""
        self._check(i)
        return self._fe[self._fe_ptr[i] : self._fe_ptr[i + 1]]

    def followers(self, i: int) -> np.ndarray:
        """Nodes following i (i's audience), ascending."""
        self._check(i)
        return self._fo[self._fo_ptr[i] : self._fo_ptr[i + 1]]

    def mutual(self, i: int) -> np.ndarray:
        """Reciprocated ties of i, ascending."""
        return np.intersect1d(self.followees(i), self.followers(i))

    @property
    def in_degree(self) -> np.ndarray:
        """Per-node followee count (the exposure channel size k_i)."""
        return np.diff(self._fe_ptr)

    @property
    def out_degree(self) -> np.ndarray:
        """Per-node follower count."""
        return np.diff(self._fo_ptr)

    @property
    def mutual_degree(self) -> np.ndarray:
        return np.diff(self.mutual_csr()[0])

    def edges(self) -> np.ndarray:
        """All (source, target) pairs, sorted by (source, target)."""
        src = np.repeat(np.arange(self.node_count), self.in_degree)
        return np.column_stack([src, self._fe])

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Each dense id's external id, built from the id text on first use."""
        try:
            return self._node_ids
        except AttributeError:
            self._node_ids = tuple(self.external_ids(np.arange(self.node_count)))
            return self._node_ids

    def external_ids(self, nodes) -> list[str]:
        """The external ids of the dense ids `nodes`, in their order, without
        building `node_ids`."""
        nodes = np.asarray(nodes, dtype=np.int64)
        lo, hi = self._id_offsets[nodes].tolist(), self._id_offsets[nodes + 1].tolist()
        return list(map(self._id_text.__getitem__, map(slice, lo, hi)))

    def resolve(self, labels) -> np.ndarray:
        """The dense id of each external id in `labels`, or -1 for a label
        that names no node, as int64.

        One pass over the id text, a chunk of ids at a time, looks each id up
        in a dict of the distinct labels; neither `node_ids` nor a dict over
        every node is built.
        """
        code = {}
        inverse = np.fromiter(
            (code.setdefault(x, len(code)) for x in labels), np.int64, len(labels)
        )
        found = np.full(len(code), -1, dtype=np.int64)
        for a in range(0, self.node_count, _CHUNK):
            ids = self.external_ids(np.arange(a, min(a + _CHUNK, self.node_count)))
            hit = np.fromiter(map(code.get, ids, repeat(-1)), np.int64, len(ids))
            at = np.flatnonzero(hit >= 0)
            # a repeated node id resolves to its last node
            np.maximum.at(found, hit[at], at + a)
        return found[inverse]

    def followee_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._fe_ptr, self._fe

    def follower_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._fo_ptr, self._fo

    def mutual_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of reciprocated ties: the (i, j) edges whose (j, i) also exists,
        found by one searchsorted of the keys i * n + j into the follower
        CSR's keys i * n + f (f follows i), which ascend; 4 words per edge."""
        n = self.node_count
        starts = np.arange(n, dtype=np.int64) * n
        key = np.repeat(starts, self.in_degree)
        key += self._fe
        rev = np.repeat(starts, self.out_degree)
        rev += self._fo
        # a key past the last follower key is compared with the last one
        pos = np.minimum(np.searchsorted(rev, key), len(rev) - 1)
        keep = rev[pos] == key
        del rev, pos
        ptr, ids = np.searchsorted(key[keep], np.append(starts, n * n)), self._fe[keep]
        ptr.setflags(write=False)
        ids.setflags(write=False)
        return ptr, ids

    def _check(self, i: int) -> None:
        if not 0 <= i < self.node_count:
            raise IndexError(f"node id {i} out of range [0, {self.node_count})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self._id_text == other._id_text
            and np.array_equal(self._id_offsets, other._id_offsets)
            and np.array_equal(self._fe_ptr, other._fe_ptr)
            and np.array_equal(self._fe, other._fe)
        )

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        """Write the versioned binary cache (npz), pickle-free.

        Node ids travel as one UTF-8 blob of the concatenated ids plus int64
        code-point offsets, so every id comes back exactly (a fixed-width
        unicode array would drop trailing NULs).  Entries carry a fixed zip
        date so identical graphs produce byte-identical files regardless of
        wall-clock time.  Members are stored uncompressed, guarded by the zip
        CRC-32: neighbor ids barely deflate.  Deflated caches load as well.
        Each member's header and array buffer go straight into its zip entry,
        with no copy.  The archive is written to `path` as given, whatever its
        suffix.
        """
        text = self._id_text.encode("utf-8", "surrogatepass")
        arrays = {
            "format": np.array(CACHE_FORMAT),
            "version": np.array(CACHE_VERSION, dtype=np.int64),
            "followee_indptr": self._fe_ptr,
            "followee_ids": self._fe,
            "follower_indptr": self._fo_ptr,
            "follower_ids": self._fo,
            "node_id_utf8": np.frombuffer(text, dtype=np.uint8),
            "node_id_offsets": self._id_offsets,
        }
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in arrays.items():
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.external_attr = 0o600 << 16
                with zf.open(info, "w") as fh:
                    header = np.lib.format.header_data_from_array_1_0(arr)
                    np.lib.format.write_array_header_1_0(fh, header)
                    fh.write(arr.data)

    @classmethod
    def load(cls, path) -> "DirectedGraph":
        """Read a cache written by `save`, never unpickling anything.

        A file that is not a well-formed current-version cache raises
        DataError naming it; the structural checks are O(edges) reductions.
        """
        try:
            with np.load(path, allow_pickle=False) as z:
                fmt, version = z["format"], z["version"]
                if str(fmt) != CACHE_FORMAT or version.shape or version.dtype.kind not in "iu":
                    raise DataError(f"{path}: not a contagion-lab graph cache")
                if int(version) != CACHE_VERSION:
                    # v1 stored the node ids as a pickled object array, v2
                    # the neighbor ids as int64
                    raise DataError(
                        f"{path}: graph cache version {int(version)} cannot be read "
                        f"(this build reads version {CACHE_VERSION}); "
                        "re-run synth or ingest to rebuild it"
                    )
                arrays = {name: z[name] for name in _CACHE_ARRAYS}
        except (OSError, EOFError, ValueError, KeyError, RuntimeError, zipfile.BadZipFile,
                zlib.error) as e:
            raise DataError(f"{path}: unreadable graph cache: {e}") from e

        for name, dtype in _CACHE_ARRAYS.items():
            if arrays[name].ndim != 1 or arrays[name].dtype != dtype:
                raise DataError(f"{path}: graph cache member {name} is not 1-D {dtype.__name__}")
        fe_ptr, fe, fo_ptr, fo, offsets, utf8 = arrays.values()
        try:
            text = utf8.tobytes().decode("utf-8", "surrogatepass")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: graph cache node ids are not UTF-8: {e}") from e
        n = max(len(offsets) - 1, 0)
        _check_indptr(offsets, n, len(text), "node_id_offsets", path)
        for ptr, ids, name in ((fe_ptr, fe, "followee"), (fo_ptr, fo, "follower")):
            _check_indptr(ptr, n, len(ids), f"{name}_indptr", path)
            if len(ids) and (ids.min() < 0 or ids.max() >= n):
                raise DataError(f"{path}: graph cache {name}_ids outside [0, {n})")
        if len(fe) != len(fo):
            raise DataError(f"{path}: graph cache CSRs hold {len(fe)} and {len(fo)} edges")
        return cls(fe_ptr, fe, fo_ptr, fo, text, offsets)


_CACHE_ARRAYS = {
    "followee_indptr": np.int64,
    "followee_ids": np.int32,
    "follower_indptr": np.int64,
    "follower_ids": np.int32,
    "node_id_offsets": np.int64,
    "node_id_utf8": np.uint8,
}


def _compact(key: np.ndarray, skip: int, keep: np.ndarray) -> np.ndarray:
    """`key[skip:][keep]` written over the front of `key` a chunk at a time,
    as a view of it: an entry moves only toward the front, past entries that
    are already read."""
    end = 0
    for a in range(0, len(keep), _CHUNK):
        part = key[skip + a : skip + a + _CHUNK][keep[a : a + _CHUNK]]
        key[end : end + len(part)] = part
        end += len(part)
    return key[:end]


def _padded_ids(n: int) -> tuple[str, np.ndarray]:
    """The default ids of n nodes, "%0{w}d" % i with w the width of n - 1, as
    one ASCII text and its offsets; zero-padded so that lexical order equals
    numeric order across reloads."""
    w = len(str(max(n - 1, 0)))
    digits = np.empty((n, w), dtype=np.uint8)
    rest = np.arange(n)
    for col in range(w - 1, -1, -1):
        digits[:, col] = rest % 10
        rest //= 10
    digits += ord("0")
    return digits.tobytes().decode("ascii"), np.arange(n + 1, dtype=np.int64) * w


def _joined_ids(node_ids) -> tuple[str, np.ndarray]:
    """Given ids as one text and the int64 code-point offsets of each id."""
    offsets = np.zeros(len(node_ids) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, node_ids), np.int64, len(node_ids)), out=offsets[1:])
    return "".join(node_ids), offsets


def _check_indptr(indptr: np.ndarray, n: int, end: int, name: str, path) -> None:
    """Raise unless `indptr` has n + 1 non-decreasing entries from 0 to `end`."""
    if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != end or (np.diff(indptr) < 0).any():
        raise DataError(
            f"{path}: graph cache {name} is not {n + 1} non-decreasing offsets from 0 to {end}"
        )


def load_edge_list(path) -> DirectedGraph:
    """Load an edge-list CSV (header ``source,target``) into a graph.

    External ids are opaque strings; dense ids are assigned in sorted
    external-id order.  Duplicates collapse, self-loops drop (both counted in
    the attached load report).
    """

    def record(fields):
        pair = tuple(x.strip() for x in fields)
        if len(pair) != 2 or not all(pair):
            raise ValueError(f"expected two non-blank ids, got {fields!r}")
        return pair

    pairs = read_csv(path, ("source", "target"), lambda header: record)
    node_ids = tuple(sorted({x for pair in pairs for x in pair}))
    id_map = {x: i for i, x in enumerate(node_ids)}
    edges = np.array([(id_map[s], id_map[t]) for s, t in pairs], dtype=np.int64)
    return DirectedGraph.from_edges(edges, node_ids=node_ids, n_nodes=len(node_ids))


def read_node_csv(path, g: DirectedGraph, column: str, value, unique: bool):
    """The records of a ``node,<column>`` CSV keyed by `g`'s external ids:
    their dense ids and the `value(field)` of each, as arrays.

    The labels are resolved together, by `g.resolve`.  A label that names no
    node, or a node named twice when `unique`, is an error; without `unique`
    a node's last record wins.  The file is read a second time only when
    something is wrong, checking each record in turn, so that the error names
    the first bad record in file order and its line.
    """
    names = ("node", column)
    labels, values = [], []

    def record(fields):
        labels.append(fields[0].strip())
        values.append(value(fields[1]))

    try:
        read_csv(path, names, lambda header: record)
        failed = False
    except ParseError:
        failed = True
    nodes = g.resolve(labels)
    ordered = np.sort(nodes)
    repeats = unique and np.any(ordered[1:] == ordered[:-1])
    if not failed and ordered.min(initial=0) >= 0 and not repeats:
        values = np.array(values)
        if unique:
            return nodes, values
        # the first of each node in the reversed records is its last record
        nodes, last = np.unique(nodes[::-1], return_index=True)
        return nodes, values[::-1][last]

    known = dict(zip(labels, nodes.tolist()))
    seen = set()

    def check(fields):
        node = known[fields[0].strip()]
        if node < 0:
            raise KeyError(fields[0].strip())
        value(fields[1])
        if unique and node in seen:
            raise ValueError(f"duplicate record for node {fields[0]!r}")
        seen.add(node)

    read_csv(path, names, lambda header: check)
    raise AssertionError(f"{path}: a bad record passed the second read")


def save_id_map(g: DirectedGraph, path) -> None:
    """Persist the dense-id dictionary as CSV (``id,external``)."""
    write_csv(path, ("id", "external"), (range(g.node_count), g.node_ids))
