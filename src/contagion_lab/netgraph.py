"""Directed follower graph: load, validate, serve adjacency in both directions.

Edges are stored twice in CSR form (followees and followers), sorted
ascending, so degree lookups are O(1) and neighbor iteration is
deterministic.  Nodes carry dense 0-based integer ids assigned in sorted
external-id order; the external-id dictionary travels with the graph.  The
binary cache is an npz archive of plain, uncompressed arrays.

Conventions: a record (source, target) means source follows target, so
target is one of source's followees (information sources) and source is one
of target's followers (audience).  in_degree(i) counts followees of i.
"""

from __future__ import annotations

import io
import logging
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, read_csv, write_csv

log = logging.getLogger(__name__)

CACHE_FORMAT = "contagion-lab-graph"
CACHE_VERSION = 2


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
        node_ids: tuple[str, ...],
        load_report: LoadReport | None = None,
    ):
        self._fe_ptr = followee_indptr
        self._fe = followee_ids
        self._fo_ptr = follower_indptr
        self._fo = follower_ids
        self.node_ids = node_ids
        self.load_report = load_report
        for a in (self._fe_ptr, self._fe, self._fo_ptr, self._fo):
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
        the load report.  Both CSRs come from one int64 key buffer sorted in
        place per direction: about 3 words per edge beyond an int64 input.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n_records = len(edges)
        loop = edges[:, 0] == edges[:, 1]
        n_self = int(loop.sum())
        # the node count and the range check skip self-loop records
        kept = ~loop[:, None] if n_self else True
        top = int(edges.max(where=kept, initial=-1))
        n_nodes = top + 1 if n_nodes is None else n_nodes
        if node_ids is None:
            # zero-pad so lexical order equals numeric order across reloads
            w = len(str(max(n_nodes - 1, 0)))
            node_ids = tuple(map(f"%0{w}d".__mod__, range(n_nodes)))
        if len(node_ids) != n_nodes:
            raise DataError(f"expected {n_nodes} node ids, got {len(node_ids)}")
        # before the keying below, where an out-of-range pair would alias
        if top >= n_nodes or edges.min(where=kept, initial=0) < 0:
            raise DataError("edge endpoint out of node range")

        # one scalar key source * n + target per edge; self-loops are keyed -1,
        # so they sort first and drop with the repeats of the sorted run
        span = max(n_nodes, 1)
        key = edges[:, 0] * span
        key += edges[:, 1]
        np.putmask(key, loop, -1)
        del loop, kept
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]
        n_dup = n_records - n_self - len(key)
        if n_self:
            log.warning("dropped %d self-loop record(s)", n_self)
        if n_dup:
            log.warning("collapsed %d duplicate record(s)", n_dup)

        # followees of i: the targets of the keys in [i * n, (i + 1) * n)
        bounds = np.arange(n_nodes + 1, dtype=np.int64) * span
        fe_ptr = np.searchsorted(key, bounds)
        fe = key % span
        # followers of i: the same buffer re-keyed as target * n + source
        fo = fe * span
        key //= span
        key += fo
        key.sort()
        fo_ptr = np.searchsorted(key, bounds)
        np.remainder(key, span, out=fo)
        return cls(fe_ptr, fe, fo_ptr, fo, node_ids, LoadReport(n_records, len(fe), n_dup, n_self))

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

    def index_of(self, external_id: str) -> int:
        try:
            return self._id_map[external_id]
        except AttributeError:
            self._id_map = {x: i for i, x in enumerate(self.node_ids)}
            return self._id_map[external_id]

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
        return np.searchsorted(key[keep], np.append(starts, n * n)), self._fe[keep]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.node_count:
            raise IndexError(f"node id {i} out of range [0, {self.node_count})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.node_ids == other.node_ids
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
        The archive is written to `path` as given, whatever its suffix.
        """
        offsets = np.zeros(len(self.node_ids) + 1, dtype=np.int64)
        np.cumsum([len(x) for x in self.node_ids], out=offsets[1:])
        text = "".join(self.node_ids).encode("utf-8", "surrogatepass")
        arrays = {
            "format": np.array(CACHE_FORMAT),
            "version": np.array(CACHE_VERSION, dtype=np.int64),
            "followee_indptr": self._fe_ptr,
            "followee_ids": self._fe,
            "follower_indptr": self._fo_ptr,
            "follower_ids": self._fo,
            "node_id_utf8": np.frombuffer(text, dtype=np.uint8),
            "node_id_offsets": offsets,
        }
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in arrays.items():
                buf = io.BytesIO()
                np.lib.format.write_array(buf, arr, allow_pickle=False)
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.external_attr = 0o600 << 16
                zf.writestr(info, buf.getbuffer(), zipfile.ZIP_STORED)

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
                    # v1 stored the node ids as a pickled object array
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
        bounds = offsets.tolist()
        node_ids = tuple(text[i:j] for i, j in zip(bounds[:-1], bounds[1:]))
        return cls(fe_ptr, fe, fo_ptr, fo, node_ids)


_CACHE_ARRAYS = {
    "followee_indptr": np.int64,
    "followee_ids": np.int64,
    "follower_indptr": np.int64,
    "follower_ids": np.int64,
    "node_id_offsets": np.int64,
    "node_id_utf8": np.uint8,
}


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


def save_id_map(g: DirectedGraph, path) -> None:
    """Persist the dense-id dictionary as CSV (``id,external``)."""
    write_csv(path, ("id", "external"), (range(g.node_count), g.node_ids))
