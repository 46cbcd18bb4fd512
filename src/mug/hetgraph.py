"""Heterogeneous graph data model, meta-path adjacency views, homophily diagnostic.

Nodes are grouped by type and addressed by (type, local index); a global
index (type offset + local) addresses every node in the whole graph, which
is the ordering the structural embedding table uses.

Cost model: one meta-path step is a CSR built from its relation's edge list
(step_csr), the one step representation that walks and views share. A
meta-path view is an EdgeList of target x target pairs, joined step by step
and deduplicated by sorting keys, so it costs time in proportion to its path
instances (times a log factor) and memory in proportion to its edges; only
all_views, for readers that want matrices, forms an N x N matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class SchemaError(ValueError):
    """Graph schema inconsistency (bad meta-path, unknown type/relation)."""


@dataclass(frozen=True)
class Relation:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class MetaPath:
    """Alternating type/relation template A1 -R1- A2 ... -Rl- A(l+1)."""

    name: str
    types: Tuple[str, ...]
    relations: Tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.relations)

    @property
    def steps(self) -> Tuple[str, ...]:
        out: List[str] = [self.types[0]]
        for rel, typ in zip(self.relations, self.types[1:]):
            out.extend([rel, typ])
        return tuple(out)

    @staticmethod
    def from_steps(name: str, steps: Sequence[str]) -> "MetaPath":
        if len(steps) < 3 or len(steps) % 2 == 0:
            raise SchemaError(
                f"meta-path '{name}': steps must alternate type,rel,...,type "
                f"(odd length >= 3), got {len(steps)} entries"
            )
        return MetaPath(name, tuple(steps[0::2]), tuple(steps[1::2]))


@dataclass
class HetGraph:
    node_types: List[str]
    relations: List[Relation]
    counts: Dict[str, int]
    node_ids: Dict[str, List[str]]              # original string ids per type
    edges: Dict[str, np.ndarray]                # relation name -> (E, 2) local indices
    target_type: str
    attrs: Dict[str, Optional[np.ndarray]] = field(default_factory=dict)
    labels: Optional[np.ndarray] = None         # per target node, class ids 0..C-1
    metapaths: List[MetaPath] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        if self.target_type not in self.node_types:
            raise SchemaError(f"target type '{self.target_type}' not declared")
        if len(self.node_types) + len(self.relations) <= 2:
            warnings.warn("graph has a single node and relation type; it is homogeneous")
        for rel in self.relations:
            for t in (rel.src, rel.dst):
                if t not in self.node_types:
                    raise SchemaError(f"relation '{rel.name}' references unknown type '{t}'")
        for rel in self.relations:
            e = self.edges.get(rel.name)
            if e is None:
                continue
            if e.size and (
                e[:, 0].min() < 0 or e[:, 0].max() >= self.counts[rel.src]
                or e[:, 1].min() < 0 or e[:, 1].max() >= self.counts[rel.dst]
            ):
                raise SchemaError(f"relation '{rel.name}' has out-of-range endpoints")
        for t, mat in self.attrs.items():
            if mat is not None and mat.shape[0] != self.counts[t]:
                raise SchemaError(
                    f"attribute matrix for '{t}' has {mat.shape[0]} rows, "
                    f"expected {self.counts[t]}"
                )
        if self.labels is not None and len(self.labels) != self.counts[self.target_type]:
            raise SchemaError(
                f"labels cover {len(self.labels)} nodes, expected "
                f"{self.counts[self.target_type]} {self.target_type} nodes"
            )
        for mp in self.metapaths:
            self._validate_metapath(mp)

    def _validate_metapath(self, mp: MetaPath) -> None:
        if mp.types[0] != self.target_type or mp.types[-1] != self.target_type:
            raise SchemaError(
                f"meta-path '{mp.name}' must start and end at the target type "
                f"'{self.target_type}'"
            )
        rel_by_name = {r.name: r for r in self.relations}
        for i, rname in enumerate(mp.relations):
            rel = rel_by_name.get(rname)
            if rel is None:
                raise SchemaError(f"meta-path '{mp.name}' uses unknown relation '{rname}'")
            a, b = mp.types[i], mp.types[i + 1]
            if not ((rel.src, rel.dst) == (a, b) or (rel.src, rel.dst) == (b, a)):
                raise SchemaError(
                    f"meta-path '{mp.name}' step {i}: relation '{rname}' "
                    f"({rel.src}-{rel.dst}) cannot connect {a} to {b}"
                )

    # -- indexing -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return sum(self.counts[t] for t in self.node_types)

    def offset(self, node_type: str) -> int:
        off = 0
        for t in self.node_types:
            if t == node_type:
                return off
            off += self.counts[t]
        raise SchemaError(f"unknown node type '{node_type}'")



@dataclass(frozen=True)
class EdgeList:
    """A view's directed entries, each once; symmetric if every entry's transpose is listed.

    from_pairs lists them in row-major order, which recon_loss relies on.
    """
    shape: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    symmetric: bool

    @staticmethod
    def from_pairs(n: int, rows: np.ndarray, cols: np.ndarray) -> "EdgeList":
        """The n x n view of the given (row, col) pairs, deduplicated, in row-major order."""
        key = np.int32 if n * n <= 2**31 else np.int64   # int32 keys sort twice as fast
        keys = _sorted_unique(np.asarray(rows, dtype=key) * key(n) + np.asarray(cols, dtype=key))
        rows, cols = np.divmod(keys, key(n))
        symmetric = np.array_equal(np.sort(cols * key(n) + rows), keys)
        # int32 halves what pre-training holds for the whole run; a view has < 2**31 rows
        return EdgeList((n, n), rows.astype(np.int32), cols.astype(np.int32), symmetric)

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) with each symmetric pair once, as its row < col entry."""
        listed = self.rows < self.cols if self.symmetric else slice(None)
        return self.rows[listed], self.cols[listed]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The non-negative keys sorted, each once (not np.unique: its first call costs ~10 ms)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def step_csr(g: HetGraph, mp: MetaPath, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of one meta-path step, oriented types[step] -> types[step+1].

    Built from the relation's edge list; each row's neighbours are sorted
    and deduplicated, and both arrays are int64.
    """
    rel_name, src, dst = mp.relations[step], mp.types[step], mp.types[step + 1]
    rel = next((r for r in g.relations if r.name == rel_name), None)
    if rel is None:
        raise SchemaError(f"unknown relation '{rel_name}'")
    e = g.edges.get(rel_name, np.zeros((0, 2), dtype=np.int64)).astype(np.int64)
    if (rel.src, rel.dst) == (src, dst):
        rows, cols = e[:, 0], e[:, 1]
    elif (rel.src, rel.dst) == (dst, src):
        rows, cols = e[:, 1], e[:, 0]
    else:
        raise SchemaError(
            f"relation '{rel_name}' ({rel.src}-{rel.dst}) cannot be oriented "
            f"{src} -> {dst}"
        )
    n_src, n_dst = g.counts[src], g.counts[dst]
    keys = _sorted_unique(rows * n_dst + cols)
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_dst, minlength=n_src), out=indptr[1:])
    return indptr, keys % n_dst


def metapath_edges(g: HetGraph, mp: MetaPath) -> EdgeList:
    """Target x target view: (u, v) is listed iff some path instance joins u to v, u != v.

    Every (start, node) pair reached so far is extended by the node's neighbours
    under the next step's CSR, then deduplicated by key; path counts are discarded.
    """
    g._validate_metapath(mp)
    n = g.counts[g.target_type]
    indptr, dst = step_csr(g, mp, 0)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    for i in range(1, mp.length):
        indptr, indices = step_csr(g, mp, i)
        lo = indptr[dst]
        deg = indptr[dst + 1] - lo
        src = np.repeat(src, deg)
        dst = indices[np.repeat(lo - (np.cumsum(deg) - deg), deg) + np.arange(len(src))]
        if i + 1 < mp.length:   # dedupe before the next join
            m = g.counts[mp.types[i + 1]]
            src, dst = np.divmod(_sorted_unique(src * m + dst), m)
    off = src != dst
    return EdgeList.from_pairs(n, src[off], dst[off])


def all_views(g: HetGraph) -> Dict[str, np.ndarray]:
    """Every view as a dense bool target x target matrix, built from its EdgeList."""
    views = {}
    for mp in g.metapaths:
        edges = metapath_edges(g, mp)
        views[mp.name] = np.zeros(edges.shape, dtype=bool)
        views[mp.name][edges.rows, edges.cols] = True
    return views


class UndefinedRatioError(ValueError):
    """Homophily ratio is undefined for an edgeless view."""


def homophily_ratio(edges: EdgeList, labels: np.ndarray) -> float:
    """Fraction of view edges joining same-label nodes (unordered pairs if symmetric)."""
    rows, cols = edges.pairs()
    if len(rows) == 0:
        raise UndefinedRatioError("view has no edges; homophily undefined")
    return float((labels[rows] == labels[cols]).mean())


def homophily_report(g: HetGraph) -> Tuple[Dict[str, Optional[float]], Optional[float]]:
    """Per-view ratio (None where undefined) and the average over defined views."""
    if g.labels is None:
        raise ValueError("graph has no labels")
    ratios: Dict[str, Optional[float]] = {}
    for mp in g.metapaths:
        try:
            ratios[mp.name] = homophily_ratio(metapath_edges(g, mp), g.labels)
        except UndefinedRatioError:
            ratios[mp.name] = None
    defined = [r for r in ratios.values() if r is not None]
    avg = float(np.mean(defined)) if defined else None
    return ratios, avg


def class_frequency_baseline(labels: np.ndarray) -> float:
    """Expected homophily of a label-blind wiring: sum of squared class frequencies."""
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    freq = counts / counts.sum()
    return float((freq**2).sum())
