"""Heterogeneous graph data model, meta-path adjacency views, homophily diagnostic.

Nodes are grouped by type and addressed by (type, local index); a global
index (type offset + local) addresses every node in the whole graph, which
is the ordering the structural embedding table uses.

A schema (node types, relations, target type, meta-paths) is checked by one
function, check_schema, which every producer of a graph calls: the bundle
loader, the synthetic generator's spec and HetGraph.validate. Readers (views,
walks, offsets) trust a built graph and check nothing again.

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


def check_schema(node_types: Sequence[str], relations: Sequence, target_type: str,
                 metapaths: Sequence[MetaPath]) -> None:
    """Raise SchemaError naming the first fault: a name declared twice, an undeclared
    type, a meta-path that does not start and end at the target type, or a step
    whose relation is undeclared or does not join the step's two types.
    """
    for kind, names in (("node type", node_types), ("relation", [r.name for r in relations]),
                        ("meta-path", [m.name for m in metapaths])):
        twice = [name for i, name in enumerate(names) if name in names[:i]]
        if twice:
            raise SchemaError(f"{kind} '{twice[0]}' is declared twice")
    if target_type not in node_types:
        raise SchemaError(f"target type '{target_type}' not declared")
    for rel in relations:
        for t in (rel.src, rel.dst):
            if t not in node_types:
                raise SchemaError(f"relation '{rel.name}' references unknown type '{t}'")
    rel_by_name = {r.name: r for r in relations}
    for mp in metapaths:
        if mp.types[0] != target_type or mp.types[-1] != target_type:
            raise SchemaError(
                f"meta-path '{mp.name}' must start and end at the target type '{target_type}'")
        for i, rname in enumerate(mp.relations):
            rel = rel_by_name.get(rname)
            if rel is None:
                raise SchemaError(f"meta-path '{mp.name}' uses unknown relation '{rname}'")
            a, b = mp.types[i], mp.types[i + 1]
            if (a, b) not in ((rel.src, rel.dst), (rel.dst, rel.src)):
                raise SchemaError(
                    f"meta-path '{mp.name}' step {i}: relation '{rname}' "
                    f"({rel.src}-{rel.dst}) cannot connect {a} to {b}"
                )


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
        """The schema (check_schema), then the data: endpoint ranges, attribute rows, labels."""
        check_schema(self.node_types, self.relations, self.target_type, self.metapaths)
        if len(self.node_types) + len(self.relations) <= 2:
            warnings.warn("graph has a single node and relation type; it is homogeneous")
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

    # -- indexing -----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return sum(self.counts[t] for t in self.node_types)

    def offset(self, node_type: str) -> int:
        before = self.node_types[:self.node_types.index(node_type)]
        return sum(self.counts[t] for t in before)


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
        key = _key_type(n)
        keys = _sorted_unique(np.asarray(rows, dtype=key) * key(n) + np.asarray(cols, dtype=key))
        rows, cols = np.divmod(keys, key(n))
        symmetric = np.array_equal(np.sort(cols * key(n) + rows), keys)
        # int32 halves what pre-training holds for the whole run; a view has < 2**31 rows
        return EdgeList((n, n), rows.astype(np.int32), cols.astype(np.int32), symmetric)

    def transposed(self) -> "EdgeList":
        """The view's transpose, in row-major order: its entries are unique already, so
        one sort of their transposed keys lists them."""
        n = self.shape[0]
        key = _key_type(n)
        keys = np.sort(self.cols.astype(key) * key(n) + self.rows)
        rows, cols = np.divmod(keys, key(n))
        return EdgeList(self.shape, rows.astype(np.int32, copy=False),
                        cols.astype(np.int32, copy=False), self.symmetric)

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) with each symmetric pair once, as its row < col entry."""
        listed = self.rows < self.cols if self.symmetric else slice(None)
        return self.rows[listed], self.cols[listed]


def _key_type(n: int):
    """The type of an n x n view's row * n + col keys: int32 ones sort twice as fast."""
    return np.int32 if n * n <= 2**31 else np.int64


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
    rel = next(r for r in g.relations if r.name == rel_name)
    e = g.edges.get(rel_name, np.zeros((0, 2), dtype=np.int64)).astype(np.int64)
    rows, cols = (e[:, 0], e[:, 1]) if rel.src == src else (e[:, 1], e[:, 0])
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


def homophily_ratio(edges: EdgeList, labels: np.ndarray) -> Optional[float]:
    """Share of view edges joining same-label nodes (unordered if symmetric); None if edgeless."""
    rows, cols = edges.pairs()
    if len(rows) == 0:
        return None
    return float((labels[rows] == labels[cols]).mean())


def homophily_report(g: HetGraph) -> Tuple[Dict[str, Optional[float]], Optional[float]]:
    """Per-view ratio (None where undefined) and the average over defined views."""
    if g.labels is None:
        raise ValueError("graph has no labels")
    ratios = {mp.name: homophily_ratio(metapath_edges(g, mp), g.labels) for mp in g.metapaths}
    defined = [r for r in ratios.values() if r is not None]
    avg = float(np.mean(defined)) if defined else None
    return ratios, avg


def class_frequency_baseline(labels: np.ndarray) -> float:
    """Expected homophily of a label-blind wiring: sum of squared class frequencies."""
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    freq = counts / counts.sum()
    return float((freq**2).sum())
