"""Contextual structural encoding: meta-path walks -> skip-gram embeddings.

Walks visit every node type along the pattern; the embedding table covers
the whole graph (one row per node, global index order). Only target rows
are consumed downstream, where they are concatenated to the node attributes.
The table is per-graph preprocessing: it is retrained on every new graph and
is never part of the transferable checkpoint. Skip-gram negatives are drawn
uniformly over all nodes of the graph.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .config import WalkConfig
from .hetgraph import HetGraph, MetaPath, step_csr
from .rng import SGNS, SGNS_INIT, WALKS, RngStream


def sample_walks(g: HetGraph, mp: MetaPath, cfg: WalkConfig,
                 rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """walks_per_node walks from every target node, following mp cyclically.

    Returns (walks, lengths): walks is (n_starts*walks_per_node, walk_length+1)
    of global node ids, -1 padded; a dead end just ends the walk early.
    Rows come in start-node order, walks_per_node rows per node, and all their
    uniforms are one draw of shape (rows, walk_length) from rng.
    """
    steps = [step_csr(g, mp, j) for j in range(mp.length)]
    type_off = np.array([g.offset(t) for t in mp.types[:-1]], dtype=np.int64)

    starts = np.repeat(np.arange(g.counts[g.target_type], dtype=np.int64),
                       cfg.walks_per_node)
    uniforms = rng.uniform((len(starts), cfg.walk_length))
    return kernels.run_walks(steps, type_off, starts, uniforms)


def sample_all_walks(g: HetGraph, cfg: WalkConfig,
                     rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """Pooled walk multiset over all declared meta-paths, view i from stream (WALKS, i)."""
    walks_parts: List[np.ndarray] = []
    lens_parts: List[np.ndarray] = []
    for i, mp in enumerate(g.metapaths):
        w, l = sample_walks(g, mp, cfg, RngStream(rng.seed, WALKS, i))
        walks_parts.append(w)
        lens_parts.append(l)
    return np.concatenate(walks_parts), np.concatenate(lens_parts)


def _window_pairs(walks: np.ndarray, lens: np.ndarray,
                  window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Skip-gram (center, context) pairs in (walk, i, j) order.

    Position j pairs with center position i when 0 < |i - j| <= window and
    both lie inside the walk. Candidate j = i + k - window comes from a
    window-padded copy of each walk, so all pairs are selected at once.
    """
    n_walks, width = walks.shape
    span = 2 * window + 1
    padded = np.full((n_walks, width + 2 * window), -1, dtype=np.int64)
    padded[:, window:window + width] = walks
    cand = np.lib.stride_tricks.sliding_window_view(padded, span, axis=1)[:, :width]
    pos = np.arange(width)
    j = pos[:, None] + np.arange(span) - window          # (width, span)
    n = lens[:, None, None]
    keep = ((pos[None, :, None] < n) & (j >= 0) & (j < n)
            & (j != pos[:, None]))
    centers = np.broadcast_to(walks[:, :, None], keep.shape)[keep]
    return centers, cand[keep]


def train_sgns(walks: np.ndarray, lens: np.ndarray, n_nodes: int,
               cfg: WalkConfig, rng: RngStream) -> np.ndarray:
    """Skip-gram with negative sampling over window pairs from the walks.

    Center table is the published embedding; the context table is discarded.
    Mini-batch SGD over the pairs in walk order (kernels.sgns_epoch). No BLAS
    call, and sums in pair order (np.bincount), so the same (walks, cfg, seed)
    gives bit-identical tables on one machine.

    The context table starts at zero, so the first batch of a run
    (kernels.SGNS_BATCH pairs) moves no center row: a table trained on at
    most one batch in all is its random init.
    """
    if walks.size == 0 or lens.sum() == 0:
        raise ValueError("empty walk list")
    centers, contexts = _window_pairs(walks, lens, cfg.window)
    if len(centers) == 0:
        raise ValueError("walks contain no context pairs (all walks length 1?)")

    init = RngStream(rng.seed, SGNS_INIT)
    center = (init.uniform((n_nodes, cfg.dim)) - 0.5) / cfg.dim
    context = np.zeros((n_nodes, cfg.dim))

    total = len(centers) * cfg.epochs
    for epoch in range(cfg.epochs):
        negatives = RngStream(rng.seed, SGNS, epoch).integers(
            0, n_nodes, (len(centers), cfg.negatives))
        kernels.sgns_epoch(center, context, centers, contexts, negatives,
                           cfg.lr, cfg.lr_min, epoch * len(centers), total)
    return center


def train_struct_table(g: HetGraph, cfg: WalkConfig, rng: RngStream) -> np.ndarray:
    walks, lens = sample_all_walks(g, cfg, rng)
    return train_sgns(walks, lens, g.num_nodes, cfg, rng)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def unify_attrs(g: HetGraph, table: Optional[np.ndarray]) -> np.ndarray:
    """Per-target-node concat of row-normalized attributes and struct rows.

    table=None (structural encoding ablated) gives the attribute block alone;
    a target type without attributes gives the struct block alone.
    """
    blocks = []
    attrs = g.attrs.get(g.target_type)
    if attrs is not None and attrs.shape[1] > 0:
        blocks.append(_normalize_rows(attrs))
    if table is not None:
        off = g.offset(g.target_type)
        rows = table[off:off + g.counts[g.target_type]]
        blocks.append(_normalize_rows(rows))
    if not blocks:
        raise ValueError("no attributes and no struct table: nothing to encode")
    return np.concatenate(blocks, axis=1)
