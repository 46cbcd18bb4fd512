"""Contextual structural encoding: meta-path walks -> skip-gram embeddings.

Walks visit every node type along the pattern; the embedding table covers
the whole graph (one row per node, global index order). Only target rows
are consumed downstream, where they are concatenated to the node attributes.
The table is per-graph preprocessing: it is retrained on every new graph and
is never part of the transferable checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .hetgraph import HetGraph, MetaPath, step_csr
from .rng import RngStream, STREAM_INIT, STREAM_SGNS, STREAM_WALKS


@dataclass
class WalkConfig:
    walks_per_node: int = 10
    walk_length: int = 20          # edges per walk
    window: int = 5
    negatives: int = 5
    dim: int = 64
    epochs: int = 5
    lr: float = 0.025
    lr_min: float = 0.0001
    neg_distribution: str = "uniform"   # or "freq075"

    def validate(self):
        for name in ("walks_per_node", "walk_length", "window", "negatives",
                     "dim", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.neg_distribution not in ("uniform", "freq075"):
            raise ValueError(f"unknown negative distribution '{self.neg_distribution}'")


@dataclass
class StructTable:
    embeddings: np.ndarray   # num_nodes x dim, global index order


def sample_walks(g: HetGraph, mp: MetaPath, cfg: WalkConfig,
                 rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """walks_per_node walks from every target node, following mp cyclically.

    Returns (walks, lengths): walks is (n_starts*walks_per_node, walk_length+1)
    of global node ids, -1 padded; a dead end just ends the walk early.
    One random stream per start node keeps the draw order schedule-free;
    the caller's stream id namespaces the per-node streams so different
    meta-paths get independent walks.
    """
    cfg.validate()
    steps = [step_csr(g, mp, j) for j in range(mp.length)]
    type_off = np.array([g.offset(t) for t in mp.types[:-1]], dtype=np.int64)

    n_starts = g.counts[g.target_type]
    uniforms = np.empty((n_starts, cfg.walks_per_node, cfg.walk_length))
    base = STREAM_WALKS + (rng.stream_id << 20)
    for s in range(n_starts):
        uniforms[s] = RngStream(rng.seed, base + s).uniform(
            (cfg.walks_per_node, cfg.walk_length)
        )
    starts = np.repeat(np.arange(n_starts, dtype=np.int64), cfg.walks_per_node)
    walks, lens = kernels.run_walks(steps, type_off, starts,
                                    uniforms.reshape(len(starts), cfg.walk_length))
    return walks, lens


def sample_all_walks(g: HetGraph, cfg: WalkConfig,
                     rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """Pooled walk multiset over all declared meta-paths."""
    walks_parts: List[np.ndarray] = []
    lens_parts: List[np.ndarray] = []
    for i, mp in enumerate(g.metapaths):
        w, l = sample_walks(g, mp, cfg, RngStream(rng.seed, i))
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


def _negative_sampler(walks, n_nodes, cfg):
    if cfg.neg_distribution == "uniform":
        def draw(stream: RngStream, shape):
            return stream.integers(0, n_nodes, shape).astype(np.int64)
    else:
        weights = np.bincount(walks[walks >= 0], minlength=n_nodes) ** 0.75
        cum = np.cumsum(weights / weights.sum())

        def draw(stream: RngStream, shape):
            u = stream.uniform(shape)
            return np.minimum(np.searchsorted(cum, u), n_nodes - 1).astype(np.int64)
    return draw


def train_sgns(walks: np.ndarray, lens: np.ndarray, n_nodes: int,
               cfg: WalkConfig, rng: RngStream,
               loss_trace: Optional[list] = None) -> StructTable:
    """Skip-gram with negative sampling over window pairs from the walks.

    Center table is the published embedding; the context table is discarded.
    Mini-batch SGD over the pairs in walk order (kernels.sgns_epoch). No
    score goes through BLAS, so the same (walks, cfg, seed) gives
    bit-identical tables on one machine.
    """
    cfg.validate()
    if walks.size == 0 or lens.sum() == 0:
        raise ValueError("empty walk list")
    centers, contexts = _window_pairs(walks, lens, cfg.window)
    if len(centers) == 0:
        raise ValueError("walks contain no context pairs (all walks length 1?)")

    init = RngStream(rng.seed, STREAM_INIT + rng.stream_id)
    center = (init.uniform((n_nodes, cfg.dim)) - 0.5) / cfg.dim
    context = np.zeros((n_nodes, cfg.dim))

    draw_negatives = _negative_sampler(walks, n_nodes, cfg)
    total = len(centers) * cfg.epochs
    for epoch in range(cfg.epochs):
        stream = RngStream(rng.seed, STREAM_SGNS + (rng.stream_id << 20) + epoch)
        negatives = draw_negatives(stream, (len(centers), cfg.negatives))
        loss = kernels.sgns_epoch(center, context, centers, contexts, negatives,
                                  cfg.lr, cfg.lr_min, epoch * len(centers), total)
        if loss_trace is not None:
            loss_trace.append(loss / len(centers))
    return StructTable(embeddings=center)


def train_struct_table(g: HetGraph, cfg: WalkConfig, rng: RngStream,
                       loss_trace: Optional[list] = None) -> StructTable:
    walks, lens = sample_all_walks(g, cfg, rng)
    return train_sgns(walks, lens, g.num_nodes, cfg, rng, loss_trace)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def unify_attrs(g: HetGraph, table: Optional[StructTable]) -> np.ndarray:
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
        rows = table.embeddings[off:off + g.counts[g.target_type]]
        blocks.append(_normalize_rows(rows))
    if not blocks:
        raise ValueError("no attributes and no struct table: nothing to encode")
    return np.concatenate(blocks, axis=1)
