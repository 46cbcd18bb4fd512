"""Masked adjacency autoencoding per meta-path view.

One symmetric-normalized graph-convolution layer each for encoder and
decoder; every view uses the same encoder and decoder parameters.
Masking removes each present edge with probability edge_mask_rate, one coin
per unordered pair on symmetric views; training draws a fresh mask for every
view in every epoch. The decoded embeddings Ẑ are scored by σ(ẐẐᵀ), compared
row-wise against the full unmasked adjacency with a scaled cosine loss.

Cost model: a view is an EdgeList built once per graph by hetgraph. Masking
keeps a shorter list, one uniform per listed pair. The normalized operator is
a dense N x N float64 matrix, scattered from that list (a fill and a put)
into one buffer per graph each time a view needs it, so pre-training's peak
memory is O(N²) whatever the view count.
recon_loss computes σ(ẐẐᵀ) once per call, RECON_BLOCK rows at a time, with
the same rows of the view as a bool block built from the list, so its memory
beyond the operator is O(N * RECON_BLOCK).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .hetgraph import EdgeList
from .rng import RngStream

RECON_BLOCK = 128   # rows of σ(ẐẐᵀ) that recon_loss holds at once
LEAKY_SLOPE = 0.25  # the encoder's negative slope


class DegenerateViewError(ValueError):
    """Every row of the view is empty; the reconstruction loss is undefined."""


def mask_edges(edges: EdgeList, rate: float, rng: RngStream) -> EdgeList:
    """The edges kept, each with probability 1 - rate; never an absent one.

    One uniform per edges.pairs() entry, in their order. A kept symmetric pair
    is listed as its row < col entry and then, after all of those, its transpose.
    """
    rows, cols = edges.pairs()
    keep = rng.uniform(len(rows)) >= rate
    rows, cols = rows[keep], cols[keep]
    if edges.symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return EdgeList(edges.shape, rows, cols, edges.symmetric)


def normalized_operator(edges: EdgeList, out: Optional[np.ndarray] = None) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of the listed A, written into out when it is given.

    out is zero-filled, each listed entry put at its row-major flat index,
    and then the diagonal's 1/dᵢ added, so a listed (i, i) weighs 2/dᵢ.
    """
    n = edges.shape[0]
    op = np.empty(edges.shape) if out is None else out
    dinv = 1.0 / np.sqrt(np.bincount(edges.rows, minlength=n) + 1.0)
    # both lists are built in place, so each step makes at most one list-sized temporary
    values = dinv[edges.rows]
    values *= dinv[edges.cols]
    flat = edges.rows.astype(np.int64)
    flat *= n
    flat += edges.cols
    op.fill(0.0)
    np.put(op, flat, values)
    op.flat[::n + 1] += dinv * dinv
    return op


def graph_conv(adj_op: np.ndarray, xw: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """adj_op @ xw + b, where xw is the layer input already multiplied by its weight."""
    return adj_op @ xw + bias


def encode(adj_op: np.ndarray, xw: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The shared encoder: leaky_relu (slope LEAKY_SLOPE) over one graph convolution."""
    h = graph_conv(adj_op, xw, bias)
    return np.where(h > 0, h, LEAKY_SLOPE * h)


def _sigmoid_rows(z: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of σ(z zᵀ), with one exp; the sign split keeps exp from overflowing."""
    e = z[lo:hi] @ z.T
    positive = e >= 0
    np.exp(np.negative(np.abs(e, out=e), out=e), out=e)
    s = np.maximum(e, positive)   # exp(-|x|) <= 1, so this is 1 where x >= 0
    e += 1.0
    s /= e
    return s


def recon_loss(view: EdgeList, z_hat: np.ndarray, gamma: float = 2.0,
               g: float = 1.0) -> Tuple[float, np.ndarray]:
    """Mean of (1 - cos(row of A, row of σ(ẐẐᵀ)))^gamma over rows of A with edges.

    A is the view, in row-major order. Rows with no edges have no direction
    and are excluded, also from the normalizer. Returns (loss, g times its
    gradient with respect to Ẑ). Each block of RECON_BLOCK rows of S = σ(ẐẐᵀ)
    gives its rows' cosines, then adds dX_blk Ẑ to its rows and dX_blkᵀ Ẑ_blk
    to all rows; dX = dS * S * (1 - S).
    """
    n = view.shape[0]
    deg = np.bincount(view.rows, minlength=n)
    valid = deg > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DegenerateViewError("view has no non-empty rows")
    scale = (-g / n_valid) * gamma
    base = np.empty(n)
    grad = np.zeros_like(z_hat)
    starts = range(0, n, RECON_BLOCK)
    # each block's entries; a needle of the rows' dtype spares a cast of the whole list
    bounds = np.searchsorted(view.rows, np.array([*starts, n], dtype=view.rows.dtype))
    for lo, a, b in zip(starts, bounds[:-1], bounds[1:]):
        hi = min(lo + RECON_BLOCK, n)
        adj = np.zeros((hi - lo, n), dtype=bool)
        adj[view.rows[a:b] - lo, view.cols[a:b]] = True
        s = _sigmoid_rows(z_hat, lo, hi)
        tmp = adj * s
        dot = tmp.sum(axis=1)
        norm = np.sqrt(np.multiply(s, s, out=tmp).sum(axis=1))
        denom = np.sqrt(deg[lo:hi]) * norm
        defined = denom > 0
        cos = np.where(defined, dot / np.where(defined, denom, 1.0), 0.0)
        base[lo:hi] = np.maximum(1.0 - cos, 0.0)
        d_cos = scale * np.power(base[lo:hi], gamma - 1.0) * valid[lo:hi]
        d_cos = np.where(defined, d_cos, 0.0)
        on_edge = d_cos / np.where(defined, denom, 1.0)
        on_self = d_cos * cos / np.where(defined, norm * norm, 1.0)
        dx = np.multiply(s, -on_self[:, None], out=tmp)
        dx += adj * on_edge[:, None]
        dx *= s
        dx *= np.subtract(1.0, s, out=s)
        grad[lo:hi] += dx @ z_hat
        grad += dx.T @ z_hat[lo:hi]
    loss = (np.power(base, gamma) * valid).sum() * (1.0 / n_valid)
    return float(loss), grad
