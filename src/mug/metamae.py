"""Masked adjacency autoencoding per meta-path view.

One symmetric-normalized graph-convolution layer each for encoder and
decoder; every view uses the same encoder and decoder parameters.
Masking removes each present edge with probability edge_mask_rate, one coin
per unordered pair on symmetric views. The decoded embeddings Ẑ are scored
by σ(ẐẐᵀ), compared row-wise against the full unmasked adjacency with a
scaled cosine loss.

Cost model: a view is a dense N x N bool matrix and its normalized operator
a dense N x N float64 matrix, held for the epoch. Masking draws one uniform
per stored edge, from an edge list found once per training run. The loss
never forms σ(ẐẐᵀ) whole: recon_loss computes it in blocks of RECON_BLOCK
rows, once for the loss and again for its gradient, so its memory beyond
the operators is O(N * RECON_BLOCK).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .rng import RngStream

RECON_BLOCK = 128   # rows of σ(ẐẐᵀ) that recon_loss holds at once
LEAKY_SLOPE = 0.25  # the encoder's negative slope


class DegenerateViewError(ValueError):
    """Every row of the view is empty; the reconstruction loss is undefined."""


@dataclass
class MaskSpec:
    edge_mask_rate: float = 0.5
    resample_per_epoch: bool = True

    def validate(self):
        if not 0.0 <= self.edge_mask_rate <= 1.0:
            raise ValueError(f"edge_mask_rate must be in [0,1], got {self.edge_mask_rate}")


@dataclass(frozen=True)
class EdgeList:
    """A view's stored edges in row-major order; upper triangle only if symmetric."""
    shape: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    symmetric: bool


def edge_list(adj: np.ndarray) -> EdgeList:
    """The edges mask_edges draws over; a view is fixed, so one list serves every epoch."""
    adj = np.asarray(adj, dtype=bool)
    rows, cols = np.nonzero(adj)
    symmetric = np.array_equal(adj, adj.T)
    if symmetric:
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
    # int32 halves what pre-training holds for the whole run; a dense view has < 2**31 rows
    return EdgeList(adj.shape, rows.astype(np.int32), cols.astype(np.int32), symmetric)


def mask_edges(edges: EdgeList, spec: MaskSpec, rng: RngStream) -> np.ndarray:
    """The adjacency with each present edge kept with probability 1 - edge_mask_rate.

    One uniform per listed edge, in row-major edge order. Symmetric views
    draw one per upper-triangle edge and keep both directions together (the
    diagonal is dropped); absent entries are never created.
    """
    spec.validate()
    keep = rng.uniform(len(edges.rows)) >= spec.edge_mask_rate
    rows, cols = edges.rows[keep], edges.cols[keep]
    out = np.zeros(edges.shape, dtype=bool)
    out[rows, cols] = True
    if edges.symmetric:
        out[cols, rows] = True
    return out


def normalized_operator(adj: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    op = adj.astype(np.float64)
    op[np.diag_indices_from(op)] += 1.0
    dinv = 1.0 / np.sqrt(op.sum(axis=1))
    op *= dinv[:, None]
    op *= dinv[None, :]
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
    s = np.where(positive, 1.0, e)
    e += 1.0
    s /= e
    return s


def recon_loss(adj: np.ndarray, z_hat: np.ndarray,
               gamma: float = 2.0) -> Tuple[float, Callable[[float], np.ndarray]]:
    """Mean of (1 - cos(row of A, row of σ(ẐẐᵀ)))^gamma over rows of A with edges.

    Rows with no original edges have no defined direction and are excluded;
    the normalizer is the count of the remaining rows. Returns (loss, back):
    back(g) gives g times the loss gradient with respect to Ẑ. Both passes
    work on RECON_BLOCK rows of S = σ(ẐẐᵀ) at a time; back recomputes them
    and adds dX_blk Ẑ to the block's rows and dX_blkᵀ Ẑ_blk to all rows,
    where dX = dS * S * (1 - S).
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    adj = np.asarray(adj, dtype=bool)
    deg = adj.sum(axis=1)
    valid = deg > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DegenerateViewError("view has no non-empty rows")
    n = len(adj)
    blocks = [(lo, min(lo + RECON_BLOCK, n)) for lo in range(0, n, RECON_BLOCK)]
    dot = np.empty(n)
    norm = np.empty(n)
    for lo, hi in blocks:
        s = _sigmoid_rows(z_hat, lo, hi)
        dot[lo:hi] = (adj[lo:hi] * s).sum(axis=1)
        norm[lo:hi] = np.sqrt(np.multiply(s, s, out=s).sum(axis=1))
    denom = np.sqrt(deg) * norm
    defined = denom > 0
    cos = np.where(defined, dot / np.where(defined, denom, 1.0), 0.0)
    base = np.maximum(1.0 - cos, 0.0)
    loss = (np.power(base, gamma) * valid).sum() * (1.0 / n_valid)

    def back(g: float) -> np.ndarray:
        d_cos = (-g / n_valid) * gamma * np.power(base, gamma - 1.0) * valid
        d_cos = np.where(defined, d_cos, 0.0)
        on_edge = d_cos / np.where(defined, denom, 1.0)
        on_self = d_cos * cos / np.where(defined, norm * norm, 1.0)
        grad = np.zeros_like(z_hat)
        for lo, hi in blocks:
            s = _sigmoid_rows(z_hat, lo, hi)
            dx = s * -on_self[lo:hi, None]
            np.add(dx, on_edge[lo:hi, None], out=dx, where=adj[lo:hi])
            dx *= s
            dx *= np.subtract(1.0, s, out=s)
            grad[lo:hi] += dx @ z_hat
            grad += dx.T @ z_hat[lo:hi]
        return grad

    return float(loss), back
