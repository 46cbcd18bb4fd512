"""Masked adjacency autoencoding per meta-path view.

One symmetric-normalized graph-convolution layer each for encoder and
decoder; every view uses the same encoder and decoder parameters.
Masking removes each present edge with probability edge_mask_rate, one coin
per unordered pair on symmetric views. The decoded embeddings Ẑ are scored
by σ(ẐẐᵀ), compared row-wise against the full unmasked adjacency with a
scaled cosine loss.

Cost model: a view is a dense N x N bool matrix, listed once per graph as
an EdgeList. Masking keeps a shorter list, one uniform per listed edge, and
the normalized operator, a dense N x N float64 matrix held for the epoch,
is scattered from it. recon_loss computes σ(ẐẐᵀ) once per call, RECON_BLOCK
rows at a time, and takes the loss and its gradient from each block, so its
memory beyond the operators is O(N * RECON_BLOCK).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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
    """The edges of a view; a view is fixed, so one list serves every epoch."""
    adj = np.asarray(adj, dtype=bool)
    rows, cols = np.divmod(np.flatnonzero(adj), adj.shape[1])
    symmetric = np.array_equal(adj, adj.T)
    if symmetric:
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
    # int32 halves what pre-training holds for the whole run; a dense view has < 2**31 rows
    return EdgeList(adj.shape, rows.astype(np.int32), cols.astype(np.int32), symmetric)


def mask_edges(edges: EdgeList, spec: MaskSpec, rng: RngStream) -> EdgeList:
    """The edges kept, each with probability 1 - edge_mask_rate.

    One uniform per listed edge, in row-major edge order. Symmetric views
    draw one per upper-triangle edge and keep both directions together (the
    diagonal is dropped); absent entries are never created.
    """
    spec.validate()
    keep = rng.uniform(len(edges.rows)) >= spec.edge_mask_rate
    return EdgeList(edges.shape, edges.rows[keep], edges.cols[keep], edges.symmetric)


def normalized_operator(edges: EdgeList) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of the listed A, built by scattering onto its edges.

    The diagonal's 1/dᵢ is added to what is scattered, so a listed (i, i) weighs 2/dᵢ.
    """
    op = np.zeros(edges.shape)
    rows, cols = edges.rows, edges.cols
    if edges.symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    dinv = 1.0 / np.sqrt(np.bincount(rows, minlength=len(op)) + 1.0)
    op[rows, cols] = dinv[rows] * dinv[cols]
    op.flat[::len(op) + 1] += dinv * dinv
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


def recon_loss(adj: np.ndarray, z_hat: np.ndarray, gamma: float = 2.0,
               g: float = 1.0) -> Tuple[float, np.ndarray]:
    """Mean of (1 - cos(row of A, row of σ(ẐẐᵀ)))^gamma over rows of A with edges.

    Rows with no original edges have no direction and are excluded, also from
    the normalizer. Returns (loss, g times its gradient with respect to Ẑ).
    Each block of RECON_BLOCK rows of S = σ(ẐẐᵀ) gives its rows' cosines, then
    adds dX_blk Ẑ to its rows and dX_blkᵀ Ẑ_blk to all rows; dX = dS * S * (1 - S).
    """
    adj = np.asarray(adj, dtype=bool)
    deg = adj.sum(axis=1)
    valid = deg > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DegenerateViewError("view has no non-empty rows")
    n = len(adj)
    scale = (-g / n_valid) * gamma
    base = np.empty(n)
    grad = np.zeros_like(z_hat)
    for lo in range(0, n, RECON_BLOCK):
        hi = min(lo + RECON_BLOCK, n)
        s = _sigmoid_rows(z_hat, lo, hi)
        tmp = adj[lo:hi] * s
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
        dx += adj[lo:hi] * on_edge[:, None]
        dx *= s
        dx *= np.subtract(1.0, s, out=s)
        grad[lo:hi] += dx @ z_hat
        grad += dx.T @ z_hat[lo:hi]
    loss = (np.power(base, gamma) * valid).sum() * (1.0 / n_valid)
    return float(loss), grad
