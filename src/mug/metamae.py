"""Masked adjacency autoencoding per meta-path view.

One symmetric-normalized graph-convolution layer each for encoder and
decoder; every view uses the same encoder and decoder parameters.
Masking removes each present edge with probability edge_mask_rate, one coin
per unordered pair on symmetric views. The decoded embeddings Ẑ are scored
by σ(ẐẐᵀ), compared row-wise against the full unmasked adjacency with a
scaled cosine loss.

Cost model: a view is an EdgeList built once per graph by hetgraph. Masking
keeps a shorter list, one uniform per listed pair, and the normalized
operator, a dense N x N float64 matrix held for the epoch, is scattered from
it. recon_loss computes σ(ẐẐᵀ) once per call, RECON_BLOCK rows at a time,
with the same rows of the view as a bool block built from the list, so its
memory beyond the operators is O(N * RECON_BLOCK).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .hetgraph import EdgeList
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


def mask_edges(edges: EdgeList, spec: MaskSpec, rng: RngStream) -> EdgeList:
    """The edges kept, each with probability 1 - edge_mask_rate; never an absent one.

    One uniform per edges.pairs() entry, in their order. A kept symmetric pair
    is listed as its row < col entry and then, after all of those, its transpose.
    """
    rows, cols = edges.pairs()
    keep = rng.uniform(len(rows)) >= spec.edge_mask_rate
    rows, cols = rows[keep], cols[keep]
    if edges.symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return EdgeList(edges.shape, rows, cols, edges.symmetric)


def normalized_operator(edges: EdgeList) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of the listed A, built by scattering onto its edges.

    The diagonal's 1/dᵢ is added to what is scattered, so a listed (i, i) weighs 2/dᵢ.
    """
    op = np.zeros(edges.shape)
    dinv = 1.0 / np.sqrt(np.bincount(edges.rows, minlength=len(op)) + 1.0)
    op[edges.rows, edges.cols] = dinv[edges.rows] * dinv[edges.cols]
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
    for lo in range(0, n, RECON_BLOCK):
        hi = min(lo + RECON_BLOCK, n)
        adj = np.zeros((hi - lo, n), dtype=bool)
        a, b = np.searchsorted(view.rows, [lo, hi])   # the block's entries
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
