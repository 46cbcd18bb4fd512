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
recon_loss sweeps only the upper strips S[lo:hi, lo:] of the symmetric
S = σ(ẐẐᵀ), bᵢ = RECON_BLOCK rows each (the last may be shorter), twice:
once for the loss and once for the gradient. For Ẑ of width k a call
computes N² + Σ bᵢ² σ entries and (2N² + Σ bᵢ²)·k multiply-adds in its
products, where full row blocks would take 3N²·k. The view is read at its
listed entries, as flat indices into each strip, so the call's memory beyond
the operator is a few strips, O(N · RECON_BLOCK), plus, on an asymmetric
view, its transposed list of 8 bytes per entry.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .hetgraph import EdgeList
from .rng import RngStream

RECON_BLOCK = 128   # rows of each strip of σ(ẐẐᵀ) that recon_loss holds at once
LEAKY_SLOPE = 0.25  # the encoder's negative slope


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


def _sigmoid_strip(z: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The strip S[lo:hi, lo:] of S = σ(z zᵀ), as 1 / (1 + exp(-x)) in place.

    Where exp(-x) overflows to inf, x < -709 and σ(x) < 1e-308 reads 0.0.
    """
    e = z[lo:hi] @ z[lo:].T
    np.negative(e, out=e)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


def _strip_entries(edges: EdgeList, a: int, b: int, lo: int,
                   width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of entries a:b, all in rows lo:lo + RECON_BLOCK, those at columns >= lo: their
    row and column in the strip S[lo:hi, lo:], and their flat index into it."""
    rows, cols = edges.rows[a:b], edges.cols[a:b]
    keep = cols >= lo
    rows, cols = rows[keep] - lo, cols[keep] - lo
    return rows, cols, rows.astype(np.int64) * width + cols


def recon_loss(view: EdgeList, z_hat: np.ndarray, gamma: float = 2.0,
               g: float = 1.0) -> Tuple[float, np.ndarray]:
    """Mean of (1 - cos(row of A, row of σ(ẐẐᵀ)))^gamma over rows of A with edges.

    A is the view, in row-major order. Rows with no edges have no direction
    and are excluded, also from the normalizer. Returns (loss, g times its
    gradient with respect to Ẑ).

    S = σ(ẐẐᵀ) is symmetric, so both passes sweep only its upper strips
    S[lo:hi, lo:], RECON_BLOCK rows each. Pass 1 adds a strip's row sums of
    A∘S and S∘S to rows lo:hi, and its column sums right of the diagonal
    block to rows hi:, where S[lo:hi, hi:] stands for S[hi:, lo:hi]ᵀ and Aᵀ is
    read. With dX = dS∘S∘(1 - S) the gradient is dXẐ + dXᵀẐ: pass 2 computes
    the strip again, forms M = dX[lo:hi, lo:] + dX[lo:, lo:hi]ᵀ, and adds
    M Ẑ[lo:] to rows lo:hi and M[:, b:]ᵀ Ẑ[lo:hi] to rows hi:. A and Aᵀ are
    read at their listed entries, as flat indices into the strip: on a
    symmetric view one list serves both; otherwise Aᵀ is the transposed list,
    built once per call. Every sum over a row runs in a fixed order, strip
    after strip, so the result depends on RECON_BLOCK only in its last bits.
    """
    n = view.shape[0]
    deg = np.bincount(view.rows, minlength=n)
    valid = deg > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("view has no non-empty rows")   # fusion refuses an edgeless view first
    t_view = view if view.symmetric else view.transposed()
    starts = np.array([*range(0, n, RECON_BLOCK), n], dtype=view.rows.dtype)
    # each block's entries; a needle of the rows' dtype spares a cast of the whole list
    bounds = np.searchsorted(view.rows, starts)
    t_bounds = bounds if t_view is view else np.searchsorted(t_view.rows, starts)

    def strips():
        """Per strip: lo, hi, its entries of A and of Aᵀ (see _strip_entries)."""
        for k, lo in enumerate(starts[:-1].tolist()):
            hi, width = min(lo + RECON_BLOCK, n), n - lo
            a = _strip_entries(view, bounds[k], bounds[k + 1], lo, width)
            t = a if t_view is view else _strip_entries(
                t_view, t_bounds[k], t_bounds[k + 1], lo, width)
            yield lo, hi, a, t

    dot = np.zeros(n)
    sq_sum = np.zeros(n)
    for lo, hi, (rows, _, flat), (_, t_cols, t_flat) in strips():
        b = hi - lo
        s = _sigmoid_strip(z_hat, lo, hi)
        dot[lo:hi] += np.bincount(rows, weights=s.take(flat), minlength=b)
        past = t_cols >= b
        dot[hi:] += np.bincount(t_cols[past] - b, weights=s.take(t_flat[past]),
                                minlength=n - hi)
        s *= s
        sq_sum[lo:hi] += s.sum(axis=1)
        sq_sum[hi:] += s[:, b:].sum(axis=0)
    denom = np.sqrt(deg) * np.sqrt(sq_sum)
    defined = denom > 0
    cos = np.where(defined, dot / np.where(defined, denom, 1.0), 0.0)
    base = np.maximum(1.0 - cos, 0.0)
    loss = (np.power(base, gamma) * valid).sum() * (1.0 / n_valid)

    d_cos = (-g / n_valid) * gamma * np.power(base, gamma - 1.0) * valid
    d_cos = np.where(defined, d_cos, 0.0)
    on_edge = d_cos / np.where(defined, denom, 1.0)
    off_self = -d_cos * cos / np.where(defined, sq_sum, 1.0)
    grad = np.zeros_like(z_hat)
    for lo, hi, (rows, cols, flat), (t_rows, t_cols, t_flat) in strips():
        s = _sigmoid_strip(z_hat, lo, hi)
        m = np.add(off_self[lo:hi, None], off_self[None, lo:])
        m *= s
        m_flat = m.reshape(-1)
        m_flat[flat] += on_edge[lo:][rows]   # dX[lo:hi, lo:]'s edge term
        m_flat[t_flat] += on_edge[lo:][t_cols]   # dX[lo:, lo:hi]ᵀ's
        m *= s
        m *= np.subtract(1.0, s, out=s)
        grad[lo:hi] += m @ z_hat[lo:]
        grad[hi:] += m[:, hi - lo:].T @ z_hat[lo:hi]
    return float(loss), grad
