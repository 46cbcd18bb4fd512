"""Masked adjacency autoencoding per meta-path view.

One symmetric-normalized graph-convolution layer each for encoder and
decoder; every view uses the same encoder and decoder parameters.
Masking removes each present edge with probability edge_mask_rate, one coin
per unordered pair on symmetric views; training draws a fresh mask for every
view in every epoch. The decoded embeddings Ẑ are scored by σ(ẐẐᵀ), compared
row-wise against the full unmasked adjacency with a scaled cosine loss.

Cost model: a view is an EdgeList built once per graph by hetgraph. Masking
keeps a shorter list, one uniform per listed pair. normalized_operator makes
every list an EdgeOperator of 20 bytes per entry, or 12 in strips (intp rows
and cols, values of the compute dtype, float32 in training): one of fewer than
N² · LIST_SHARE entries takes O(entries · k) per product with an N x k matrix,
a longer one O(N² · k) by BLAS, a strip of RECON_BLOCK rows at a time. So peak
memory is O(N · (k + RECON_BLOCK) + entries).
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

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .hetgraph import EdgeList
from .rng import RngStream

RECON_BLOCK = 128   # rows of a strip held at once, of σ(ẐẐᵀ) or of an operator
LEAKY_SLOPE = 0.25  # the encoder's negative slope
LIST_SHARE = 1 / 128   # float32 build + 4 products: lists win below ~N²/208 (N ≥ 1,000), lose ≤ 1.8x up to it
LIST_COLS = 16      # the columns of x one np.bincount of an EdgeOperator product sums


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


@dataclass(frozen=True)
class EdgeOperator:
    """normalized_operator's matrix: the diagonal diag, plus entry e weighing vals[e].

    Listed (starts None): entry e is at (rows[e], cols[e]); op @ x sums each row's
    entries in list order, LIST_COLS columns per np.bincount, and op.T swaps rows and
    cols. In strips: strip s of RECON_BLOCK rows holds entries starts[s]:starts[s + 1],
    at flat indices cols into it; op @ x multiplies each strip by BLAS, with the bits of
    the dense product, and op.T adds strip.T @ x[lo:hi] over them, or is op if symmetric.
    """

    rows: Optional[np.ndarray]   # intp, so that np.bincount and np.take cast nothing
    cols: np.ndarray
    vals: np.ndarray
    diag: np.ndarray
    starts: Optional[np.ndarray] = None
    symmetric: bool = False
    transposed: bool = False     # in strips: op @ x multiplies by the transpose

    @property
    def T(self) -> EdgeOperator:
        if self.starts is None:
            return replace(self, rows=self.cols, cols=self.rows)
        return self if self.symmetric else replace(self, transposed=not self.transposed)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n, k = x.shape
        if self.starts is not None:
            out = (np.zeros if self.transposed else np.empty)(x.shape, x.dtype)
            scratch = np.empty((min(RECON_BLOCK, n), n), self.vals.dtype)
            for lo, a, b in zip(range(0, n, RECON_BLOCK), self.starts, self.starts[1:]):
                hi = min(lo + RECON_BLOCK, n)
                strip = scratch[:hi - lo]
                strip.fill(0.0)
                strip.put(self.cols[a:b], self.vals[a:b])
                strip.reshape(-1)[lo::n + 1] += self.diag[lo:hi]   # at (i - lo, i)
                if self.transposed:
                    out += strip.T @ x[lo:hi]
                else:
                    np.matmul(strip, x, out=out[lo:hi])
            return out
        out = np.multiply(x, self.diag[:, None], order="C")
        bins = None
        for lo in range(0, k, LIST_COLS):
            part = np.take(x[:, lo:lo + LIST_COLS], self.cols, axis=0)
            part *= self.vals[:, None]
            w = part.shape[1]
            if bins is None or bins.shape[1] != w:   # bin row·w + j sums column lo + j of row
                bins = self.rows[:, None] * w + np.arange(w)
            out[:, lo:lo + w] += np.bincount(bins.ravel(), part.ravel(), n * w).reshape(n, w)
        return out


def normalized_operator(edges: EdgeList, dtype=np.float64) -> EdgeOperator:
    """D^-1/2 (A + I) D^-1/2 of the listed A, where a listed (i, i) weighs 2/dᵢ, with
    values of dtype: in list order if A lists fewer than N² · LIST_SHARE entries, else
    in strips."""
    n = edges.shape[0]
    dinv = (1.0 / np.sqrt(np.bincount(edges.rows, minlength=n) + 1.0)).astype(dtype)
    rows, cols = edges.rows.astype(np.intp), edges.cols.astype(np.intp)
    if len(rows) < n * n * LIST_SHARE:
        return EdgeOperator(rows, cols, dinv[rows] * dinv[cols], dinv * dinv)
    order = np.argsort(rows // RECON_BLOCK, kind="stable")
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows // RECON_BLOCK, np.arange(len(range(0, n, RECON_BLOCK)) + 1))
    return EdgeOperator(None, rows % RECON_BLOCK * n + cols, dinv[rows] * dinv[cols],
                        dinv * dinv, starts, edges.symmetric)


def graph_conv(adj_op: EdgeOperator, xw: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """adj_op @ xw + b, where xw is the layer input already multiplied by its weight."""
    return adj_op @ xw + bias


def encode(adj_op: EdgeOperator, xw: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The shared encoder: leaky_relu (slope LEAKY_SLOPE) over one graph convolution."""
    h = graph_conv(adj_op, xw, bias)
    return np.where(h > 0, h, LEAKY_SLOPE * h)


def _sigmoid_strip(z: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The strip S[lo:hi, lo:] of S = σ(z zᵀ), as 1 / (1 + exp(-x)) in place.

    Where exp(-x) overflows to inf, σ(x) reads 0.0: in float32 at x < -88.7, where
    σ(x) < 1.2e-38, and in float64 at x < -709, where σ(x) < 1e-308.
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
    gradient with respect to Ẑ, in Ẑ's dtype).

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

    dot = np.zeros(n, z_hat.dtype)
    sq_sum = np.zeros(n, z_hat.dtype)
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
    denom = np.sqrt(deg, dtype=z_hat.dtype) * np.sqrt(sq_sum)
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
