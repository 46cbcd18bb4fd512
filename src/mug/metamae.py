"""Masked adjacency autoencoding per meta-path view.

One symmetric-normalized graph-convolution layer each for encoder and
decoder; the encoder is shared across every view (same parameter object).
Masking removes each present edge with probability edge_mask_rate, one coin
per unordered pair on symmetric views. The reconstruction is compared
row-wise against the full unmasked adjacency with a scaled cosine loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import autodiff as ad
from .rng import RngStream


class DegenerateViewError(ValueError):
    """Every row of the view is empty; the reconstruction loss is undefined."""


@dataclass
class MaskSpec:
    edge_mask_rate: float = 0.5
    resample_per_epoch: bool = True

    def validate(self):
        if not 0.0 <= self.edge_mask_rate <= 1.0:
            raise ValueError(f"edge_mask_rate must be in [0,1], got {self.edge_mask_rate}")


def mask_edges(adj: np.ndarray, spec: MaskSpec, rng: RngStream) -> np.ndarray:
    """The adjacency with each present edge kept with probability 1 - edge_mask_rate.

    Symmetric views flip one coin per unordered pair so the masked view stays
    symmetric; absent entries are never created.
    """
    spec.validate()
    adj = adj.astype(bool)
    u = rng.uniform(adj.shape)
    keep = u >= spec.edge_mask_rate
    if np.array_equal(adj, adj.T):
        upper = np.triu(keep, k=1)
        keep = upper | upper.T
    return adj & keep


def normalized_operator(adj: np.ndarray) -> np.ndarray:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    a = adj.astype(np.float64) + np.eye(adj.shape[0])
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return dinv[:, None] * a * dinv[None, :]


def graph_conv(adj_op: np.ndarray, x: ad.Node, weight: ad.Node, bias: ad.Node) -> ad.Node:
    """adj_op @ x @ W + b with adj_op held constant."""
    if x.shape[1] != weight.shape[0]:
        raise ad.ShapeError(
            f"graph_conv: input width {x.shape[1]} != weight rows {weight.shape[0]}"
        )
    return ad.add(ad.matmul(ad.leaf(adj_op), ad.matmul(x, weight)), bias)


def encode(adj_op: np.ndarray, x: ad.Node, weight: ad.Node, bias: ad.Node) -> ad.Node:
    """The shared encoder: leaky_relu (slope 0.25) over one graph convolution."""
    return ad.leaky_relu(graph_conv(adj_op, x, weight, bias), 0.25)


def reconstruct(adj_op: np.ndarray, z: ad.Node, weight: ad.Node, bias: ad.Node) -> ad.Node:
    """Decoder pass over the same (masked) operator, then sigmoid outer product."""
    z_hat = graph_conv(adj_op, z, weight, bias)
    return ad.sigmoid(ad.matmul(z_hat, ad.transpose(z_hat)))


def autoencode_view(adj: np.ndarray, masked: np.ndarray, x: ad.Node,
                    enc_weight: ad.Node, enc_bias: ad.Node,
                    dec_weight: ad.Node, dec_bias: ad.Node,
                    gamma: float = 2.0) -> Tuple[ad.Node, ad.Node]:
    """Mask-encode-decode-reconstruct one view; returns (encoder output, loss).

    The loss compares the reconstruction against the unmasked adjacency.
    """
    op = normalized_operator(masked)
    z = encode(op, x, enc_weight, enc_bias)
    return z, recon_loss(adj, reconstruct(op, z, dec_weight, dec_bias), gamma)


def recon_loss(adj: np.ndarray, a_hat: ad.Node, gamma: float = 2.0) -> ad.Node:
    """Mean of (1 - cos(row of A, row of Â))^gamma over rows of A with edges.

    Rows with no original edges have no defined direction and are excluded;
    the normalizer is the count of the remaining rows.
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    target = adj.astype(np.float64)
    valid = target.sum(axis=1) > 0
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DegenerateViewError("view has no non-empty rows")
    cos = ad.row_cosine(ad.leaf(target), a_hat)
    per_row = ad.power(ad.add(ad.smul(cos, -1.0), ad.leaf(np.ones((len(target), 1)))), gamma)
    kept = ad.mul(per_row, ad.leaf(valid.astype(np.float64).reshape(-1, 1)))
    return ad.smul(ad.sum_all(kept), 1.0 / n_valid)
