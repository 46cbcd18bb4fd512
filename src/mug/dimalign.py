"""Dimension-aware alignment: per-dimension basis vectors via one shared affine map.

The map's parameters are (sample_size x k) regardless of how many attribute
dimensions a graph has, which is what makes them transferable across graphs
with different schemas. The node sample is data, not a parameter: a fresh one
is drawn on every graph.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .rng import RngStream


def glorot(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform((fan_in, fan_out)) * 2 * limit - limit


def draw_node_sample(n_target: int, sample_size: int, rng: RngStream) -> np.ndarray:
    """sample_size target indices; with replacement only when the graph is small."""
    return rng.choice(n_target, size=sample_size, replace=n_target < sample_size)


def basis_vectors(weight: ad.Node, bias: ad.Node, sample_values: np.ndarray) -> ad.Node:
    """Row i of the result encodes attribute dimension i: (values over sample)ᵀ W + b."""
    sample_values = np.asarray(sample_values, dtype=np.float64)
    if sample_values.shape[0] != weight.shape[0]:
        raise ad.ShapeError(
            f"sample has {sample_values.shape[0]} rows, weight expects {weight.shape[0]}"
        )
    return ad.add(ad.matmul(ad.leaf(sample_values.T), weight), bias)


def project(basis: ad.Node, unified_attrs) -> ad.Node:
    """Weighted sum of basis vectors by dimension values: X @ S."""
    x = unified_attrs if isinstance(unified_attrs, ad.Node) else ad.leaf(unified_attrs)
    return ad.matmul(x, basis)


def align_loss(basis: ad.Node) -> ad.Node:
    """Squared norm of the basis mean; zero iff the basis is centered."""
    return ad.sum_all(ad.power(ad.col_mean(basis), 2.0))
