"""Dimension-aware alignment: per-dimension basis vectors via one shared affine map.

The map's parameters are (sample_size x k) regardless of how many attribute
dimensions a graph has, which is what makes them transferable across graphs
with different schemas. The node sample is data, not a parameter: a fresh one
is drawn on every graph.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .rng import RngStream


def glorot(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform((fan_in, fan_out)) * 2 * limit - limit


def draw_node_sample(n_target: int, sample_size: int, rng: RngStream) -> np.ndarray:
    """sample_size target indices; with replacement only when the graph is small."""
    return rng.choice(n_target, size=sample_size, replace=n_target < sample_size)


def basis_vectors(weight: np.ndarray, bias: np.ndarray,
                  sample_values: np.ndarray) -> np.ndarray:
    """Row i of the result encodes attribute dimension i: (values over sample)ᵀ W + b."""
    return sample_values.T @ weight + bias


def project(basis: np.ndarray, unified_attrs: np.ndarray) -> np.ndarray:
    """Weighted sum of basis vectors by dimension values: X @ S."""
    return unified_attrs @ basis


def align_loss(basis: np.ndarray) -> Tuple[float, np.ndarray]:
    """Squared norm of the basis mean, zero iff the basis is centered; and its gradient."""
    mean = basis.mean(axis=0, keepdims=True)
    grad = np.broadcast_to(mean * (2.0 / len(basis)), basis.shape)
    return float(np.power(mean, 2.0).sum()), grad
