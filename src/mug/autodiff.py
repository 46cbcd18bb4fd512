"""Finite-difference checking of hand-derived gradients.

A checked function maps named float64 arrays to (loss, grads): the scalar
loss and one gradient array per name, as the training code computes them.
grad_check compares those gradients with central differences of the loss.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

FD_STEP = 1e-5

Params = Dict[str, np.ndarray]


def _rel_err(a: float, n: float) -> float:
    m = max(abs(a), abs(n))
    if m < 1e-6:  # below central-difference resolution: both effectively zero
        return 0.0
    return abs(a - n) / m


def grad_check(fn: Callable[[Params], Tuple[float, Params]], params: Params) -> Dict[str, float]:
    """Compare the gradients fn returns with central differences of its loss, step FD_STEP.

    fn(params) returns (loss, grads) with grads keyed like params. Returns
    the max relative error per parameter (the report never raises; callers
    compare to their tolerance).
    """
    arrays = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    _, grads = fn({k: v.copy() for k, v in arrays.items()})

    report: Dict[str, float] = {}
    for name, arr in arrays.items():
        analytic = grads[name]
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + FD_STEP
            f_plus = fn(arrays)[0]
            arr[idx] = orig - FD_STEP
            f_minus = fn(arrays)[0]
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            worst = max(worst, _rel_err(analytic[idx], numeric))
        report[name] = worst
    return report
