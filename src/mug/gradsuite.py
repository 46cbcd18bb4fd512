"""Finite-difference verification of the gradients that update parameters.

Each named check draws random toy instances and a function that maps the
parameters to (loss, gradients) exactly as training computes them;
autodiff.grad_check compares those gradients with central differences. The
four loss checks run fusion.objective on symmetric views, each loss alone
with the other two weights at zero and then all three together; one more
runs all three on asymmetric views, whose operators are not their own
transposes; two more run all three on symmetric and asymmetric edge-list
views; the skip-gram check runs the SGNS kernel itself. The CLI runs this
suite; the acceptance tests pin its tolerances. The checks run objective in
float64; training runs the same code in float32, whose gradients a test compares
with these on the suite's own instances.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import autodiff as ad
from . import config, fusion, kernels
from .hetgraph import EdgeList

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOLERANCE


@dataclass
class Check:
    name: str
    make_params: Callable[[np.random.Generator], Dict[str, np.ndarray]]
    function_for: Callable[[np.random.Generator], Callable]


def _struct_pair_check() -> Check:
    """One kernels.sgns_epoch step on one pair equals -lr x the pair loss gradient.

    The loss is the pair's skip-gram loss, -log σ(c_v . x_u) minus the sum
    over negatives n of log σ(-c_v . x_n). Its gradient is read off a kernel
    step on copies of both tables. Targets may repeat: the kernel sums a
    repeated row's steps, as the gradient does.
    """
    n, d, lr = 6, 3, 0.025

    def make_params(rng):
        return {
            "center": rng.uniform(-1, 1, size=(n, d)),
            "context": rng.uniform(-1, 1, size=(n, d)),
        }

    def function_for(rng):
        v = int(rng.integers(n))
        targets = rng.integers(n, size=4)   # positive, then negatives
        sign = np.array([1.0, -1.0, -1.0, -1.0])

        def fn(p):
            scores = p["context"][targets] @ p["center"][v]
            c, x = p["center"].copy(), p["context"].copy()
            kernels.sgns_epoch(c, x, np.array([v]), targets[:1], targets[None, 1:],
                               lr, lr, 0, 1)
            return (np.logaddexp(0.0, -sign * scores).sum(),
                    {"center": (p["center"] - c) / lr, "context": (p["context"] - x) / lr})

        return fn

    return Check("struct_sgns_pair_loss", make_params, function_for)


def _toy_view(n, pairs, on, symmetric):
    """The view of the (row, col) pairs where on holds, each listed both ways if symmetric."""
    rows, cols = (index[on] for index in pairs)
    if symmetric:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return EdgeList.from_pairs(n, rows, cols)


def _objective_check(name: str, n_views: int, lambda_align: float,
                     lambda_recon: float, lambda_scatter: float,
                     symmetric: bool = True, lists: bool = False) -> Check:
    """fusion.objective on a random toy graph, with the given loss weights.

    Symmetric views draw one coin per i < j pair; asymmetric ones one per
    i != j entry, so their operators differ from their transposes.
    """
    n, d, k, ns = 48 if lists else 6, 4, 3, 4
    cfg = config.TrainConfig(sample_size=ns, unified_dim=k, lambda_align=lambda_align,
                             lambda_recon=lambda_recon, lambda_scatter=lambda_scatter)

    def make_params(rng):
        return {key: rng.uniform(-1, 1, size=shape)
                for key, shape in fusion.param_shapes(cfg)}

    def function_for(rng):
        # row-major either way, so the pair (0, 1) comes first
        pairs = np.triu_indices(n, 1) if symmetric else np.nonzero(~np.eye(n, dtype=bool))
        ons = []
        for _ in range(n_views):   # a pair is an edge where its draw (either, if symmetric) < 0.45
            drawn = rng.random((n, n)) < 0.45
            ons.append((drawn | drawn.T if symmetric else drawn)[pairs])
            if lists:   # 7 pairs and (0, 1), at most 16 entries: under 48² · LIST_SHARE
                ons[-1] = np.isin(np.arange(len(ons[-1])), rng.choice(len(ons[-1]), 7, False))
            ons[-1][0] = True   # so no view is empty
        masked = [_toy_view(n, pairs, on & (rng.random((n, n)) >= 0.5)[pairs], symmetric)
                  for on in ons]
        state = fusion._GraphState(unified=rng.uniform(-1, 1, size=(n, d)),
                                   views=[_toy_view(n, pairs, on, symmetric) for on in ons],
                                   sample_idx=rng.choice(n, size=ns, replace=False))

        def fn(p):
            parts, grads = fusion.objective(p, state, masked, cfg)
            return parts.total, grads

        return fn

    return Check(name, make_params, function_for)


def default_checks() -> List[Check]:
    return [_struct_pair_check(),
            _objective_check("dim_align_loss", 2, 1.0, 0.0, 0.0),
            _objective_check("view_recon_loss", 1, 0.0, 1.0, 0.0),
            _objective_check("scatter_loss", 2, 0.0, 0.0, 1.0),
            _objective_check("total_objective", 2, 1.0, 1.0, 0.1),
            _objective_check("asymmetric_views", 3, 1.0, 1.0, 0.1, symmetric=False),
            _objective_check("list_views", 2, 1.0, 1.0, 0.1, lists=True),
            _objective_check("asymmetric_list_views", 3, 1.0, 1.0, 0.1, False, lists=True)]


def run_suite(checks: Sequence[Check] = (), instances: int = 20,
              seed: int = 0) -> List[CheckResult]:
    if instances < 1:
        raise ValueError(f"--instances must be >= 1, got {instances}")
    results = []
    for check in checks or default_checks():
        worst = 0.0
        for i in range(instances):
            rng = np.random.default_rng(seed + 1000 * i + zlib.crc32(check.name.encode()) % 997)
            params = check.make_params(rng)
            report = ad.grad_check(check.function_for(rng), params)
            worst = max(worst, max(report.values()))
        results.append(CheckResult(check.name, instances, worst))
    return results
