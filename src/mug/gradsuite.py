"""Finite-difference verification of the gradients that update parameters.

Each named check builds one training loss on random toy instances as an
autodiff expression, and autodiff.grad_check compares the gradients its
backward closures give with central differences. The skip-gram check's
closure runs the SGNS kernel itself. The CLI runs this suite; the acceptance
tests pin its tolerances.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import autodiff as ad
from . import dimalign, fusion, kernels, metamae

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
    builder_for: Callable[[np.random.Generator], Callable]


def _struct_pair_check() -> Check:
    """One kernels.sgns_epoch step on one pair equals -lr x the pair loss gradient.

    The node's value is the pair's skip-gram loss, -log σ(c_v . x_u)
    minus the sum over negatives n of log σ(-c_v . x_n). Its backward
    closure runs the kernel on copies of both tables and reads the gradient
    off the step. Targets may repeat: the kernel sums a repeated row's
    steps, as the gradient does.
    """
    n, d, lr = 6, 3, 0.025

    def make_params(rng):
        return {
            "center": rng.uniform(-1, 1, size=(n, d)),
            "context": rng.uniform(-1, 1, size=(n, d)),
        }

    def builder_for(rng):
        v = int(rng.integers(n))
        targets = rng.integers(n, size=4)   # positive, then negatives
        sign = np.array([1.0, -1.0, -1.0, -1.0])

        def build(nodes):
            center, context = nodes["center"], nodes["context"]
            scores = context.value[targets] @ center.value[v]
            loss = np.logaddexp(0.0, -sign * scores).sum()

            def back(g):
                c, x = center.value.copy(), context.value.copy()
                kernels.sgns_epoch(c, x, np.array([v]), targets[:1], targets[None, 1:],
                                   lr, lr, 0, 1)
                center.grad += g[0, 0] * (center.value - c) / lr
                context.grad += g[0, 0] * (context.value - x) / lr

            return ad.Node(np.array([[loss]]), (center, context), back, "sgns_pair")

        return build

    return Check("struct_sgns_pair_loss", make_params, builder_for)


def _align_check() -> Check:
    def make_params(rng):
        return {"S": rng.uniform(-1, 1, size=(6, 3))}

    def builder_for(rng):
        return lambda nodes: dimalign.align_loss(nodes["S"])

    return Check("dim_align_loss", make_params, builder_for)


def _random_view(rng, n):
    adj = rng.random((n, n)) < 0.45
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    adj[0, 1] = adj[1, 0] = True
    return adj


def _recon_check() -> Check:
    """Masked-view reconstruction loss through encoder and decoder."""
    n, d, k = 6, 4, 3

    def make_params(rng):
        return {
            "enc.weight": rng.uniform(-1, 1, size=(d, k)),
            "enc.bias": rng.uniform(-1, 1, size=(1, k)),
            "dec.weight": rng.uniform(-1, 1, size=(k, k)),
            "dec.bias": rng.uniform(-1, 1, size=(1, k)),
        }

    def builder_for(rng):
        adj = _random_view(rng, n)
        keep = rng.random((n, n)) >= 0.5
        keep = np.triu(keep, 1) | np.triu(keep, 1).T
        x = rng.uniform(-1, 1, size=(n, d))

        def build(nodes):
            _, loss = metamae.autoencode_view(
                adj, adj & keep, ad.leaf(x), nodes["enc.weight"], nodes["enc.bias"],
                nodes["dec.weight"], nodes["dec.bias"], 2.0)
            return loss

        return build

    return Check("view_recon_loss", make_params, builder_for)


def _scatter_check() -> Check:
    def make_params(rng):
        return {"Z": rng.uniform(-1, 1, size=(5, 4))}

    def builder_for(rng):
        return lambda nodes: fusion.scatter_loss(nodes["Z"])

    return Check("scatter_loss", make_params, builder_for)


def _total_check() -> Check:
    """Full objective: alignment + attention-weighted reconstruction + scatter."""
    n, d, k, ns = 6, 4, 3, 4
    cfg = fusion.TrainConfig(sample_size=ns, unified_dim=k)

    def make_params(rng):
        return {
            "dim.weight": rng.uniform(-1, 1, size=(ns, k)),
            "dim.bias": rng.uniform(-1, 1, size=(1, k)),
            "enc.weight": rng.uniform(-1, 1, size=(k, k)),
            "enc.bias": rng.uniform(-1, 1, size=(1, k)),
            "dec.weight": rng.uniform(-1, 1, size=(k, k)),
            "dec.bias": rng.uniform(-1, 1, size=(1, k)),
            "att.q": rng.uniform(-1, 1, size=(k, 1)),
            "att.weight": rng.uniform(-1, 1, size=(k, k)),
            "att.bias": rng.uniform(-1, 1, size=(1, k)),
        }

    def builder_for(rng):
        adjs = [_random_view(rng, n) for _ in range(2)]
        masked = []
        for a in adjs:
            keep = rng.random((n, n)) >= 0.5
            keep = np.triu(keep, 1) | np.triu(keep, 1).T
            masked.append(a & keep)
        unified = rng.uniform(-1, 1, size=(n, d))
        sample_idx = rng.choice(n, size=ns, replace=False)

        def build(nodes):
            return fusion.total_loss(
                *fusion._forward(nodes, unified, sample_idx, adjs, masked, cfg), cfg)

        return build

    return Check("total_objective", make_params, builder_for)


def default_checks() -> List[Check]:
    return [_struct_pair_check(), _align_check(), _recon_check(),
            _scatter_check(), _total_check()]


def run_suite(checks: Sequence[Check] = (), instances: int = 20,
              seed: int = 0) -> List[CheckResult]:
    results = []
    for check in checks or default_checks():
        worst = 0.0
        for i in range(instances):
            rng = np.random.default_rng(seed + 1000 * i + zlib.crc32(check.name.encode()) % 997)
            params = check.make_params(rng)
            builder = check.builder_for(rng)
            report = ad.grad_check(builder, params)
            worst = max(worst, max(report.values()))
        results.append(CheckResult(check.name, instances, worst))
    return results
