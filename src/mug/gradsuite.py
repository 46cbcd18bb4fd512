"""Finite-difference verification suite over every training loss expression.

Each named check builds one loss as a differentiable expression on random
toy instances and compares analytic gradients against central differences.
The CLI runs this suite; the acceptance tests pin its tolerances.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from . import autodiff as ad
from . import dimalign, fusion, metamae

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


def _onehot(i, n):
    v = np.zeros((1, n))
    v[0, i] = 1.0
    return v


def _struct_pair_check() -> Check:
    """Skip-gram pair objective over center/context tables."""
    n, d = 6, 3
    pairs = [(0, 1), (2, 3), (4, 5), (1, 0)]
    negs = [(2, 4), (5, 0), (1, 3), (3, 5)]

    def make_params(rng):
        return {
            "center": rng.uniform(-1, 1, size=(n, d)),
            "context": rng.uniform(-1, 1, size=(n, d)),
        }

    def builder_for(rng):
        def build(nodes):
            total = None
            for (v, u), neg_ids in zip(pairs, negs):
                zv = ad.matmul(ad.leaf(_onehot(v, n)), nodes["center"])
                zu = ad.matmul(ad.leaf(_onehot(u, n)), nodes["context"])
                term = ad.neg(ad.logsigmoid(ad.matmul(zv, ad.transpose(zu))))
                for nb in neg_ids:
                    zn = ad.matmul(ad.leaf(_onehot(nb, n)), nodes["context"])
                    score = ad.matmul(zv, ad.transpose(zn))
                    term = ad.add(term, ad.neg(ad.logsigmoid(ad.neg(score))))
                total = term if total is None else ad.add(total, term)
            return ad.smul(total, 1.0 / len(pairs))

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
        op = metamae.normalized_operator(adj & keep)
        x = rng.uniform(-1, 1, size=(n, d))

        def build(nodes):
            z = metamae.encode(op, ad.leaf(x), nodes["enc.weight"], nodes["enc.bias"])
            a_hat = metamae.reconstruct(op, z, nodes["dec.weight"], nodes["dec.bias"])
            return metamae.recon_loss(adj, a_hat, 2.0)

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
