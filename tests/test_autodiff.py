"""The finite-difference oracle over functions that return (loss, gradients),
and the objective's reverse pass checked one derivative at a time."""

import zlib

import numpy as np
import pytest

from mug import autodiff as ad
from mug import dimalign, fusion, gradsuite, metamae

TOL = 1e-4


def scatter_expr(params):
    loss, grad = fusion.scatter_loss(params["Z"])
    return loss, {"Z": grad}


def align_expr(params):
    loss, grad = dimalign.align_loss(params["S"])
    return loss, {"S": grad}


def test_grad_check_scatter_expression():
    rng = np.random.default_rng(11)
    report = ad.grad_check(scatter_expr, {"Z": rng.uniform(-1, 1, size=(5, 4))})
    assert report["Z"] <= TOL


def test_grad_check_align_expression():
    rng = np.random.default_rng(12)
    report = ad.grad_check(align_expr, {"S": rng.uniform(-1, 1, size=(6, 3))})
    assert report["S"] <= TOL


def test_grad_check_constant_expression():
    def fn(params):
        return 4.2, {"X": np.zeros_like(params["X"])}

    report = ad.grad_check(fn, {"X": np.ones((2, 2))})
    # gradient of a constant is exactly zero, analytically and numerically
    assert np.all(fn({"X": np.ones((2, 2))})[1]["X"] == 0.0)
    assert report["X"] == 0.0


# Each case names one derivative of fusion.objective's reverse pass. It checks
# the gradient of parameters whose every path to the loss runs through that
# derivative, under loss weights (align, recon, scatter) that keep the path
# live, so a wrong derivative fails its own case and not only the total.
OP_CASES = {
    # β = softmax(scores); one view would make β constant
    "softmax": (2, (0.0, 0.0, 1.0), ("att.q",)),
    # scores = mean over nodes of qᵀ tanh(z W + b)
    "tanh": (2, (0.0, 0.0, 1.0), ("att.weight",)),
    # z = leaky_relu(Â x W_enc + b)
    "leaky_relu": (1, (0.0, 1.0, 0.0), ("enc.bias",)),
    # Ẑ = Â z W_dec + b: the backward multiplies by Âᵀ
    "propagate": (1, (0.0, 1.0, 0.0), ("dec.weight",)),
    # x W_enc, computed once for all views
    "matmul": (2, (0.0, 0.0, 1.0), ("enc.weight",)),
    # the align loss: squared column mean of the basis
    "col_mean": (1, (1.0, 0.0, 0.0), ("dim.weight",)),
    # every bias is one row added to all rows
    "add_row": (2, (1.0, 1.0, 1.0), ("dim.bias", "enc.bias", "dec.bias", "att.bias")),
}


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(op):
    n_views, weights, names = OP_CASES[op]
    check = gradsuite._objective_check(op, n_views, *weights)
    largest = dict.fromkeys(names, 0.0)
    for trial in range(5):
        rng = np.random.default_rng(zlib.crc32(op.encode()) + trial)
        params = check.make_params(rng)
        fn = check.function_for(rng)

        def restricted(sub):
            loss, grads = fn({**params, **sub})
            return loss, {k: grads[k] for k in sub}

        _, grads = restricted({k: params[k] for k in names})
        for k in names:
            largest[k] = max(largest[k], np.abs(grads[k]).max())
        report = ad.grad_check(restricted, {k: params[k] for k in names})
        assert max(report.values()) <= TOL, (op, trial, report)
    # the path is live: its gradient is well above the oracle's 1e-6 floor
    assert min(largest.values()) > 1e-3, (op, largest)


@pytest.mark.parametrize("name", ["asymmetric_views", "total_objective"])
def test_objective_gradient_over_several_operator_strips(monkeypatch, name):
    # the checks' 6-node views fit one strip; at RECON_BLOCK 2 each takes three,
    # and the asymmetric views' transposed products add up across them
    monkeypatch.setattr(metamae, "RECON_BLOCK", 2)
    check = next(c for c in gradsuite.default_checks() if c.name == name)
    [result] = gradsuite.run_suite([check], instances=5)
    assert result.passed, result
