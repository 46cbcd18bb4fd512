"""Basis-vector encoding, projection, and the centering loss."""

import numpy as np
import pytest

from mug import autodiff as ad
from mug import dimalign
from mug.rng import INIT, SAMPLE, RngStream


def test_zero_column_gives_bias():
    w = np.ones((3, 2))
    b = np.array([[0.5, -0.5]])
    sample = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])  # dim 0 all zero
    s = dimalign.basis_vectors(w, b, sample)
    assert np.array_equal(s[0], b[0])


def test_zero_weight_gives_bias_everywhere():
    w = np.zeros((3, 2))
    b = np.array([[1.0, 2.0]])
    sample = np.random.default_rng(0).normal(size=(3, 4))
    s = dimalign.basis_vectors(w, b, sample)
    assert np.allclose(s, np.tile(b, (4, 1)))


def test_basis_matches_hand_multiplication():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # n_s=3, k=2
    b = np.array([[0.1, -0.1]])
    sample = np.array([
        [1.0, 2.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 2.0],
        [2.0, 0.0, 1.0, 3.0],
    ])  # n_s=3, d=4
    s = dimalign.basis_vectors(w, b, sample)
    # hand: s_i = sample[:, i]^T W + b
    want = np.array([
        [1.0 + 2.0 + 0.1, 0.0 + 2.0 - 0.1],
        [2.0 + 0.0 + 0.1, 1.0 + 0.0 - 0.1],
        [0.0 + 1.0 + 0.1, 1.0 + 1.0 - 0.1],
        [1.0 + 3.0 + 0.1, 2.0 + 3.0 - 0.1],
    ])
    assert np.allclose(s, want)


def test_project_one_hot_selects_basis_row():
    s = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = np.array([[0.0, 1.0, 0.0]])
    out = dimalign.project(s, x)
    assert np.array_equal(out, [[3.0, 4.0]])


def test_project_zero_row_gives_zero():
    s = np.ones((3, 2))
    out = dimalign.project(s, np.zeros((1, 3)))
    assert np.array_equal(out, [[0.0, 0.0]])


def test_project_hand_product():
    x = np.array([[1.0, 0.5, 2.0], [0.0, 1.0, -1.0]])
    s = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
    out = dimalign.project(s, x)
    assert np.allclose(out, x @ s)


def test_project_is_linear():
    rng = np.random.default_rng(1)
    s = rng.normal(size=(4, 3))
    x1, x2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    a, b = 0.7, -2.3
    lhs = dimalign.project(s, a * x1 + b * x2)
    rhs = a * dimalign.project(s, x1) + b * dimalign.project(s, x2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_align_loss_symmetric_basis_is_zero():
    a = np.array([[1.0, -2.0, 0.5]])
    s = np.vstack([a, -a])
    assert dimalign.align_loss(s)[0] == pytest.approx(0.0, abs=1e-12)


def test_align_loss_constant_basis():
    c = np.array([0.3, -0.4])
    s = np.tile(c, (5, 1))
    assert dimalign.align_loss(s)[0] == pytest.approx((c**2).sum())


def test_align_loss_matches_direct_and_fd():
    rng = np.random.default_rng(2)
    arr = rng.uniform(-1, 1, size=(5, 3))
    val = dimalign.align_loss(arr)[0]
    assert val == pytest.approx(np.sum(arr.mean(axis=0) ** 2))

    def fn(params):
        loss, grad = dimalign.align_loss(params["S"])
        return loss, {"S": grad}

    report = ad.grad_check(fn, {"S": arr})
    assert report["S"] <= 1e-4


def test_align_loss_nonnegative_zero_iff_centered():
    rng = np.random.default_rng(3)
    for _ in range(20):
        arr = rng.normal(size=(6, 4))
        v = dimalign.align_loss(arr)[0]
        assert v >= 0
        centered = arr - arr.mean(axis=0, keepdims=True)
        assert dimalign.align_loss(centered)[0] <= 1e-12


def test_node_sample_replacement_rule():
    small = dimalign.draw_node_sample(5, 16, RngStream(0, SAMPLE))
    assert len(small) == 16 and small.max() < 5
    big = dimalign.draw_node_sample(100, 16, RngStream(1, SAMPLE))
    assert len(big) == 16 and len(set(big.tolist())) == 16  # without replacement


def test_node_sample_of_exactly_sample_size_targets_is_a_permutation():
    # the edge of the replacement rule: sample_size targets are each drawn once, and
    # one target fewer forces a repeat
    exact = dimalign.draw_node_sample(16, 16, RngStream(3, SAMPLE))
    assert sorted(exact.tolist()) == list(range(16))
    fewer = dimalign.draw_node_sample(15, 16, RngStream(3, SAMPLE))
    assert len(fewer) == 16 and fewer.max() < 15


def test_transfer_shape_law_same_encoder_two_widths():
    weight, bias = dimalign.glorot(RngStream(0, INIT, 0), 8, 5), np.zeros((1, 5))
    rng = np.random.default_rng(4)
    for d in (7, 19):
        x = rng.normal(size=(12, d))
        idx = dimalign.draw_node_sample(12, 8, RngStream(2, SAMPLE))
        s = dimalign.basis_vectors(weight, bias, x[idx])
        out = dimalign.project(s, x)
        assert out.shape == (12, 5)
