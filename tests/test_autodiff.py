"""Differentiation engine checks: frozen examples plus the finite-difference oracle."""

import zlib

import numpy as np
import pytest

from mug import autodiff as ad

TOL = 1e-4


def scatter_expr(nodes):
    z = nodes["Z"]
    n = z.shape[0]
    centered = ad.add(z, ad.smul(ad.col_mean(z), -1.0))
    return ad.smul(ad.sum_all(ad.power(centered, 2.0)), -1.0 / n)


def align_expr(nodes):
    m = ad.col_mean(nodes["S"])
    return ad.sum_all(ad.power(m, 2.0))


# -- forward values ----------------------------------------------------------


def test_softmax_equal_logits():
    out = ad.softmax(ad.leaf(np.array([[3.7], [3.7], [3.7]])))
    assert np.allclose(out.value, 1.0 / 3.0)


def test_softmax_simplex_and_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=(6, 1))
        s = ad.softmax(ad.leaf(x)).value
        assert np.all(s > 0) and np.all(s < 1)
        assert abs(s.sum() - 1.0) <= 1e-12
        shifted = ad.softmax(ad.leaf(x + 123.456)).value
        assert np.max(np.abs(s - shifted)) <= 1e-12


# -- backward ----------------------------------------------------------------


def test_backward_linear_case():
    # sum of the elementwise product: grad(A) = B (= B transposed for identity)
    a = ad.leaf(np.eye(2))
    b = ad.leaf(np.eye(2))
    root = ad.sum_all(ad.mul(a, b))
    ad.backward(root)
    assert np.array_equal(a.grad, np.eye(2))
    assert np.array_equal(b.grad, np.eye(2))


def test_backward_linear_matmul_case():
    a = ad.leaf(np.eye(2))
    b = ad.leaf(np.arange(4.0).reshape(2, 2))
    root = ad.sum_all(ad.matmul(a, b))
    ad.backward(root)
    assert np.array_equal(a.grad, np.ones((2, 2)) @ b.value.T)
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_backward_requires_scalar_root():
    x = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ad.ContractError):
        ad.backward(ad.tanh(x))


def test_backward_idempotent():
    x = ad.leaf(np.array([[0.3, -0.2], [0.1, 0.7]]))
    root = ad.sum_all(ad.mul(ad.tanh(x), ad.power(x, 2.0)))
    ad.backward(root)
    first = x.grad.copy()
    ad.backward(root)
    assert np.array_equal(x.grad, first)


def test_backward_unreachable_node_has_zero_grad():
    x = ad.leaf(np.ones((2, 2)))
    unused = ad.tanh(x)
    root = ad.sum_all(ad.tanh(x))
    ad.backward(root)
    assert np.all(unused.grad == 0)


def test_backward_random_composite_matches_fd():
    rng = np.random.default_rng(7)
    for trial in range(10):
        params = {
            "A": rng.uniform(-1, 1, size=(3, 3)),
            "B": rng.uniform(-1, 1, size=(3, 3)),
        }

        def build(nodes):
            h = ad.tanh(ad.matmul(nodes["A"], nodes["B"]))
            s = ad.tanh(ad.add(h, ad.smul(nodes["A"], -1.0)))
            return ad.sum_all(ad.mul(s, h))

        report = ad.grad_check(build, params)
        assert max(report.values()) <= TOL, (trial, report)


# -- error contracts ---------------------------------------------------------


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError) as exc:
        ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_add_shape_error():
    with pytest.raises(ad.ShapeError) as exc:
        ad.add(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 2))))
    assert "(2, 3)" in str(exc.value) and "(3, 2)" in str(exc.value)


def test_power_negative_base_non_integer_exponent():
    with pytest.raises(ad.DomainError):
        ad.power(ad.leaf(np.array([[-1.0]])), 2.5)


def test_power_negative_base_integer_exponent_ok():
    out = ad.power(ad.leaf(np.array([[-2.0]])), 3.0)
    assert out.value[0, 0] == -8.0


# -- grad_check --------------------------------------------------------------


def test_grad_check_scatter_expression():
    rng = np.random.default_rng(11)
    report = ad.grad_check(scatter_expr, {"Z": rng.uniform(-1, 1, size=(5, 4))})
    assert report["Z"] <= TOL


def test_grad_check_align_expression():
    rng = np.random.default_rng(12)
    report = ad.grad_check(align_expr, {"S": rng.uniform(-1, 1, size=(6, 3))})
    assert report["S"] <= TOL


def test_grad_check_constant_expression():
    def build(nodes):
        _ = nodes["X"]
        return ad.leaf(np.array([[4.2]]))

    report = ad.grad_check(build, {"X": np.ones((2, 2))})
    # gradient of a constant is exactly zero, analytically and numerically
    arrays = {"X": np.ones((2, 2))}
    nodes = {"X": ad.leaf(arrays["X"])}
    root = build(nodes)
    ad.backward(root)
    assert np.all(nodes["X"].grad == 0.0)
    assert report["X"] == 0.0


# -- per-op finite-difference property (>= 50 trials each) --------------------

def _rand(rng, shape, low=-1.0, high=1.0):
    return rng.uniform(low, high, size=shape)


def _scalarize(expr, rng):
    weight = ad.leaf(_rand(rng, expr.shape))
    return ad.sum_all(ad.mul(expr, weight))


OP_CASES = {
    "matmul": lambda n, rng: ad.matmul(n["a"], n["b"]),
    "propagate": lambda n, rng: ad.propagate(np.arange(12.0).reshape(4, 3) / 7.0 - 0.8,
                                             n["a"]),
    "add_same": lambda n, rng: ad.add(n["a"], n["b"]),
    "add_row": lambda n, rng: ad.add(n["a"], n["row"]),
    "mul_same": lambda n, rng: ad.mul(n["a"], n["b"]),
    "mul_scalar": lambda n, rng: ad.mul(n["a"], n["s"]),
    "smul": lambda n, rng: ad.smul(n["a"], -1.7),
    "tanh": lambda n, rng: ad.tanh(n["a"]),
    "leaky_relu": lambda n, rng: ad.leaky_relu(n["kink_free"], 0.25),
    "power_2": lambda n, rng: ad.power(n["a"], 2.0),
    "power_3": lambda n, rng: ad.power(n["a"], 3.0),
    "power_frac": lambda n, rng: ad.power(n["pos"], 2.5),
    "col_mean": lambda n, rng: ad.col_mean(n["a"]),
    "mean_all": lambda n, rng: ad.mean_all(n["a"]),
    "softmax": lambda n, rng: ad.softmax(n["vec"]),
    "stack_take": lambda n, rng: ad.stack_scalars(
        [ad.take(n["a"], i, 0) for i in range(n["a"].shape[0])]
    ),
}


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(op_name):
    build_expr = OP_CASES[op_name]
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for trial in range(50):
        a = _rand(rng, (3, 3))
        kink_free = np.where(np.abs(a) < 1e-3, 0.5, a)  # keep FD off the kink
        params = {
            "a": a,
            "b": _rand(rng, (3, 3)),
            "row": _rand(rng, (1, 3)),
            "s": _rand(rng, (1, 1)),
            "pos": _rand(rng, (3, 3), 0.1, 1.0),
            "pos2": _rand(rng, (3, 3), 0.1, 1.0),
            "vec": _rand(rng, (4, 1)),
            "kink_free": kink_free,
        }

        def build(nodes):
            return _scalarize(build_expr(nodes, rng), np.random.default_rng(trial))

        report = ad.grad_check(build, params)
        assert max(report.values()) <= TOL, (op_name, trial, report)
