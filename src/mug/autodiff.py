"""Minimal reverse-mode differentiation over dense float64 matrices.

Every value is a 2-D numpy array (row-major, float64); scalars are 1x1.
Forward functions evaluate eagerly and build a computation graph of Node
objects; backward() walks the graph once in reverse topological order.
The op set is fixed: exactly what the training losses and the gradient
suite's expressions use (logsigmoid serves only the suite's skip-gram pair
loss), nothing more.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands are not shape-compatible for the requested op."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the op."""


class ContractError(RuntimeError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class NumericsError(FloatingPointError):
    """A public operation produced a non-finite value."""


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={a.ndim}")
    return a


class Node:
    """One computation-graph node: an op tag, its inputs, value and grad."""

    __slots__ = ("op", "inputs", "value", "grad", "extra")

    def __init__(self, op: str, inputs: Sequence["Node"], value: np.ndarray, extra=None):
        if not np.isfinite(value).all():
            raise NumericsError(f"op '{op}' produced non-finite values")
        self.op = op
        self.inputs = tuple(inputs)
        self.value = value
        self.grad = np.zeros_like(value)
        self.extra = extra

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape})"


def leaf(x) -> Node:
    """Wrap an array as a graph leaf (parameter or constant)."""
    return Node("leaf", (), _as_matrix(x).copy())


def as_node(x) -> Node:
    return x if isinstance(x, Node) else leaf(x)


# ---------------------------------------------------------------------------
# Forward ops. Each op registers a backward rule in _BACKWARD keyed by tag;
# the rule receives (node, upstream) and accumulates into node.inputs' grads.
# ---------------------------------------------------------------------------

_BACKWARD: Dict[str, Callable[[Node, np.ndarray], None]] = {}


def _backward_rule(tag: str):
    def deco(fn):
        _BACKWARD[tag] = fn
        return fn

    return deco


def matmul(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    return Node("matmul", (a, b), a.value @ b.value)


@_backward_rule("matmul")
def _bw_matmul(node, g):
    a, b = node.inputs
    a.grad += g @ b.value.T
    b.grad += a.value.T @ g


def transpose(a: Node) -> Node:
    a = as_node(a)
    return Node("transpose", (a,), a.value.T.copy())


@_backward_rule("transpose")
def _bw_transpose(node, g):
    node.inputs[0].grad += g.T


def add(a: Node, b: Node) -> Node:
    """Elementwise add; b may be a 1xK row, broadcast over rows."""
    a, b = as_node(a), as_node(b)
    if a.shape == b.shape:
        kind = "same"
    elif b.shape == (1, a.shape[1]):
        kind = "row"
    else:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    return Node("add", (a, b), a.value + b.value, extra=kind)


@_backward_rule("add")
def _bw_add(node, g):
    a, b = node.inputs
    a.grad += g
    if node.extra == "same":
        b.grad += g
    else:
        b.grad += g.sum(axis=0, keepdims=True)


def mul(a: Node, b: Node) -> Node:
    """Elementwise multiply; b may be 1x1 (scalar broadcast)."""
    a, b = as_node(a), as_node(b)
    if a.shape == b.shape:
        kind = "same"
    elif b.shape == (1, 1):
        kind = "scalar"
    else:
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    return Node("mul", (a, b), a.value * b.value, extra=kind)


@_backward_rule("mul")
def _bw_mul(node, g):
    a, b = node.inputs
    if node.extra == "same":
        a.grad += g * b.value
        b.grad += g * a.value
    else:
        a.grad += g * b.value[0, 0]
        b.grad += (g * a.value).sum().reshape(1, 1)


def smul(a: Node, c: float) -> Node:
    """Multiply by a plain (non-differentiated) scalar constant."""
    a = as_node(a)
    return Node("smul", (a,), a.value * float(c), extra=float(c))


@_backward_rule("smul")
def _bw_smul(node, g):
    node.inputs[0].grad += g * node.extra


def neg(a: Node) -> Node:
    a = as_node(a)
    return Node("neg", (a,), -a.value)


@_backward_rule("neg")
def _bw_neg(node, g):
    node.inputs[0].grad -= g


def sigmoid(a: Node) -> Node:
    a = as_node(a)
    # branch on sign so exp never overflows
    x = a.value
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return Node("sigmoid", (a,), out)


@_backward_rule("sigmoid")
def _bw_sigmoid(node, g):
    s = node.value
    node.inputs[0].grad += g * s * (1.0 - s)


def tanh(a: Node) -> Node:
    a = as_node(a)
    return Node("tanh", (a,), np.tanh(a.value))


@_backward_rule("tanh")
def _bw_tanh(node, g):
    t = node.value
    node.inputs[0].grad += g * (1.0 - t * t)


def logsigmoid(a: Node) -> Node:
    """log(sigmoid(x)), computed stably: min(x,0) - log1p(exp(-|x|))."""
    a = as_node(a)
    x = a.value
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    return Node("logsigmoid", (a,), out)


@_backward_rule("logsigmoid")
def _bw_logsigmoid(node, g):
    x = node.inputs[0].value
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    node.inputs[0].grad += g * (1.0 - s)


def leaky_relu(a: Node, slope: float = 0.25) -> Node:
    a = as_node(a)
    out = np.where(a.value > 0, a.value, slope * a.value)
    return Node("leaky_relu", (a,), out, extra=float(slope))


@_backward_rule("leaky_relu")
def _bw_leaky_relu(node, g):
    x = node.inputs[0].value
    node.inputs[0].grad += g * np.where(x > 0, 1.0, node.extra)


def power(a: Node, p: float) -> Node:
    """Elementwise a**p for a fixed exponent p > 0."""
    a = as_node(a)
    p = float(p)
    if p <= 0:
        raise DomainError(f"power: exponent must be positive, got {p}")
    if p != round(p) and (a.value < 0).any():
        raise DomainError(f"power: negative base with non-integer exponent {p}")
    return Node("power", (a,), np.power(a.value, p), extra=p)


@_backward_rule("power")
def _bw_power(node, g):
    a, p = node.inputs[0], node.extra
    # negative bases only reach here with integral p, where p-1 is integral too
    a.grad += g * p * np.power(a.value, p - 1.0)


def row_cosine(a: Node, b: Node) -> Node:
    """Row-wise cosine similarity, NxK x NxK -> Nx1. Zero rows give 0."""
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise ShapeError(f"row_cosine: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.value, axis=1, keepdims=True)
    nb = np.linalg.norm(b.value, axis=1, keepdims=True)
    dot = (a.value * b.value).sum(axis=1, keepdims=True)
    denom = na * nb
    cos = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
    return Node("row_cosine", (a, b), cos, extra=(na, nb, denom))


@_backward_rule("row_cosine")
def _bw_row_cosine(node, g):
    a, b = node.inputs
    na, nb, denom = node.extra
    cos = node.value
    valid = denom > 0
    safe_den = np.where(valid, denom, 1.0)
    safe_na2 = np.where(na > 0, na * na, 1.0)
    safe_nb2 = np.where(nb > 0, nb * nb, 1.0)
    ga = np.where(valid, b.value / safe_den - cos * a.value / safe_na2, 0.0)
    gb = np.where(valid, a.value / safe_den - cos * b.value / safe_nb2, 0.0)
    a.grad += g * ga
    b.grad += g * gb


def col_mean(a: Node) -> Node:
    a = as_node(a)
    return Node("col_mean", (a,), a.value.mean(axis=0, keepdims=True))


@_backward_rule("col_mean")
def _bw_col_mean(node, g):
    a = node.inputs[0]
    a.grad += np.broadcast_to(g / a.shape[0], a.shape)


def sum_all(a: Node) -> Node:
    a = as_node(a)
    return Node("sum_all", (a,), a.value.sum().reshape(1, 1))


@_backward_rule("sum_all")
def _bw_sum_all(node, g):
    a = node.inputs[0]
    a.grad += np.broadcast_to(g, a.shape)


def mean_all(a: Node) -> Node:
    a = as_node(a)
    return Node("mean_all", (a,), a.value.mean().reshape(1, 1))


@_backward_rule("mean_all")
def _bw_mean_all(node, g):
    a = node.inputs[0]
    a.grad += np.broadcast_to(g / a.value.size, a.shape)


def softmax(a: Node) -> Node:
    """Softmax over a vector (Nx1 or 1xN), max-subtracted for stability."""
    a = as_node(a)
    if 1 not in a.shape:
        raise ShapeError(f"softmax: expected a vector, got {a.shape}")
    z = a.value - a.value.max()
    e = np.exp(z)
    return Node("softmax", (a,), e / e.sum())


@_backward_rule("softmax")
def _bw_softmax(node, g):
    s = node.value
    node.inputs[0].grad += s * (g - (g * s).sum())


def stack_scalars(nodes: Iterable[Node]) -> Node:
    """Stack 1x1 nodes into an Lx1 column vector."""
    nodes = tuple(as_node(n) for n in nodes)
    for n in nodes:
        if n.shape != (1, 1):
            raise ShapeError(f"stack_scalars: expected 1x1 entries, got {n.shape}")
    vals = np.array([[n.value[0, 0]] for n in nodes])
    return Node("stack_scalars", nodes, vals)


@_backward_rule("stack_scalars")
def _bw_stack_scalars(node, g):
    for i, inp in enumerate(node.inputs):
        inp.grad += g[i, 0]


def take(a: Node, i: int, j: int = 0) -> Node:
    """Extract entry (i, j) as a 1x1 node."""
    a = as_node(a)
    if not (0 <= i < a.shape[0] and 0 <= j < a.shape[1]):
        raise ShapeError(f"take: index ({i},{j}) out of range for {a.shape}")
    return Node("take", (a,), a.value[i, j].reshape(1, 1), extra=(i, j))


@_backward_rule("take")
def _bw_take(node, g):
    i, j = node.extra
    node.inputs[0].grad[i, j] += g[0, 0]


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _toposort(root: Node) -> list[Node]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            stack.append((inp, False))
    return order  # inputs before consumers


def backward(root: Node) -> None:
    """Populate grad = d(root)/d(node) for every node reachable from root.

    root must be 1x1. Calling backward twice on the same graph is idempotent:
    reachable grads are reset before accumulation.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward: root must be scalar (1x1), got {root.shape}")
    order = _toposort(root)
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.op == "leaf":
            continue
        _BACKWARD[node.op](node, node.grad)


# ---------------------------------------------------------------------------
# Finite-difference checking
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def _rel_err(a: float, n: float) -> float:
    m = max(abs(a), abs(n))
    if m < 1e-6:  # below central-difference resolution: both effectively zero
        return 0.0
    return abs(a - n) / m


def grad_check(builder: Callable[[Dict[str, Node]], Node],
               params: Dict[str, np.ndarray],
               step: float = FD_STEP) -> Dict[str, float]:
    """Compare analytic gradients of a scalar expression with central differences.

    builder maps named leaf nodes to a scalar Node. Returns the max relative
    error per parameter (the report never raises; callers compare to their
    tolerance).
    """
    arrays = {k: _as_matrix(v).copy() for k, v in params.items()}
    nodes = {k: leaf(v) for k, v in arrays.items()}
    root = builder(nodes)
    if root.shape != (1, 1):
        raise ContractError("grad_check: builder must produce a scalar")
    backward(root)

    def eval_at(tweaked: Dict[str, np.ndarray]) -> float:
        return builder({k: leaf(v) for k, v in tweaked.items()}).value[0, 0]

    report: Dict[str, float] = {}
    for name, arr in arrays.items():
        analytic = nodes[name].grad
        worst = 0.0
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = eval_at(arrays)
            arr[idx] = orig - step
            f_minus = eval_at(arrays)
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, _rel_err(analytic[idx], numeric))
        report[name] = worst
    return report
