"""Minimal reverse-mode differentiation over dense float64 matrices.

Every value is a 2-D numpy array (row-major, float64); scalars are 1x1.
Each op is one function: it evaluates eagerly and returns a Node holding the
value, the input Nodes and a backward closure. The closure captures what the
op's gradient needs; given the upstream gradient it adds the op's share to
each input's grad. backward() walks the graph once in reverse topological
order and calls the closures.

Gradients are allocated only by backward(), once per node reachable from the
root; a node it never reached reads a zero grad. The op set is exactly what
the training losses use, nothing more.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

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
    """One computation-graph node: value, inputs, backward closure and grad.

    backward is None for a leaf; otherwise backward(g) adds the gradient
    contributions of upstream g to the inputs' grads. op names the op in the
    error raised when the value is not finite.
    """

    __slots__ = ("value", "inputs", "backward", "_grad")

    def __init__(self, value: np.ndarray, inputs: Sequence["Node"] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None,
                 op: str = "leaf"):
        if not np.isfinite(value).all():
            raise NumericsError(f"op '{op}' produced non-finite values")
        self.value = value
        self.inputs = tuple(inputs)
        self.backward = backward
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        """d(root)/d(node) from the last backward(); zero where it never reached."""
        return np.zeros_like(self.value) if self._grad is None else self._grad

    @grad.setter
    def grad(self, value: np.ndarray):
        self._grad = value

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


def leaf(x) -> Node:
    """Wrap an array as a graph leaf (parameter or constant)."""
    return Node(_as_matrix(x).copy())


# ---------------------------------------------------------------------------
# Forward ops, each with its backward closure
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")

    def back(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return Node(a.value @ b.value, (a, b), back, "matmul")


def propagate(op: np.ndarray, x: Node) -> Node:
    """op @ x for a constant operator op: only x gets a gradient."""
    if op.shape[1] != x.shape[0]:
        raise ShapeError(f"propagate: {op.shape} x {x.shape}")

    def back(g):
        x.grad += op.T @ g

    return Node(op @ x.value, (x,), back, "propagate")


def add(a: Node, b: Node) -> Node:
    """Elementwise add; b may be a 1xK row, broadcast over rows."""
    if a.shape == b.shape:
        def back(g):
            a.grad += g
            b.grad += g
    elif b.shape == (1, a.shape[1]):
        def back(g):
            a.grad += g
            b.grad += g.sum(axis=0, keepdims=True)
    else:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    return Node(a.value + b.value, (a, b), back, "add")


def mul(a: Node, b: Node) -> Node:
    """Elementwise multiply; b may be 1x1 (scalar broadcast)."""
    if a.shape == b.shape:
        def back(g):
            a.grad += g * b.value
            b.grad += g * a.value
    elif b.shape == (1, 1):
        def back(g):
            a.grad += g * b.value[0, 0]
            b.grad += (g * a.value).sum().reshape(1, 1)
    else:
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    return Node(a.value * b.value, (a, b), back, "mul")


def smul(a: Node, c: float) -> Node:
    """Multiply by a plain (non-differentiated) scalar constant."""
    c = float(c)

    def back(g):
        a.grad += g * c

    return Node(a.value * c, (a,), back, "smul")


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)

    def back(g):
        a.grad += g * (1.0 - t * t)

    return Node(t, (a,), back, "tanh")


def leaky_relu(a: Node, slope: float = 0.25) -> Node:
    slope = float(slope)

    def back(g):
        a.grad += g * np.where(a.value > 0, 1.0, slope)

    return Node(np.where(a.value > 0, a.value, slope * a.value), (a,), back, "leaky_relu")


def power(a: Node, p: float) -> Node:
    """Elementwise a**p for a fixed exponent p > 0."""
    p = float(p)
    if p <= 0:
        raise DomainError(f"power: exponent must be positive, got {p}")
    if p != round(p) and (a.value < 0).any():
        raise DomainError(f"power: negative base with non-integer exponent {p}")

    def back(g):
        # negative bases only reach here with integral p, where p-1 is integral too
        a.grad += g * p * np.power(a.value, p - 1.0)

    return Node(np.power(a.value, p), (a,), back, "power")


def col_mean(a: Node) -> Node:
    def back(g):
        a.grad += np.broadcast_to(g / a.shape[0], a.shape)

    return Node(a.value.mean(axis=0, keepdims=True), (a,), back, "col_mean")


def sum_all(a: Node) -> Node:
    def back(g):
        a.grad += np.broadcast_to(g, a.shape)

    return Node(a.value.sum().reshape(1, 1), (a,), back, "sum_all")


def mean_all(a: Node) -> Node:
    def back(g):
        a.grad += np.broadcast_to(g / a.value.size, a.shape)

    return Node(a.value.mean().reshape(1, 1), (a,), back, "mean_all")


def softmax(a: Node) -> Node:
    """Softmax over a vector (Nx1 or 1xN), max-subtracted for stability."""
    if 1 not in a.shape:
        raise ShapeError(f"softmax: expected a vector, got {a.shape}")
    e = np.exp(a.value - a.value.max())
    s = e / e.sum()

    def back(g):
        a.grad += s * (g - (g * s).sum())

    return Node(s, (a,), back, "softmax")


def stack_scalars(nodes: Iterable[Node]) -> Node:
    """Stack 1x1 nodes into an Lx1 column vector."""
    nodes = tuple(nodes)
    for n in nodes:
        if n.shape != (1, 1):
            raise ShapeError(f"stack_scalars: expected 1x1 entries, got {n.shape}")

    def back(g):
        for i, n in enumerate(nodes):
            n.grad += g[i, 0]

    return Node(np.array([[n.value[0, 0]] for n in nodes]), nodes, back, "stack_scalars")


def take(a: Node, i: int, j: int = 0) -> Node:
    """Extract entry (i, j) as a 1x1 node."""
    if not (0 <= i < a.shape[0] and 0 <= j < a.shape[1]):
        raise ShapeError(f"take: index ({i},{j}) out of range for {a.shape}")

    def back(g):
        a.grad[i, j] += g[0, 0]

    return Node(a.value[i, j].reshape(1, 1), (a,), back, "take")


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

    root must be 1x1. Each reachable node gets one fresh zero gradient array
    before accumulation, so calling backward twice on a graph is idempotent.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward: root must be scalar (1x1), got {root.shape}")
    order = _toposort(root)
    for node in order:
        node._grad = np.zeros_like(node.value)
    root._grad[0, 0] = 1.0
    for node in reversed(order):
        if node.backward is not None:
            node.backward(node._grad)


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
    """Compare the backward gradients of a scalar expression with central differences.

    builder maps named leaf nodes to a scalar Node; the gradients are what
    its backward closures give, whatever they run. Returns the max relative
    error per parameter (the report never raises; callers compare to their
    tolerance).
    """
    arrays = {k: _as_matrix(v).copy() for k, v in params.items()}
    nodes = {k: leaf(v) for k, v in arrays.items()}
    backward(builder(nodes))   # raises ContractError unless the builder gives 1x1

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
