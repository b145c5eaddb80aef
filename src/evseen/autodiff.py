"""Minimal dense-tensor engine with reverse-mode differentiation.

Float64 throughout, no broadcasting except scalar-tensor, and exactly the
primitive set the enhancement network needs.  Nodes are recorded with a global
sequence number; the backward pass walks the reachable tape once in reverse
creation order, which is always a valid topological order.  Inside ``no_grad()``
nothing is recorded, so inference keeps no tape.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "transpose2",
    "reshape",
    "concat_lastdim",
    "slice_axis",
    "softmax_lastdim",
    "relu",
    "sigmoid",
    "mean",
    "absolute",
    "sqrt",
    "grad_check",
    "max_grad_error",
    "collect_tape",
    "no_grad",
]

_SEQ = itertools.count()
_RECORDING = True  # switched off by no_grad()


class _Node:
    __slots__ = ("inputs", "backward", "out", "seq")

    def __init__(self, inputs: tuple["Tensor", ...], backward: Callable, out: "Tensor") -> None:
        self.inputs = inputs
        self.backward = backward
        self.out = out
        self.seq = next(_SEQ)


@dataclass
class Tape:
    """Recorded primitive applications in creation order."""

    nodes: list

    def is_topologically_ordered(self) -> bool:
        seen: set[int] = set()
        for node in self.nodes:
            for inp in node.inputs:
                if inp._node is not None and id(inp._node) not in seen and inp._node.seq >= node.seq:
                    return False
            seen.add(id(node))
        return True


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        tape = collect_tape(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(tape.nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            if node.out.requires_grad:
                node.out.grad = g if node.out.grad is None else node.out.grad + g
            for inp, piece in zip(node.inputs, node.backward(g)):
                if piece is None or not _wants_grad(inp):
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = piece if acc is None else acc + piece
        leaves = [self] + [inp for node in tape.nodes for inp in node.inputs]
        for t in leaves:
            if t.requires_grad and id(t) in grads:
                g = grads.pop(id(t))
                t.grad = g if t.grad is None else t.grad + g

    # operator sugar; scalars fold into the tensor op
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def collect_tape(root: Tensor) -> Tape:
    """All nodes reachable from ``root``, sorted by creation sequence."""
    nodes: list[_Node] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if t._node is None or id(t._node) in seen:
            continue
        seen.add(id(t._node))
        nodes.append(t._node)
        stack.extend(t._node.inputs)
    nodes.sort(key=lambda n: n.seq)
    return Tape(nodes)


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._node is not None


def _track(inputs: Sequence[Tensor]) -> bool:
    return any(_wants_grad(t) for t in inputs)


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block: outputs carry values but no ``_node``.

    The switch is process-wide, not per thread; blocks nest, and leaving one
    (by an exception too) restores the state it found."""
    global _RECORDING
    saved = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = saved


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data)
    if _RECORDING and _track(inputs):
        out._node = _Node(inputs, backward, out)
    return out


def _as_pair(a: Tensor, other) -> tuple[Tensor, float | None]:
    """Return (tensor, scalar) when ``other`` is a python scalar, else validate shapes."""
    if isinstance(other, Tensor):
        if a.shape != other.shape:
            raise ValueError(f"shape mismatch {a.shape} vs {other.shape}")
        return other, None
    return a, float(other)


def add(a: Tensor, b) -> Tensor:
    b_t, scalar = _as_pair(a, b)
    if scalar is not None:
        return _make(a.data + scalar, (a,), lambda g: (g,))
    return _make(a.data + b_t.data, (a, b_t), lambda g: (g, g))


def sub(a: Tensor, b) -> Tensor:
    b_t, scalar = _as_pair(a, b)
    if scalar is not None:
        return _make(a.data - scalar, (a,), lambda g: (g,))
    return _make(a.data - b_t.data, (a, b_t), lambda g: (g, -g))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    b_t, scalar = _as_pair(a, b)
    if scalar is not None:
        return _make(a.data * scalar, (a,), lambda g: (g * scalar,))
    return _make(a.data * b_t.data, (a, b_t), lambda g: (g * b_t.data, g * a.data))


def div(a: Tensor, b) -> Tensor:
    b_t, scalar = _as_pair(a, b)
    if scalar is not None:
        if scalar == 0.0:
            raise ZeroDivisionError("division by zero scalar")
        return _make(a.data / scalar, (a,), lambda g: (g / scalar,))
    if np.any(b_t.data == 0.0):
        raise ZeroDivisionError("division by zero element")
    return _make(
        a.data / b_t.data,
        (a, b_t),
        lambda g: (g / b_t.data, -g * a.data / (b_t.data * b_t.data)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def transpose2(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError("transpose2 expects a 2-d tensor")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat_lastdim(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("nothing to concatenate")
    widths = [p.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=-1))

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    shape = a.shape

    def backward(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)

    return _make(a.data[index].copy(), (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    pos = a.data >= 0
    e = np.exp(np.where(pos, -a.data, a.data))  # exponent <= 0, never overflows
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def softmax_lastdim(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return ((g - inner) * s,)

    return _make(s, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        return (np.full(a.shape, float(g) / n),)

    return _make(np.asarray(a.data.mean()), (a,), backward)


def absolute(a: Tensor) -> Tensor:
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ValueError("sqrt of negative values")
    root = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / root,)

    return _make(root, (a,), backward)


def max_grad_error(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Largest relative gap between tape gradients and central differences.

    Relative error falls back to absolute when both gradients are below 1e-8.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if not x.requires_grad:
        x.requires_grad = True
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = np.zeros(x.shape) if x.grad is None else x.grad.copy()
    flat = x.data.reshape(-1)
    fd = np.empty(flat.shape)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f(x).data)
        flat[i] = orig - h
        lo = float(f(x).data)
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * h)
    a = analytic.reshape(-1)
    worst = 0.0
    for g_fd, g_ad in zip(fd, a):
        denom = max(abs(g_fd), abs(g_ad))
        err = abs(g_fd - g_ad) / denom if denom > 1e-8 else abs(g_fd - g_ad)
        worst = max(worst, err)
    return worst


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5, tol: float = 1e-4) -> bool:
    """True when every coordinate's tape gradient matches central differences."""
    return max_grad_error(f, x, h) < tol
