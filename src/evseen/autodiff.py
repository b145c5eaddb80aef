"""Minimal dense-tensor engine with reverse-mode differentiation.

Float64, except that a tensor made from float32 data stays float32 through
every primitive of the network's forward (a python scalar operand takes the
array's dtype), so float32 parameters run a float32 forward.  Numpy
broadcasting between the operands of ``add`` and ``mul`` (a python scalar folds
into the op; the backward pass sums each gradient back to its input's shape),
and exactly the primitive set the enhancement network needs: matmul, reshape,
last-axis concat and softmax, relu, sigmoid, whole-tensor means, and
attention, layer norm and the training loss as one tape node each with an
analytic backward, attention in blocks of ``ATTENTION_BLOCK`` logits (a taped
attention keeps each row's softmax log-sum-exp, never its logits).  Nodes
are recorded with a global sequence number; the backward pass walks the
reachable tape once in reverse creation order, which is always a valid
topological order.  A node points only at its inputs, never at its output, so
a tape is freed as soon as its last output tensor is dropped.  Inside
``no_grad()`` nothing is recorded, so inference keeps no tape.
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
    "attention",
    "layer_norm",
    "reshape",
    "concat_lastdim",
    "softmax_lastdim",
    "relu",
    "sigmoid",
    "mean",
    "charbonnier_gradient_loss",
    "max_grad_error",
    "collect_tape",
    "no_grad",
]

_SEQ = itertools.count()
_RECORDING = True  # switched off by no_grad()
ATTENTION_BLOCK = 1 << 17  # logits per block of attention query rows: 1 MiB of float64 or 512 KiB of float32, cache-sized
_FLOAT32 = np.dtype(np.float32)


class _Node:
    __slots__ = ("inputs", "backward", "seq")

    def __init__(self, inputs: tuple["Tensor", ...], backward: Callable) -> None:
        self.inputs = inputs
        self.backward = backward
        self.seq = next(_SEQ)


@dataclass
class Tape:
    """Recorded primitive applications in creation order."""

    nodes: list


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        # float32 data stays float32, anything else becomes float64; the dtype test
        # is one attribute lookup, so the float64 path costs about what it did
        self.data = np.asarray(data) if getattr(data, "dtype", None) is _FLOAT32 else np.asarray(data, dtype=np.float64)
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
        """Accumulate d(self)/d(leaf) into ``.grad`` of each leaf (no tape node) that requires it."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        grads: dict[_Node, np.ndarray] = {}
        _send(self, np.ones_like(self.data), grads)
        for node in reversed(collect_tape(self).nodes):
            g = grads.pop(node, None)
            if g is None:
                continue
            for inp, piece in zip(node.inputs, node.backward(g)):
                if piece is not None:
                    _send(inp, piece, grads)

    # operator sugar; scalars fold into the tensor op
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


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


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the gradient of a broadcast result back down to an operand's ``shape``."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    kept = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=kept, keepdims=True) if kept else g


def _send(t: Tensor, g: np.ndarray, grads: dict) -> None:
    """Sum ``g`` down to the shape of ``t``; add it to the node's entry, or to a leaf's ``.grad``."""
    g = _unbroadcast(g, t.shape)
    if t._node is not None:
        acc = grads.get(t._node)
        grads[t._node] = g if acc is None else acc + g
    elif t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


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


def _taping(inputs: tuple[Tensor, ...]) -> bool:
    """True when an op on ``inputs`` is recorded: outside no_grad, with an input that needs a gradient."""
    return _RECORDING and any(t.requires_grad or t._node is not None for t in inputs)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data)
    if _taping(inputs):
        out._node = _Node(inputs, backward)
    return out


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _make(a.data + float(b), (a,), lambda g: (g,))
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        scalar = float(b)
        return _make(a.data * scalar, (a,), lambda g: (g * scalar,))
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    pos = a.data >= 0
    e = np.exp(np.where(pos, -a.data, a.data))  # exponent <= 0, never overflows
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def _softmax_(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place; returns each row's log-sum-exp,
    max + log(sum of exp(s - max)), with the last axis kept as 1."""
    top = s.max(axis=-1, keepdims=True)
    s -= top
    np.exp(s, out=s)
    total = s.sum(axis=-1, keepdims=True)
    s /= total
    np.log(total, out=total)
    total += top
    return total


def softmax_lastdim(a: Tensor) -> Tensor:
    s = a.data.copy()
    _softmax_(s)
    return _make(s, (a,), lambda g: ((g - (g * s).sum(axis=-1, keepdims=True)) * s,))


def _aligned_empty(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    """An uninitialised C-ordered array starting on a 64-byte cache line.  OpenBLAS
    writes a product over a head's few columns (q_h k_h^T) 15-35% slower into an
    output that starts 16 or 32 bytes past one."""
    nbytes = shape[0] * shape[1] * dtype.itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q_h k_h^T) v_h for each head's block of C / heads columns of the
    (N, C) queries and (M, C) keys and values, as one tape node, over blocks of
    max(1, ATTENTION_BLOCK // M) query rows: one block's probabilities exist at a
    time, in one reused buffer.  A taped forward keeps only each block row's
    log-sum-exp L.  The backward rebuilds p = exp(q_h k_h^T - L) with no max or
    sum, takes the softmax's row term from D = rowsum(g * out), an N x d product
    (FlashAttention-2, Dao 2023), and forms dlogits = p * (g v_h^T - D) in a
    second buffer.  Its gradients differ from a backward through the full softmax
    by rounding: under 1e-15 of the largest on the network's training steps."""
    if q.data.ndim != 2 or k.shape != v.shape or k.shape[1:] != q.shape[1:] or heads < 1 or q.shape[1] % heads:
        raise ValueError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    d = q.shape[1] // heads
    cols = [slice(h * d, (h + 1) * d) for h in range(heads)]
    step = max(1, ATTENTION_BLOCK // max(1, k.shape[0]))
    rows = [slice(i, min(i + step, q.shape[0])) for i in range(0, q.shape[0], step)]

    def blocks(c: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return q.data[:, c].copy(), k.data[:, c].T.copy(), v.data[:, c].copy()

    taped = _taping((q, k, v))
    lse = []  # one (rows, 1) log-sum-exp per head and row block, in loop order, when taped
    out = np.empty(q.shape, q.data.dtype)
    block = (min(step, q.shape[0]), k.shape[0])  # one block's logits; every block reuses the same buffers
    buf = _aligned_empty(block, q.data.dtype)
    for c, (qh, kh_t, vh) in zip(cols, map(blocks, cols)):
        for r in rows:
            p = np.matmul(qh[r], kh_t, out=buf[: r.stop - r.start])
            row_lse = _softmax_(p)
            out[r, c] = p @ vh
            if taped:
                lse.append(row_lse)

    def backward(g):
        dq, dk, dv = (np.empty(t.shape, q.data.dtype) for t in (q, k, v))
        pbuf, dbuf = _aligned_empty(block, q.data.dtype), _aligned_empty(block, q.data.dtype)
        saved = iter(lse)
        for c, (qh, kh_t, vh) in zip(cols, map(blocks, cols)):
            for r in rows:
                gh = g[r, c]
                p = np.matmul(qh[r], kh_t, out=pbuf[: r.stop - r.start])
                p -= next(saved)
                np.exp(p, out=p)
                dlogits = np.matmul(gh, vh.T, out=dbuf[: r.stop - r.start])
                dlogits -= (gh * out[r, c]).sum(axis=1, keepdims=True)
                dlogits *= p
                dq[r, c] = dlogits @ kh_t.T
                dk_r, dv_r = (qh[r].T @ dlogits).T, p.T @ gh
                if r.start:  # later blocks add their share; the first assigns, sparing a zero fill and an add
                    dk[:, c] += dk_r
                    dv[:, c] += dv_r
                else:
                    dk[:, c], dv[:, c] = dk_r, dv_r
        return dq, dk, dv

    return _make(out, (q, k, v), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Each row of the (N, C) ``x`` normalised (``eps`` added to the variance),
    scaled by the (C,) ``gamma`` and shifted by the (C,) ``beta``, as one tape
    node with the closed-form backward of Ba et al. 2016, "Layer Normalization"."""
    centered = x.data - x.data.mean(axis=1, keepdims=True)
    sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps)
    xhat = centered / sigma

    def backward(g):
        gh = g * gamma.data
        dx = (gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True)) / sigma
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _make(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def mean(a: Tensor) -> Tensor:
    """Mean of every element."""
    return _make(np.asarray(a.data.mean()), (a,), lambda g: (np.broadcast_to(g / a.size, a.shape).copy(),))


def charbonnier_gradient_loss(pred: Tensor, target: np.ndarray, lambda1: float, lambda2: float, epsilon: float) -> Tensor:
    """The training loss of an (H, W, C) prediction against a constant target, as
    one tape node: ``lambda1`` times the mean sqrt(d^2 + epsilon^2) of d = pred -
    target (Charbonnier et al. 1994), plus ``lambda2`` times the mean |forward
    difference of d| over both axes of the full grid (zero on the far border)."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.ndim != 3 or target.shape != pred.shape:
        raise ValueError(f"loss shape mismatch: pred {pred.shape}, target {target.shape}")
    diff = pred.data - target
    root = np.sqrt(diff * diff + epsilon * epsilon)
    terms = []  # (axis, forward-difference error, its share of the full grid)
    grad_term = 0.0
    for axis in (0, 1):
        if diff.shape[axis] > 1:
            r = np.diff(pred.data, axis=axis) - np.diff(target, axis=axis)
            frac = r.size / (2.0 * diff.size)
            grad_term += np.abs(r).mean() * frac
            terms.append((axis, r, frac))

    def backward(g):
        # axis 0, then axis 1, then the image term, with q * diff added twice: the
        # rounding order that keeps loss curves bit-identical to earlier versions
        dpred = np.zeros(diff.shape)
        for axis, r, frac in terms:
            s = g * lambda2 * frac / r.size * np.sign(r)
            dpred[(slice(None),) * axis + (slice(None, -1),)] -= s
            dpred[(slice(None),) * axis + (slice(1, None),)] += s
        q = g * lambda1 / diff.size * 0.5 / root
        dpred += q * diff + q * diff
        return (dpred,)

    return _make(np.asarray(root.mean() * lambda1 + grad_term * lambda2), (pred,), backward)


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
        raise ValueError("max_grad_error requires a scalar-valued function")
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
