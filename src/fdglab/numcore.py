"""Dense rank-<=2 float32 tensors with tape-based reverse-mode autodiff.

The op set is deliberately frozen to what the rest of the package needs:
matmul, add, scale, concat, reshape, row_mean, tanh, relu, sigmoid,
l2_normalize, cosine_sim, softmax_cross_entropy, bce_with_logits, plus
Adam/AdamW optimizers. No broadcasting beyond a row-vector bias in add,
no rank-3 tensors, no GPU.

Numerics contract: values are stored as float32, reductions (dots, sums,
matmul) accumulate in float64 before rounding back, and every reduction
uses a fixed, input-independent evaluation order, so repeated runs on one
platform are bit-identical.

Gradients accumulate into ``Tensor.grad`` across backward calls; the
caller resets them (see ``reset_grads``).
"""

from __future__ import annotations

import math
import os

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class GraphError(RuntimeError):
    """Backward invoked on something that is not a recorded scalar root."""


class DegenerateInputError(ValueError):
    """Numerically degenerate input, e.g. a zero-norm vector."""


class NumericError(ArithmeticError):
    """Non-finite value produced by a forward pass (debug checks only)."""


class OptimizerError(RuntimeError):
    """Optimizer contract violation, e.g. stepping a gradient-less param."""


_forward_checks = os.environ.get("FDGLAB_CHECKS", "0") not in ("", "0")


def set_forward_checks(enabled: bool) -> None:
    """Toggle per-op NaN/Inf assertions (off by default; tests turn it on)."""
    global _forward_checks
    _forward_checks = bool(enabled)


def forward_checks_enabled() -> bool:
    return _forward_checks


class Tensor:
    """A (rows, cols) float32 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are rank <= 2, got array of rank {arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def copy(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        if self.grad is not None:
            out.grad = self.grad.copy()
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def reset_grads(params) -> None:
    """Drop accumulated gradients; the next backward starts fresh."""
    for p in params:
        p.grad = None


class _Node:
    __slots__ = ("out", "parents", "vjp")

    def __init__(self, out, parents, vjp):
        self.out = out
        self.parents = parents
        self.vjp = vjp


class Graph:
    """Tape of recorded ops, in execution order.

    Ops append a node only when some input requires grad, so inference
    through a Graph records nothing. One Graph belongs to one thread; a
    fresh Graph per training step is the intended usage.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)


def _finish(graph: Graph, out: Tensor, parents, vjp) -> Tensor:
    if _forward_checks and not np.isfinite(out.data).all():
        raise NumericError("non-finite value in forward pass")
    if out.requires_grad:
        graph.nodes.append(_Node(out, parents, vjp))
    return out


def backward(graph: Graph, loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) into every requires_grad leaf's .grad.

    Walks the tape in reverse recording order, which is a valid reverse
    topological order by construction. Repeated calls accumulate.
    """
    if loss.data.shape != (1, 1):
        raise GraphError(f"backward root must be a 1x1 scalar, got {loss.data.shape}")
    nodes = graph.nodes
    # the loss is almost always the last op recorded; scan only otherwise
    if (loss.requires_grad and nodes and nodes[-1].out is not loss
            and all(n.out is not loss for n in nodes)):
        raise GraphError("loss is not a node of this graph")

    # id(tensor) -> (tensor, gradient flowing into it)
    flow: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones((1, 1), dtype=np.float32))}
    for node in reversed(nodes):
        entry = flow.pop(id(node.out), None)
        if entry is None:
            continue
        for parent, gp in zip(node.parents, node.vjp(entry[1])):
            if gp is None or not parent.requires_grad:
                continue
            k = id(parent)
            prev = flow.get(k)
            flow[k] = (parent, gp if prev is None else prev[1] + gp)
    # whatever remains flowed into leaves
    for leaf, acc in flow.values():
        if not leaf.requires_grad:
            continue
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        leaf.grad += acc.astype(np.float32)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(g: Graph, a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    a64 = a.data.astype(np.float64)
    b64 = b.data.astype(np.float64)
    out = Tensor(a64 @ b64, requires_grad=a.requires_grad or b.requires_grad)

    def vjp(gout):
        g64 = gout.astype(np.float64)
        ga = (g64 @ b64.T).astype(np.float32) if a.requires_grad else None
        gb = (a64.T @ g64).astype(np.float32) if b.requires_grad else None
        return ga, gb

    return _finish(g, out, (a, b), vjp)


def add(g: Graph, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; b may be a 1 x cols row vector (bias broadcast)."""
    if a.shape == b.shape:
        bias = False
    elif b.rows == 1 and b.cols == a.cols:
        bias = True
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def vjp(gout):
        ga = gout if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif bias:
            gb = gout.sum(axis=0, keepdims=True, dtype=np.float64).astype(np.float32)
        else:
            gb = gout
        return ga, gb

    return _finish(g, out, (a, b), vjp)


def scale(g: Graph, a: Tensor, s: float) -> Tensor:
    s32 = np.float32(s)
    out = Tensor(a.data * s32, requires_grad=a.requires_grad)

    def vjp(gout):
        return (gout * s32,)

    return _finish(g, out, (a,), vjp)


def concat(g: Graph, parts, axis: int = 0) -> Tensor:
    """Concatenate tensors along rows (axis=0) or cols (axis=1)."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    if axis not in (0, 1):
        raise ShapeError(f"concat axis must be 0 or 1, got {axis}")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat axis={axis}: mismatched shapes {[p.shape for p in parts]}"
        ) from None
    out = Tensor(data, requires_grad=any([p.requires_grad for p in parts]))

    def vjp(gout):
        pieces, start = [], 0
        for p in parts:
            stop = start + p.data.shape[axis]
            if not p.requires_grad:
                pieces.append(None)
            elif axis == 0:
                pieces.append(gout[start:stop])
            else:
                pieces.append(gout[:, start:stop])
            start = stop
        return tuple(pieces)

    return _finish(g, out, parts, vjp)


def reshape(g: Graph, a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.rows * a.cols:
        raise ShapeError(f"reshape {a.shape} -> ({rows}, {cols}): size mismatch")
    out = Tensor(a.data.reshape(rows, cols).copy(), requires_grad=a.requires_grad)

    def vjp(gout):
        return (gout.reshape(a.shape),)

    return _finish(g, out, (a,), vjp)


def row_mean(g: Graph, a: Tensor) -> Tensor:
    """Mean over rows: (T, c) -> (1, c)."""
    if a.rows < 1:
        raise ShapeError("row_mean of an empty tensor")
    n = a.rows
    # np.mean's own reduction, without its Python wrapper
    out64 = np.add.reduce(a.data, axis=0, dtype=np.float64, keepdims=True) / n
    out = Tensor(out64, requires_grad=a.requires_grad)

    def vjp(gout):
        per_row = (gout.astype(np.float64) / n).astype(np.float32)
        return (np.repeat(per_row, n, axis=0),)

    return _finish(g, out, (a,), vjp)


def tanh(g: Graph, a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, requires_grad=a.requires_grad)

    def vjp(gout):
        return (gout * (1.0 - y * y),)

    return _finish(g, out, (a,), vjp)


def relu(g: Graph, a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad)
    mask = a.data > 0

    def vjp(gout):
        return (gout * mask,)

    return _finish(g, out, (a,), vjp)


def sigmoid(g: Graph, a: Tensor) -> Tensor:
    y = _sigmoid64(a.data.astype(np.float64)).astype(np.float32)
    out = Tensor(y, requires_grad=a.requires_grad)

    def vjp(gout):
        return (gout * y * (1.0 - y),)

    return _finish(g, out, (a,), vjp)


def _sigmoid64(x: np.ndarray) -> np.ndarray:
    # overflow-free for any finite x
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def l2_normalize(g: Graph, a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm."""
    a64 = a.data.astype(np.float64)
    norms = np.sqrt((a64 * a64).sum(axis=1, keepdims=True))
    if (norms < 1e-12).any():
        raise DegenerateInputError("l2_normalize: zero-norm row")
    y64 = a64 / norms
    out = Tensor(y64, requires_grad=a.requires_grad)

    def vjp(gout):
        g64 = gout.astype(np.float64)
        proj = (g64 * y64).sum(axis=1, keepdims=True)
        return (((g64 - proj * y64) / norms).astype(np.float32),)

    return _finish(g, out, (a,), vjp)


def cosine_sim(g: Graph, a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of each row of a (R x d) with the 1 x d vector b,
    as a 1 x R tensor in [-1, 1]."""
    if b.rows != 1 or a.cols != b.cols:
        raise ShapeError(
            f"cosine_sim needs R x d rows and a 1 x d vector, got {a.shape}, {b.shape}")
    a64 = a.data.astype(np.float64)
    b64 = b.data.astype(np.float64).ravel()
    # one 1-d dot per row, so row i sums exactly as a lone pair would
    na = np.sqrt([r @ r for r in a64])
    nb = math.sqrt(b64 @ b64)
    if (na < 1e-12).any() or nb < 1e-12:
        raise DegenerateInputError("cosine_sim: zero-norm input")
    cos = np.clip(np.array([r @ b64 for r in a64]) / (na * nb), -1.0, 1.0)
    out = Tensor(cos, requires_grad=a.requires_grad or b.requires_grad)
    na, cos = na[:, None], cos[:, None]

    def vjp(gout):
        s = gout.astype(np.float64).reshape(-1, 1)
        ga = gb = None
        if a.requires_grad:
            ga = (s * (b64 / (na * nb) - cos * a64 / (na * na))).astype(np.float32)
        if b.requires_grad:
            per_row = s * (a64 / (na * nb) - cos * b64 / (nb * nb))
            gb = per_row.sum(axis=0, keepdims=True).astype(np.float32)
        return ga, gb

    return _finish(g, out, (a, b), vjp)


def softmax_cross_entropy(g: Graph, logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] for a 1 x K logit row."""
    if logits.rows != 1:
        raise ShapeError(f"softmax_cross_entropy expects a 1xK row, got {logits.shape}")
    k = logits.cols
    if not 0 <= label < k:
        raise IndexError(f"label {label} out of range for {k} classes")
    x = logits.data.astype(np.float64).ravel()
    m = x.max()
    exps = np.exp(x - m)
    z = exps.sum()
    loss = (m + np.log(z)) - x[label]
    out = Tensor(np.array([[loss]]), requires_grad=logits.requires_grad)
    probs = exps / z

    def vjp(gout):
        grad = probs.copy()
        grad[label] -= 1.0
        return ((float(gout[0, 0]) * grad).astype(np.float32).reshape(1, -1),)

    return _finish(g, out, (logits,), vjp)


def bce_with_logits(g: Graph, logits: Tensor, target: float) -> Tensor:
    """Mean binary cross entropy over an m x 1 logit column, in stable form.

    target is 0 or 1 and applies to every row. For a 1x1 input this is the
    scalar loss -[t*log(sigma(x)) + (1-t)*log(1-sigma(x))].
    """
    if logits.cols != 1:
        raise ShapeError(f"bce_with_logits expects an mx1 column, got {logits.shape}")
    t = float(target)
    if t not in (0.0, 1.0):
        raise ValueError(f"bce target must be 0 or 1, got {target}")
    x = logits.data.astype(np.float64)
    m = x.shape[0]
    # max(x,0) - x*t + log(1+exp(-|x|))
    per_row = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    out = Tensor(np.array([[per_row.mean()]]), requires_grad=logits.requires_grad)

    def vjp(gout):
        s = float(gout[0, 0]) / m
        return ((s * (_sigmoid64(x) - t)).astype(np.float32),)

    return _finish(g, out, (logits,), vjp)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class _Slot:
    __slots__ = ("param", "m", "v", "t")

    def __init__(self, param: Tensor):
        self.param = param
        self.m = np.zeros(param.shape, dtype=np.float64)
        self.v = np.zeros(param.shape, dtype=np.float64)
        self.t = 0


class _AdamBase:
    """Shared Adam machinery; moments kept per parameter identity.

    step(params) updates exactly the given parameters, so a caller can
    step a subset (e.g. only the domain contexts touched by a batch)
    while bias correction stays per-parameter. Gradients are read, never
    cleared.
    """

    decoupled_decay = False

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._slots: dict[int, _Slot] = {}

    def step(self, params) -> None:
        params = list(params)
        for p in params:
            if p.grad is None:
                raise OptimizerError("optimizer step on a parameter with no gradient")
        self.step_count += 1
        for p in params:
            slot = self._slots.get(id(p))
            if slot is None:
                slot = _Slot(p)
                self._slots[id(p)] = slot
            slot.t += 1
            w = p.data.astype(np.float64)
            if self.decoupled_decay and self.weight_decay != 0.0:
                w = w * (1.0 - self.lr * self.weight_decay)
            grad = p.grad.astype(np.float64)
            slot.m = self.beta1 * slot.m + (1.0 - self.beta1) * grad
            slot.v = self.beta2 * slot.v + (1.0 - self.beta2) * grad * grad
            mhat = slot.m / (1.0 - self.beta1 ** slot.t)
            vhat = slot.v / (1.0 - self.beta2 ** slot.t)
            w = w - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.data = w.astype(np.float32)


class Adam(_AdamBase):
    """Standard Adam with bias correction."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(lr, beta1, beta2, eps, weight_decay=0.0)


class AdamW(_AdamBase):
    """Adam with decoupled weight decay, applied before the Adam step."""

    decoupled_decay = True
