"""Dense rank-<=2 float32 tensors with tape-based reverse-mode autodiff.

The op set is deliberately frozen to what the rest of the package needs:
matmul (with an optional row-vector bias), add, scale, concat, reshape,
row_mean, tanh, relu, sigmoid, l2_normalize, cosine_sim,
softmax_cross_entropy, bce_with_logits, plus Adam/AdamW optimizers. add
takes equal shapes only: the one broadcast is matmul's bias, added to
every row in the same node. No rank-3 tensors, no GPU. The two scoring
ops take a whole batch in one node: cosine_sim scores B rows, each
against the K rows of one of several K x d stacks (``pick``), and
softmax_cross_entropy returns B per-row losses.

Numerics contract: values are stored as float32, reductions (dots, sums,
matmul) accumulate in float64 before rounding back, and every reduction's
evaluation order depends on operand shapes only, never on values, so
repeated runs on one platform are bit-identical. The order does change
with shape: BLAS picks its matmul kernel by shape, so an R-row matmul can
round differently from R one-row matmuls. A batched cosine_sim or
softmax_cross_entropy node avoids that and gives the same bits as one
node per row.

Gradients accumulate into ``Tensor.grad`` across backward calls; the
caller resets them (see ``reset_grads``).
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class GraphError(RuntimeError):
    """Backward invoked on something that is not a recorded scalar root."""


class DegenerateInputError(ValueError):
    """Numerically degenerate input, e.g. a zero-norm vector."""


class OptimizerError(RuntimeError):
    """Optimizer contract violation, e.g. stepping a gradient-less param."""


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

    Ops append a node only when some input requires grad, so a pass
    through trainable weights records nodes even when no backward
    follows. Forwards whose gradients nobody reads (the generator at
    inference and in the D step) therefore bypass the tape through
    ``promptgan.generator_forward``, and the G step wraps D's weights in
    constant tensors, so its nodes compute gradients for G only. A
    linear layer is one node: matmul takes the bias. One Graph belongs
    to one thread; a fresh Graph per training step is the intended usage.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)


def _finish(graph: Graph, out: Tensor, parents, vjp) -> Tensor:
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
            leaf.grad = acc.astype(np.float32)  # a copy: vjps share arrays
        else:
            leaf.grad += acc.astype(np.float32)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(g: Graph, a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus an optional 1 x cols row-vector bias on every row.

    The product rounds from float64 to float32 before the float32 bias
    add, so one node gives the bits of a matmul node then an add node.
    """
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    if bias is not None and bias.shape != (1, b.cols):
        raise ShapeError(f"matmul: bias {bias.shape} for {b.cols} output columns")
    a64 = a.data.astype(np.float64)
    b64 = b.data.astype(np.float64)
    y = (a64 @ b64).astype(np.float32)
    parents = (a, b)
    if bias is not None:
        y += bias.data
        parents = (a, b, bias)
    out = Tensor(y, requires_grad=any([p.requires_grad for p in parents]))

    def vjp(gout):
        g64 = gout.astype(np.float64)
        ga = (g64 @ b64.T).astype(np.float32) if a.requires_grad else None
        gb = (a64.T @ g64).astype(np.float32) if b.requires_grad else None
        if bias is None:
            return ga, gb
        gbias = (gout.sum(axis=0, keepdims=True, dtype=np.float64).astype(np.float32)
                 if bias.requires_grad else None)
        return ga, gb, gbias

    return _finish(g, out, parents, vjp)


def add(g: Graph, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b of equal shapes (a bias goes in ``matmul``)."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def vjp(gout):
        return (gout if a.requires_grad else None,
                gout if b.requires_grad else None)

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


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching (..., d) rows, each its own 1 x d by d x 1
    product, so every entry rounds exactly as a lone 1-d ``r @ s`` does
    (one GEMM over the rows rounds differently)."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def cosine_sim(g: Graph, a, b: Tensor, pick=None) -> Tensor:
    """B x K cosines: entry (i, k) is the cosine of row k of stack
    ``a[pick[i]]`` with row i of the B x d tensor b, in [-1, 1].

    ``a`` is one K x d stack (pick defaults to all zeros) or a list of
    equal-shape stacks. Each entry rounds exactly as a lone pair would.
    A stack's float32 gradient adds its samples' parts in reverse batch
    order, the order the tape adds the gradients of separate nodes.
    """
    stacks = [a] if isinstance(a, Tensor) else list(a)
    if not stacks or any(s.shape != stacks[0].shape for s in stacks):
        raise ShapeError(
            f"cosine_sim needs equal-shape stacks, got {[s.shape for s in stacks]}")
    if stacks[0].cols != b.cols:
        raise ShapeError(
            f"cosine_sim: stack rows {stacks[0].shape} and b {b.shape} disagree")
    n = b.rows
    pick = np.zeros(n, dtype=np.intp) if pick is None else np.asarray(pick, np.intp)
    if pick.shape != (n,):
        raise ShapeError(f"cosine_sim: pick of shape {pick.shape} for {n} rows of b")
    if ((pick < 0) | (pick >= len(stacks))).any():
        raise ShapeError(f"cosine_sim: pick out of range for {len(stacks)} stacks")
    a64 = np.stack([s.data for s in stacks]).astype(np.float64)
    b64 = b.data.astype(np.float64)
    na_all = np.sqrt(_row_dots(a64, a64))
    nb = np.sqrt(_row_dots(b64, b64))[:, None]
    if (na_all < 1e-12).any() or (nb < 1e-12).any():
        raise DegenerateInputError("cosine_sim: zero-norm input")
    a_sel, na = a64[pick], na_all[pick]
    cos = np.clip(_row_dots(a_sel, b64[:, None, :]) / (na * nb), -1.0, 1.0)
    out = Tensor(cos, requires_grad=any(s.requires_grad for s in stacks)
                 or b.requires_grad)
    # (B, K, 1) and (B, 1, d) views for the per-row vjp chain
    cos, na, nb, b3 = cos[:, :, None], na[:, :, None], nb[:, :, None], b64[:, None, :]

    def vjp(gout):
        s = gout.astype(np.float64)[:, :, None]
        grads = [None] * len(stacks)
        if any(st.requires_grad for st in stacks):
            ga = (s * (b3 / (na * nb) - cos * a_sel / (na * na))).astype(np.float32)
            for j, st in enumerate(stacks):
                rows = np.flatnonzero(pick == j)
                if st.requires_grad and rows.size:
                    # sequential float32 sum, last sample first
                    grads[j] = np.add.reduce(ga[rows[::-1]], axis=0)
        gb = None
        if b.requires_grad:
            per_row = s * (a_sel / (na * nb) - cos * b3 / (nb * nb))
            gb = per_row.sum(axis=1).astype(np.float32)
        return (*grads, gb)

    return _finish(g, out, (*stacks, b), vjp)


def softmax_cross_entropy(g: Graph, logits: Tensor, labels) -> Tensor:
    """Per-row -log softmax(logits[i])[labels[i]] for B x K logits, as a
    B x 1 column in batch order. ``labels`` is a sequence of B class ids,
    or one int for a single row."""
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(
            f"softmax_cross_entropy: {labels.size} labels for {n} logit rows")
    if ((labels < 0) | (labels >= k)).any():
        raise IndexError(f"labels {labels.tolist()} out of range for {k} classes")
    x = logits.data.astype(np.float64)
    rows = np.arange(n)
    m = x.max(axis=1, keepdims=True)
    exps = np.exp(x - m)
    z = exps.sum(axis=1, keepdims=True)
    loss = (m + np.log(z)) - x[rows, labels][:, None]
    out = Tensor(loss, requires_grad=logits.requires_grad)
    probs = exps / z

    def vjp(gout):
        grad = probs.copy()
        grad[rows, labels] -= 1.0
        return ((gout.astype(np.float64) * grad).astype(np.float32),)

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

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._slots: dict[int, _Slot] = {}

    def step(self, params) -> None:
        """w <- w·(1 - lr·wd) - lr·(m/c1) / (sqrt(v/c2) + eps), in float64.

        The moments update in place and the float32 operands widen inside
        each ufunc, in the order of the textbook formula, so every bit
        matches it. ``p.data`` is rebound to a fresh float32 array, never
        written: aggregation messages may still hold the old one.
        """
        params = list(params)
        for p in params:
            if p.grad is None:
                raise OptimizerError("optimizer step on a parameter with no gradient")
        f64 = np.float64
        b1, b2, lr = self.beta1, self.beta2, self.lr
        for p in params:
            slot = self._slots.get(id(p))
            if slot is None:
                slot = _Slot(p)
                self._slots[id(p)] = slot
            slot.t += 1
            g, m, v = p.grad, slot.m, slot.v
            u = np.multiply(g, 1.0 - b1, dtype=f64)
            m *= b1
            m += u
            s = np.multiply(g, 1.0 - b2, dtype=f64)
            s *= g
            v *= b2
            v += s
            np.divide(m, 1.0 - b1 ** slot.t, out=u)
            u *= lr
            np.divide(v, 1.0 - b2 ** slot.t, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            u /= s
            w = p.data
            if self.weight_decay != 0.0:
                w = np.multiply(w, 1.0 - lr * self.weight_decay, out=s, dtype=f64)
            p.data = np.subtract(w, u, out=np.empty_like(p.data), dtype=f64,
                                 casting="same_kind")


class Adam(_AdamBase):
    """Standard Adam with bias correction."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(lr, beta1, beta2, eps, weight_decay=0.0)


class AdamW(_AdamBase):
    """Adam with decoupled weight decay, applied before the Adam step."""
