"""Unit tests for the autodiff core: forward values against independent
oracles (hand-computed constants, triple-loop matmul), gradients against
central finite differences, and the optimizer update rules."""

import math

import numpy as np
import pytest

from fdglab import numcore as nc
from fdcheck import all_cases, check_case


# ---------------------------------------------------------------------------
# tensors and shapes
# ---------------------------------------------------------------------------


def test_tensor_promotes_scalars_and_vectors():
    assert nc.Tensor(3.0).shape == (1, 1)
    assert nc.Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert nc.Tensor(np.zeros((2, 3))).shape == (2, 3)
    with pytest.raises(nc.ShapeError):
        nc.Tensor(np.zeros((2, 2, 2)))


def test_item_requires_scalar():
    with pytest.raises(nc.ShapeError):
        nc.Tensor(np.zeros((1, 2))).item()
    assert nc.Tensor([[4.0]]).item() == 4.0


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_matmul_matches_triple_loop(rng):
    for _ in range(5):
        m, k, n = rng.integers(1, 6, size=3)
        a = rng.normal(0, 1, (m, k)).astype(np.float32)
        b = rng.normal(0, 1, (k, n)).astype(np.float32)
        want = np.zeros((m, n), dtype=np.float64)
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for t in range(k):
                    acc += float(a[i, t]) * float(b[t, j])
                want[i, j] = acc
        got = nc.matmul(nc.Graph(), nc.Tensor(a), nc.Tensor(b)).data
        assert np.abs(got - want.astype(np.float32)).max() < 1e-6


def test_matmul_hand_values():
    g = nc.Graph()
    m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nc.matmul(g, nc.Tensor(np.eye(2)), m).data, m.data)
    picked = nc.matmul(g, nc.Tensor([[1.0, 0.0]]), nc.Tensor([[0.0], [5.0]]))
    assert picked.item() == 0.0


def test_matmul_rejects_bad_inner_dim():
    with pytest.raises(nc.ShapeError):
        nc.matmul(nc.Graph(), nc.Tensor(np.zeros((2, 3))), nc.Tensor(np.zeros((2, 3))))


def test_matmul_adds_row_bias_as_matmul_then_add(rng):
    g = nc.Graph()
    x = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.Tensor([[10.0, 20.0]])
    out = nc.matmul(g, x, nc.Tensor(np.eye(2)), bias=b)
    assert np.array_equal(out.data, np.array([[11.0, 22.0], [13.0, 24.0]], dtype=np.float32))
    with pytest.raises(nc.ShapeError):
        nc.matmul(g, x, nc.Tensor(np.eye(2)), bias=nc.Tensor([[1.0], [2.0]]))
    # one node with the bits of a matmul node then a float32 add node:
    # the add passed gout on to the product and its row sum to the bias
    a, w, bias = (nc.Tensor(rng.normal(0, 1, shape), requires_grad=True)
                  for shape in ((6, 5), (5, 7), (1, 7)))
    gout = rng.normal(0, 1, (6, 7)).astype(np.float32)
    fused, plain = nc.Graph(), nc.Graph()
    y = nc.matmul(fused, a, w, bias=bias)
    product = nc.matmul(plain, a, w)
    assert len(fused) == 1
    assert y.data.tobytes() == (product.data + bias.data).tobytes()
    ga, gw, gbias = fused.nodes[0].vjp(gout)
    pa, pw = plain.nodes[0].vjp(gout)
    assert ga.tobytes() == pa.tobytes() and gw.tobytes() == pw.tobytes()
    want = gout.sum(axis=0, keepdims=True, dtype=np.float64).astype(np.float32)
    assert gbias.tobytes() == want.tobytes()


def test_add_refuses_row_vector():
    g = nc.Graph()
    x = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(nc.add(g, x, x).data, 2 * x.data)
    with pytest.raises(nc.ShapeError):
        nc.add(g, x, nc.Tensor([[10.0, 20.0]]))
    with pytest.raises(nc.ShapeError):
        nc.add(g, x, nc.Tensor([[1.0], [2.0]]))


def test_concat_both_axes_and_errors():
    g = nc.Graph()
    a = nc.Tensor([[1.0, 2.0]])
    b = nc.Tensor([[3.0, 4.0]])
    rows = nc.concat(g, [a, b], axis=0)
    cols = nc.concat(g, [a, b], axis=1)
    assert rows.shape == (2, 2) and cols.shape == (1, 4)
    assert np.array_equal(cols.data, np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32))
    with pytest.raises(nc.ShapeError):
        nc.concat(g, [a, nc.Tensor([[1.0, 2.0, 3.0]])], axis=0)
    with pytest.raises(nc.ShapeError):
        nc.concat(g, [], axis=0)
    with pytest.raises(nc.ShapeError):
        nc.concat(g, [a, b], axis=2)


def test_reshape_preserves_order():
    g = nc.Graph()
    x = nc.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    y = nc.reshape(g, x, 3, 2)
    assert np.array_equal(y.data.ravel(), np.arange(6, dtype=np.float32))
    with pytest.raises(nc.ShapeError):
        nc.reshape(g, x, 4, 2)


def test_row_mean_value():
    g = nc.Graph()
    x = nc.Tensor([[1.0, 2.0], [3.0, 6.0]])
    assert np.array_equal(nc.row_mean(g, x).data, np.array([[2.0, 4.0]], dtype=np.float32))


def test_activations_match_reference(rng):
    x = rng.normal(0, 2, (3, 4)).astype(np.float32)
    g = nc.Graph()
    t = nc.Tensor(x)
    assert np.allclose(nc.tanh(g, t).data, np.tanh(x), atol=1e-7)
    assert np.array_equal(nc.relu(g, t).data, np.maximum(x, 0))
    assert np.allclose(nc.sigmoid(g, t).data, 1 / (1 + np.exp(-x.astype(np.float64))), atol=1e-7)


def test_l2_normalize_unit_rows(rng):
    x = rng.normal(0, 3, (4, 7)).astype(np.float32)
    y = nc.l2_normalize(nc.Graph(), nc.Tensor(x)).data
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)
    with pytest.raises(nc.DegenerateInputError):
        nc.l2_normalize(nc.Graph(), nc.Tensor(np.zeros((1, 3))))


def test_cosine_sim_bounds_and_values():
    g = nc.Graph()
    a = nc.Tensor([[1.0, 0.0]])
    b = nc.Tensor([[0.0, 1.0]])
    assert nc.cosine_sim(g, a, b).item() == 0.0
    assert nc.cosine_sim(g, a, a).item() == 1.0
    diag = nc.cosine_sim(g, a, nc.Tensor([[1.0, 1.0]])).item()
    assert abs(diag - 0.70710678) < 1e-7
    c = nc.cosine_sim(g, a, nc.Tensor([[-2.0, 0.0]])).item()
    assert c == -1.0
    with pytest.raises(nc.DegenerateInputError):
        nc.cosine_sim(g, a, nc.Tensor([[0.0, 0.0]]))
    with pytest.raises(nc.ShapeError):
        nc.cosine_sim(g, a, nc.Tensor([[1.0, 2.0, 3.0]]))
    two = nc.Tensor([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(nc.ShapeError):  # stacks of unequal shape
        nc.cosine_sim(g, [a, two], two, pick=[0, 1])
    with pytest.raises(nc.ShapeError):  # pick length != rows of b
        nc.cosine_sim(g, [a, a], two, pick=[0])
    with pytest.raises(nc.ShapeError):  # pick out of range
        nc.cosine_sim(g, [a, a], two, pick=[0, 2])
    with pytest.raises(nc.ShapeError):
        nc.cosine_sim(g, [a, a], two, pick=[-1, 0])


def test_cosine_sim_rows_match_lone_pairs_bit_for_bit(rng):
    rows = rng.normal(0, 1, (5, 9)).astype(np.float32)
    vec = rng.normal(0, 1, (1, 9)).astype(np.float32)
    weights = rng.normal(0, 1, (1, 5)).astype(np.float32)

    def loss_grads(stacked: bool):
        g = nc.Graph()
        a = [nc.Tensor(r, requires_grad=True) for r in rows]
        b = nc.Tensor(vec, requires_grad=True)
        if stacked:
            sims = nc.cosine_sim(g, nc.concat(g, a), b)
        else:
            sims = nc.concat(g, [nc.cosine_sim(g, r, b) for r in a], axis=1)
        w = nc.Tensor(weights.T)
        nc.backward(g, nc.matmul(g, sims, w))
        return sims.data, [t.grad for t in a], b.grad

    s1, ga1, gb1 = loss_grads(True)
    s0, ga0, gb0 = loss_grads(False)
    assert s1.tobytes() == s0.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(ga1, ga0))
    # b sums its per-row gradients in float64 instead of float32 tape order
    assert np.allclose(gb1, gb0, atol=1e-6)


def test_batched_cosine_and_ce_match_single_rows_bit_for_bit(rng):
    stacks0 = [rng.normal(0, 1, (4, 9)).astype(np.float32) for _ in range(2)]
    imgs = rng.normal(0, 1, (5, 9)).astype(np.float32)
    pick, labels = [1, 0, 1, 1, 0], [3, 0, 2, 3, 1]

    def run(batched: bool):
        g = nc.Graph()
        stacks = [nc.Tensor(s, requires_grad=True) for s in stacks0]
        if batched:
            rows = [nc.Tensor(imgs, requires_grad=True)]
            cos = nc.cosine_sim(g, stacks, rows[0], pick)
            losses = nc.softmax_cross_entropy(g, nc.scale(g, cos, 20.0), labels)
        else:
            rows = [nc.Tensor(r, requires_grad=True) for r in imgs]
            sims = [nc.cosine_sim(g, stacks[j], r) for j, r in zip(pick, rows)]
            cos = nc.concat(g, sims)
            losses = nc.concat(g, [
                nc.softmax_cross_entropy(g, nc.scale(g, c, 20.0), y)
                for c, y in zip(sims, labels)])
        nc.backward(g, nc.row_mean(g, losses))
        return (cos.data, losses.data, [s.grad for s in stacks],
                np.concatenate([r.grad for r in rows]))

    cos1, loss1, ga1, gb1 = run(True)
    cos0, loss0, ga0, gb0 = run(False)
    np.testing.assert_array_equal(cos1, cos0)
    np.testing.assert_array_equal(loss1, loss0)
    for x, y in zip(ga1, ga0):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(gb1, gb0)


def test_softmax_ce_rows_and_label_contract():
    g = nc.Graph()
    logits = nc.Tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    out = nc.softmax_cross_entropy(g, logits, [2, 1])
    assert out.shape == (2, 1)
    assert abs(out.data[0, 0] - 0.40760596) < 1e-6
    assert abs(out.data[1, 0] - math.log(3)) < 1e-6
    with pytest.raises(nc.ShapeError):
        nc.softmax_cross_entropy(g, logits, [2])
    with pytest.raises(nc.ShapeError):
        nc.softmax_cross_entropy(g, logits, 0)
    with pytest.raises(IndexError):
        nc.softmax_cross_entropy(g, logits, [0, 3])


def test_softmax_ce_uniform_logits_is_log_k():
    for k in (2, 5):
        loss = nc.softmax_cross_entropy(nc.Graph(), nc.Tensor(np.zeros((1, k))), 0)
        assert abs(loss.item() - math.log(k)) < 1e-6


def test_softmax_ce_hand_computed():
    # logits [1, 2, 3], label 2: loss = log(e^-2 + e^-1 + 1) = 0.40760596
    g = nc.Graph()
    t = nc.Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    loss = nc.softmax_cross_entropy(g, t, 2)
    assert abs(loss.item() - 0.40760596) < 1e-6
    nc.backward(g, loss)
    want = np.array([[0.09003057, 0.24472847, -0.33475904]])
    assert np.abs(t.grad - want).max() < 1e-6
    assert abs(t.grad.sum()) < 1e-6  # softmax - onehot sums to zero
    with pytest.raises(IndexError):
        nc.softmax_cross_entropy(nc.Graph(), nc.Tensor([[0.0, 0.0]]), 2)


def test_softmax_ce_saturated_and_nonnegative():
    g = nc.Graph()
    assert nc.softmax_cross_entropy(g, nc.Tensor([[100.0, 0.0]]), 0).item() < 1e-6
    assert nc.softmax_cross_entropy(g, nc.Tensor([[100.0, 0.0]]), 1).item() >= 0


def test_softmax_ce_gradient_fd_tight():
    # frozen spec-style check: label 1, h=1e-3, max abs diff < 1e-4
    x0 = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)

    def forward(x):
        return nc.softmax_cross_entropy(nc.Graph(), nc.Tensor(x), 1).item()

    g = nc.Graph()
    t = nc.Tensor(x0, requires_grad=True)
    nc.backward(g, nc.softmax_cross_entropy(g, t, 1))
    from fdcheck import fd_grad

    assert np.abs(t.grad - fd_grad(forward, x0)).max() < 1e-4


def test_bce_hand_computed():
    g = nc.Graph()
    assert abs(nc.bce_with_logits(g, nc.Tensor([[0.0]]), 1.0).item() - math.log(2)) < 1e-6
    assert nc.bce_with_logits(g, nc.Tensor([[50.0]]), 1.0).item() < 1e-6
    assert math.isfinite(nc.bce_with_logits(g, nc.Tensor([[100.0]]), 0.0).item())
    # rows [2, -1] at target 1: mean of 0.12692801 and 1.31326169
    batch = nc.Tensor([[2.0], [-1.0]])
    assert abs(nc.bce_with_logits(g, batch, 1.0).item() - 0.72009485) < 1e-6
    with pytest.raises(nc.ShapeError):
        nc.bce_with_logits(g, nc.Tensor([[0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        nc.bce_with_logits(g, nc.Tensor([[0.0]]), 0.5)


def test_bce_gradient_fd_tight():
    # logit 0.7, target 0: analytic grad sigma(0.7); diff vs FD < 1e-4
    x0 = np.array([[0.7]], dtype=np.float32)
    g = nc.Graph()
    t = nc.Tensor(x0, requires_grad=True)
    nc.backward(g, nc.bce_with_logits(g, t, 0.0))
    from fdcheck import fd_grad

    numeric = fd_grad(lambda x: nc.bce_with_logits(nc.Graph(), nc.Tensor(x), 0.0).item(), x0)
    assert np.abs(t.grad - numeric).max() < 1e-4


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradients_match_finite_differences():
    for name, x0, forward in all_cases(seed=0):
        check_case(forward, x0)


def test_backward_accumulates_until_reset():
    w = nc.Tensor([[2.0]], requires_grad=True)

    def run():
        g = nc.Graph()
        d = nc.add(g, w, nc.Tensor([[-3.0]]))
        loss = nc.matmul(g, d, d)  # (w-3)^2, same tensor on both sides
        nc.backward(g, loss)

    run()
    assert np.allclose(w.grad, [[-2.0]])
    run()
    assert np.allclose(w.grad, [[-4.0]])
    nc.reset_grads([w])
    assert w.grad is None


def test_backward_rejects_nonscalar_and_foreign_roots():
    g = nc.Graph()
    x = nc.Tensor([[1.0, 2.0]], requires_grad=True)
    y = nc.tanh(g, x)
    with pytest.raises(nc.GraphError):
        nc.backward(g, y)
    stranger = nc.Tensor([[1.0]], requires_grad=True)
    with pytest.raises(nc.GraphError):
        nc.backward(g, stranger)


def test_inference_records_nothing():
    g = nc.Graph()
    x = nc.Tensor(np.ones((2, 3)))
    y = nc.tanh(g, nc.scale(g, x, 2.0))
    assert len(g) == 0 and not y.requires_grad


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    w = nc.Tensor([[1.0]], requires_grad=True)
    w.grad = np.array([[1.0]], dtype=np.float32)
    nc.Adam(lr=0.1).step([w])
    assert abs(w.data[0, 0] - 0.9) < 1e-6


def test_adamw_zero_grad_is_pure_decay():
    w = nc.Tensor([[2.0]], requires_grad=True)
    w.grad = np.zeros((1, 1), dtype=np.float32)
    nc.AdamW(lr=0.1, weight_decay=1.0).step([w])
    assert w.data[0, 0] == np.float32(1.8)


def test_adam_descends_quadratic_monotonically():
    w = nc.Tensor([[0.0]], requires_grad=True)
    opt = nc.Adam(lr=0.3)
    losses = []
    for _ in range(10):
        g = nc.Graph()
        d = nc.add(g, w, nc.Tensor([[-3.0]]))
        loss = nc.matmul(g, d, d)
        losses.append(loss.item())
        nc.reset_grads([w])
        nc.backward(g, loss)
        opt.step([w])
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_lr_zero_step_is_bit_exact_noop(rng):
    x0 = rng.normal(0, 1, (3, 4)).astype(np.float32)
    for opt in (nc.Adam(lr=0.0), nc.AdamW(lr=0.0, weight_decay=0.1)):
        w = nc.Tensor(x0.copy(), requires_grad=True)
        w.grad = rng.normal(0, 1, (3, 4)).astype(np.float32)
        before = w.data.tobytes()
        opt.step([w])
        assert w.data.tobytes() == before


def test_step_without_grad_raises():
    w = nc.Tensor([[1.0]], requires_grad=True)
    with pytest.raises(nc.OptimizerError):
        nc.Adam(lr=0.1).step([w])


def test_bias_correction_is_per_parameter():
    # stepping one param twice then another once must not share step counts
    opt = nc.Adam(lr=0.1)
    a = nc.Tensor([[1.0]], requires_grad=True)
    b = nc.Tensor([[1.0]], requires_grad=True)
    a.grad = np.array([[1.0]], dtype=np.float32)
    b.grad = np.array([[1.0]], dtype=np.float32)
    opt.step([a])
    opt.step([a, b])
    # b saw exactly one bias-corrected first step
    assert abs(b.data[0, 0] - 0.9) < 1e-6


class _ReferenceAdam:
    """The update rule written out with fresh float64 arrays per step, the
    oracle the in-place optimizer must match bit for bit."""

    def __init__(self, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.state = {}

    def step(self, params):
        for p in params:
            m, v, t = self.state.get(id(p), (np.zeros(p.shape), np.zeros(p.shape), 0))
            t += 1
            w = p.data.astype(np.float64)
            if self.weight_decay != 0.0:
                w = w * (1.0 - self.lr * self.weight_decay)
            grad = p.grad.astype(np.float64)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            mhat = m / (1.0 - self.beta1 ** t)
            vhat = v / (1.0 - self.beta2 ** t)
            w = w - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.data = w.astype(np.float32)
            self.state[id(p)] = (m, v, t)


@pytest.mark.parametrize("make", [
    lambda: nc.Adam(lr=0.05),
    lambda: nc.AdamW(lr=1e-2, weight_decay=0.0),
    lambda: nc.AdamW(lr=1e-2, weight_decay=2e-5),
], ids=["adam", "adamw-wd0", "adamw-wd2e-5"])
def test_optimizer_matches_reference_formula_bit_for_bit(rng, make):
    opt = make()
    ref = _ReferenceAdam(opt.lr, opt.weight_decay)
    shapes = [(3, 4), (1, 4), (5, 2), (1, 1)]
    inits = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
    mine = [nc.Tensor(x.copy(), requires_grad=True) for x in inits]
    theirs = [nc.Tensor(x.copy(), requires_grad=True) for x in inits]
    special = np.array([0.0, -0.0, 1e-6, -1e-6, 50.0, -50.0], dtype=np.float32)
    for step in range(240):
        # a nonempty subset of the parameters, as the prompt stage steps
        subset = [i for i in range(len(shapes)) if rng.random() < 0.6] or [step % 4]
        for i in subset:
            grad = rng.normal(0, 1, shapes[i]).astype(np.float32)
            pick = rng.random(shapes[i]) < 0.3
            grad[pick] = rng.choice(special, size=int(pick.sum()))
            mine[i].grad, theirs[i].grad = grad, grad.copy()
        held = [mine[i].data for i in subset]
        held_bytes = [a.tobytes() for a in held]
        opt.step([mine[i] for i in subset])
        ref.step([theirs[i] for i in subset])
        for i, arr, before in zip(subset, held, held_bytes):
            assert arr.tobytes() == before  # rebound, never written in place
            assert mine[i].data is not arr and mine[i].data.dtype == np.float32
        for p, q in zip(mine, theirs):
            assert p.data.tobytes() == q.data.tobytes()
            if id(q) in ref.state:
                slot = opt._slots[id(p)]
                m, v, t = ref.state[id(q)]
                assert slot.t == t
                assert slot.m.tobytes() == m.tobytes()
                assert slot.v.tobytes() == v.tobytes()


def _train_once(seed):
    rng = np.random.default_rng(seed)
    w1 = nc.Tensor(rng.normal(0, 0.5, (4, 8)).astype(np.float32), requires_grad=True)
    w2 = nc.Tensor(rng.normal(0, 0.5, (8, 3)).astype(np.float32), requires_grad=True)
    xs = rng.normal(0, 1, (16, 4)).astype(np.float32)
    ys = rng.integers(0, 3, 16)
    opt = nc.Adam(lr=1e-2)
    for epoch in range(3):
        for i in range(16):
            g = nc.Graph()
            h = nc.tanh(g, nc.matmul(g, nc.Tensor(xs[i : i + 1]), w1))
            logits = nc.matmul(g, h, w2)
            loss = nc.softmax_cross_entropy(g, logits, int(ys[i]))
            nc.reset_grads([w1, w2])
            nc.backward(g, loss)
            opt.step([w1, w2])
    return w1.data.tobytes() + w2.data.tobytes()


def test_training_is_deterministic():
    assert _train_once(7) == _train_once(7)
