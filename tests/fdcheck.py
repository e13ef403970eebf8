"""Finite-difference gradient oracle for checking the autodiff tape.

Central differences on float32 inputs are noisy: x + h rounds, and the
loss itself is rounded to float32 on the way out. Two mitigations keep
the checks tight:

  * the achieved step (hi - lo after float32 rounding) goes in the
    denominator, so input rounding does not bias the estimate;
  * errors are scaled by max(||numeric||_inf, 0.1), so near-zero
    gradients do not blow up the relative error.

With h = 1e-3 and O(1) inputs this keeps honest gradients well under a
1e-3 relative error.
"""

import numpy as np

from fdglab import numcore as nc


def fd_grad(loss_fn, x0: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar loss_fn at float32 point x0."""
    x = x0.astype(np.float32).copy()
    out = np.zeros(x.shape, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = np.float32(x[idx])
        hi = np.float32(orig + np.float32(h))
        lo = np.float32(orig - np.float32(h))
        x[idx] = hi
        f_hi = loss_fn(x)
        x[idx] = lo
        f_lo = loss_fn(x)
        x[idx] = orig
        out[idx] = (f_hi - f_lo) / (float(hi) - float(lo))
    return out


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(||n||_inf, 0.1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(float(np.abs(n).max()), 0.1)
    return float(np.abs(a - n).max() / denom)


def check_case(forward, x0: np.ndarray, h: float = 1e-3, tol: float = 1e-3) -> float:
    """Compare tape gradient of forward(graph, param) against central FD.

    forward must map a (Graph, Tensor) pair to a 1x1 loss tensor and be a
    pure function of the tensor's values. Returns the relative error and
    asserts it is under tol.
    """
    g = nc.Graph()
    p = nc.Tensor(x0, requires_grad=True)
    loss = forward(g, p)
    nc.backward(g, loss)
    analytic = p.grad.copy()

    def f(x):
        return forward(nc.Graph(), nc.Tensor(x)).item()

    numeric = fd_grad(f, x0, h).reshape(analytic.shape)
    err = rel_err(analytic, numeric)
    assert err < tol, f"gradient check failed: rel err {err:.3e} >= {tol:g}"
    return err


def _unit_plus(rng, rows, cols):
    """Rows with L2 norm >= 1, safe for normalize/cosine checks."""
    x = rng.normal(0.0, 1.0, (rows, cols))
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    x = x / norms * (1.0 + np.abs(rng.normal(0.0, 0.5, (rows, 1))))
    return x.astype(np.float32)


def _reduce(g, t, u, v):
    """Fixed bilinear reduction u @ t @ v to a 1x1 scalar."""
    return nc.matmul(g, nc.matmul(g, nc.Tensor(u), t), nc.Tensor(v))


def all_cases(seed: int):
    """Yield (name, x0, forward) gradient-check cases covering every op.

    Each case differentiates through exactly one op of interest (plus the
    fixed bilinear reduction where the op's output is not scalar).
    """
    rng = np.random.default_rng(seed)

    def weights(rows, cols):
        u = rng.normal(0.0, 1.0, (1, rows)).astype(np.float32)
        v = rng.normal(0.0, 1.0, (cols, 1)).astype(np.float32)
        return u, v

    cases = []

    # matmul, grad wrt each side
    a0 = rng.normal(0.0, 1.0, (3, 4)).astype(np.float32)
    b0 = rng.normal(0.0, 1.0, (4, 2)).astype(np.float32)
    u, v = weights(3, 2)
    cases.append(("matmul/left", a0.copy(),
                  lambda g, p, b0=b0, u=u, v=v: _reduce(g, nc.matmul(g, p, nc.Tensor(b0)), u, v)))
    cases.append(("matmul/right", b0.copy(),
                  lambda g, p, a0=a0, u=u, v=v: _reduce(g, nc.matmul(g, nc.Tensor(a0), p), u, v)))

    # add, same shape and bias broadcast, grad wrt each side
    x0 = rng.normal(0.0, 1.0, (3, 5)).astype(np.float32)
    y0 = rng.normal(0.0, 1.0, (3, 5)).astype(np.float32)
    bias0 = rng.normal(0.0, 1.0, (1, 5)).astype(np.float32)
    u, v = weights(3, 5)
    cases.append(("add/left", x0.copy(),
                  lambda g, p, y0=y0, u=u, v=v: _reduce(g, nc.add(g, p, nc.Tensor(y0)), u, v)))
    cases.append(("add/right", y0.copy(),
                  lambda g, p, x0=x0, u=u, v=v: _reduce(g, nc.add(g, nc.Tensor(x0), p), u, v)))
    cases.append(("add/bias", bias0.copy(),
                  lambda g, p, x0=x0, u=u, v=v: _reduce(g, nc.add(g, nc.Tensor(x0), p), u, v)))

    # scale
    s = float(rng.uniform(-2.0, 2.0))
    u, v = weights(3, 5)
    cases.append(("scale", x0.copy(),
                  lambda g, p, s=s, u=u, v=v: _reduce(g, nc.scale(g, p, s), u, v)))

    # concat along each axis, grad wrt one part
    c0 = rng.normal(0.0, 1.0, (2, 5)).astype(np.float32)
    u, v = weights(5, 5)
    cases.append(("concat/axis0", x0.copy(),
                  lambda g, p, c0=c0, u=u, v=v: _reduce(
                      g, nc.concat(g, [p, nc.Tensor(c0)], axis=0), u, v)))
    d0 = rng.normal(0.0, 1.0, (3, 2)).astype(np.float32)
    u, v = weights(3, 7)
    cases.append(("concat/axis1", x0.copy(),
                  lambda g, p, d0=d0, u=u, v=v: _reduce(
                      g, nc.concat(g, [p, nc.Tensor(d0)], axis=1), u, v)))

    # reshape
    r0 = rng.normal(0.0, 1.0, (2, 6)).astype(np.float32)
    u, v = weights(3, 4)
    cases.append(("reshape", r0.copy(),
                  lambda g, p, u=u, v=v: _reduce(g, nc.reshape(g, p, 3, 4), u, v)))

    # row_mean
    u, v = weights(1, 5)
    cases.append(("row_mean", x0.copy(),
                  lambda g, p, u=u, v=v: _reduce(g, nc.row_mean(g, p), u, v)))

    # activations; relu points kept away from the kink
    u, v = weights(3, 5)
    cases.append(("tanh", x0.copy(),
                  lambda g, p, u=u, v=v: _reduce(g, nc.tanh(g, p), u, v)))
    relu0 = (rng.uniform(0.1, 1.0, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5))).astype(np.float32)
    cases.append(("relu", relu0,
                  lambda g, p, u=u, v=v: _reduce(g, nc.relu(g, p), u, v)))
    cases.append(("sigmoid", x0.copy(),
                  lambda g, p, u=u, v=v: _reduce(g, nc.sigmoid(g, p), u, v)))

    # l2_normalize
    n0 = _unit_plus(rng, 3, 6)
    u, v = weights(3, 6)
    cases.append(("l2_normalize", n0,
                  lambda g, p, u=u, v=v: _reduce(g, nc.l2_normalize(g, p), u, v)))

    # cosine_sim, grad wrt each side
    ca = _unit_plus(rng, 1, 8)
    cb = _unit_plus(rng, 1, 8)
    cases.append(("cosine_sim/left", ca.copy(),
                  lambda g, p, cb=cb: nc.cosine_sim(g, p, nc.Tensor(cb))))
    cases.append(("cosine_sim/right", cb.copy(),
                  lambda g, p, ca=ca: nc.cosine_sim(g, nc.Tensor(ca), p)))

    # losses
    logits0 = rng.normal(0.0, 2.0, (1, 6)).astype(np.float32)
    label = int(rng.integers(0, 6))
    cases.append(("softmax_cross_entropy", logits0,
                  lambda g, p, label=label: nc.softmax_cross_entropy(g, p, label)))
    z0 = rng.normal(0.0, 1.5, (4, 1)).astype(np.float32)
    cases.append(("bce_with_logits/t1", z0.copy(),
                  lambda g, p: nc.bce_with_logits(g, p, 1.0)))
    cases.append(("bce_with_logits/t0", z0.copy(),
                  lambda g, p: nc.bce_with_logits(g, p, 0.0)))

    # a deep chain mixing several ops
    w0 = rng.normal(0.0, 0.7, (4, 4)).astype(np.float32)
    feed = rng.normal(0.0, 1.0, (1, 4)).astype(np.float32)

    def chain(g, p, feed=feed):
        h1 = nc.tanh(g, nc.matmul(g, nc.Tensor(feed), p))
        h2 = nc.l2_normalize(g, h1)
        logit = nc.cosine_sim(g, h2, nc.Tensor(feed))
        return nc.bce_with_logits(g, logit, 1.0)

    cases.append(("chain", w0, chain))

    return cases


def stage1_cases(seed: int):
    """FD cases for the full stage-1 loss: mean cross entropy of cosine
    scores over a tiny two-sample batch, w.r.t. v and w.r.t. one u."""
    from fdglab import dsp
    from fdglab.encoder import FrozenEncoders, TokenTable, class_token, encode_text

    rng = np.random.default_rng(seed)
    enc = FrozenEncoders(feature_dim=6, d=6, d_tok=6, seed=seed)
    table = TokenTable(d_tok=6, seed=seed)
    classes = ["c0", "c1", "c2"]
    embs = rng.normal(0.0, 1.0, (2, 6))
    embs = (embs / np.linalg.norm(embs, axis=1, keepdims=True)).astype(np.float32)
    labels = [0, 2]
    v0 = rng.normal(0.0, 0.3, (2, 6)).astype(np.float32)
    u0 = rng.normal(0.0, 0.3, (1, 6)).astype(np.float32)
    tau = 0.5

    def batch_loss(g, p):
        prompt_embs = nc.concat(g, [
            encode_text(g, enc, dsp.assemble_prompt(g, p, 0, class_token(table, n)))
            for n in classes
        ])
        losses = []
        for i, label in enumerate(labels):
            logits = dsp.similarity_logits(
                g, prompt_embs, nc.Tensor(embs[i : i + 1]), tau)
            losses.append(nc.softmax_cross_entropy(g, logits, label))
        return nc.row_mean(g, nc.concat(g, losses, axis=0))

    def wrt_v(g, vt):
        p = dsp.DspParams(m1=2, m2=1, d_tok=6, v=vt, u={0: nc.Tensor(u0)})
        return batch_loss(g, p)

    def wrt_u(g, ut):
        p = dsp.DspParams(m1=2, m2=1, d_tok=6, v=nc.Tensor(v0), u={0: ut})
        return batch_loss(g, p)

    return [("stage1/v", v0.copy(), wrt_v), ("stage1/u", u0.copy(), wrt_u)]


def gan_fd_cases(seed: int):
    """FD cases for both adversarial losses on tiny shapes, w.r.t. one
    generator weight and one discriminator weight each."""
    from fdglab import promptgan as pg

    rng = np.random.default_rng(seed)
    dims = dict(n_rows=2, d_tok=3, d=4, z_dim=2, h=5)
    z = rng.normal(0.0, 1.0, (2, dims["z_dim"])).astype(np.float32)
    embs = rng.normal(0.0, 1.0, (2, dims["d"]))
    embs = (embs / np.linalg.norm(embs, axis=1, keepdims=True)).astype(np.float32)
    real = rng.normal(0.0, 1.0, (2, dims["n_rows"] * dims["d_tok"])).astype(np.float32)

    def build():
        return pg.GanParams(seed=seed, **dims)

    def d_loss_graph(g, gan):
        fake = pg.generator_rows(g, gan, nc.Tensor(z), nc.Tensor(embs))
        fake = nc.Tensor(fake.data)  # constants for the D step
        lr_ = pg.discriminator_logits(g, gan, nc.Tensor(real), nc.Tensor(embs))
        lf_ = pg.discriminator_logits(g, gan, fake, nc.Tensor(embs))
        return nc.add(g, nc.bce_with_logits(g, lr_, 1.0),
                      nc.bce_with_logits(g, lf_, 0.0))

    def g_loss_graph(g, gan):
        fake = pg.generator_rows(g, gan, nc.Tensor(z), nc.Tensor(embs))
        logit = pg.discriminator_logits(g, gan, fake, nc.Tensor(embs))
        return nc.bce_with_logits(g, logit, 1.0)

    def swap(gan, which, layer, wt):
        layers = gan.d_layers if which == "D" else gan.g_layers
        layers[layer] = (wt, layers[layer][1])

    cases = []
    for which, layer, loss_fn, tag in [
        ("D", 0, d_loss_graph, "gan/d_loss-wrt-D.l0"),
        ("D", 2, d_loss_graph, "gan/d_loss-wrt-D.l2"),
        ("G", 0, g_loss_graph, "gan/g_loss-wrt-G.l0"),
        ("G", 2, g_loss_graph, "gan/g_loss-wrt-G.l2"),
    ]:
        base = build()
        layers = base.d_layers if which == "D" else base.g_layers
        x0 = layers[layer][0].data.copy()

        def forward(g, wt, which=which, layer=layer, loss_fn=loss_fn):
            gan = build()
            swap(gan, which, layer, wt)
            return loss_fn(g, gan)

        cases.append((tag, x0, forward))
    return cases
