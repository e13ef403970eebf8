"""Conditional-GAN tests: network construction and determinism, the
generator and discriminator forward contracts, train-step isolation
(G vs D), adversarial loss gradients against finite differences, and
short-run sanity."""

import math

import numpy as np
import pytest

from fdglab import numcore as nc
from fdglab import promptgan as pg
from fdcheck import check_case, gan_fd_cases


def param_bytes(params) -> bytes:
    return b"".join(t.data.tobytes() for t in params)


def unit_rows(rng, n, d):
    x = rng.normal(0, 1, (n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def gen(gan, z, emb):
    """One generator forward for single (z, embedding) rows."""
    return pg.generator_rows(nc.Graph(), gan, nc.Tensor(z), nc.Tensor(emb)).data


@pytest.fixture
def gan():
    return pg.GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=16, seed=0)


def test_construction_and_determinism():
    a = pg.GanParams(n_rows=8, d_tok=32, d=32, seed=3)
    b = pg.GanParams(n_rows=8, d_tok=32, d=32, seed=3)
    assert param_bytes(a.g_params()) == param_bytes(b.g_params())
    assert param_bytes(a.d_params()) == param_bytes(b.d_params())
    c = pg.GanParams(n_rows=8, d_tok=32, d=32, seed=4)
    assert param_bytes(a.g_params()) != param_bytes(c.g_params())
    assert a.g_layers[0][0].shape == (16 + 32, 128)
    assert a.g_layers[2][0].shape == (128, 8 * 32)
    assert a.d_layers[0][0].shape == (8 * 32 + 32, 128)
    assert a.d_layers[2][0].shape == (128, 1)
    with pytest.raises(ValueError):
        pg.GanParams(n_rows=0, d_tok=32, d=32)


def test_named_covers_all_layers(gan):
    names = list(gan.named())
    assert names == [
        "G/l0.w", "G/l0.b", "G/l1.w", "G/l1.b", "G/l2.w", "G/l2.b",
        "D/l0.w", "D/l0.b", "D/l1.w", "D/l1.b", "D/l2.w", "D/l2.b",
    ]


def test_generate_contracts(gan, rng):
    z = rng.normal(0, 1, 4).astype(np.float32)
    emb = unit_rows(rng, 1, 8)[0]
    out1 = gen(gan, z, emb)
    out2 = gen(gan, z, emb)
    assert out1.shape == (1, 4 * 8)
    assert np.array_equal(out1, out2)
    # default-size output shape
    big = pg.GanParams(n_rows=8, d_tok=32, d=32, seed=0)
    assert gen(big, np.zeros(16), unit_rows(rng, 1, 32)[0]).shape == (1, 8 * 32)
    with pytest.raises(nc.ShapeError):
        gen(gan, np.zeros(5), emb)
    with pytest.raises(nc.ShapeError):
        gen(gan, z, np.zeros(9))
    with pytest.raises(nc.ShapeError):
        gen(gan, np.zeros((2, 4)), emb)  # batch sizes differ


@pytest.mark.parametrize("shape", [(4, 8, 8, 4, 16), (2, 32, 64, 16, 128)])
def test_generator_forward_matches_taped_rows(shape, rng):
    n_rows, d_tok, d, z_dim, h = shape
    gan = pg.GanParams(n_rows=n_rows, d_tok=d_tok, d=d, z_dim=z_dim, h=h,
                       seed=2)
    flat = n_rows * d_tok
    # a 2-D batch is the same product as the taped pass
    z = rng.normal(0, 1, (7, z_dim)).astype(np.float32)
    embs = unit_rows(rng, 7, d)
    got = pg.generator_forward(gan, z, embs)
    assert got.dtype == np.float32 and got.shape == (7, flat)
    assert np.array_equal(got, gen(gan, z, embs))
    # (B, M, .) blocks: image b's M rows equal a taped pass over them alone
    for m in (1, 3, 5, 8):
        zs = rng.normal(0, 1, (m, z_dim)).astype(np.float32)
        blocks = pg.generator_forward(
            gan, np.broadcast_to(zs, (7, m, z_dim)),
            np.repeat(embs[:, None, :], m, axis=1))
        assert blocks.shape == (7, m, flat)
        for b in range(7):
            assert np.array_equal(
                blocks[b], gen(gan, zs, np.repeat(embs[b:b + 1], m, axis=0)))
    with pytest.raises(nc.ShapeError):
        pg.generator_forward(gan, z[:, 1:], embs)
    with pytest.raises(nc.ShapeError):
        pg.generator_forward(gan, z[:3], embs)


def test_distinct_noise_gives_distinct_prompts(gan, rng):
    emb = unit_rows(rng, 1, 8)[0]
    outs = [gen(gan, rng.normal(0, 1, 4), emb) for _ in range(10)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.linalg.norm(outs[i] - outs[j]) > 0


def test_discriminate_contracts(gan, rng):
    prompt = rng.normal(0, 1, (4, 8)).astype(np.float32)
    emb = unit_rows(rng, 1, 8)

    def logit(rows):
        return pg.discriminator_logits(
            nc.Graph(), gan, nc.Tensor(rows.reshape(1, -1)),
            nc.Tensor(emb)).item()

    assert math.isfinite(logit(prompt))
    assert logit(prompt) == logit(prompt)
    with pytest.raises(nc.ShapeError):
        logit(prompt[:2])


def test_bank_contracts(rng):
    embs = unit_rows(rng, 10, 8)
    ctx = rng.normal(0, 1, (4, 8)).astype(np.float32)
    bank = pg.RealPromptBank(contexts={0: ctx}, embeddings={0: embs})
    rc, re, fe = bank.sample_batch(rng, 6)
    assert rc.shape == (6, 32) and re.shape == (6, 8) and fe.shape == (6, 8)
    # every sampled embedding comes from the bank's pool
    pool = {row.tobytes() for row in embs}
    assert all(row.tobytes() in pool for row in re)
    assert all(row.tobytes() in pool for row in fe)
    with pytest.raises(ValueError):
        pg.RealPromptBank(contexts={0: ctx}, embeddings={1: embs})
    with pytest.raises(ValueError):
        pg.RealPromptBank(contexts={}, embeddings={})
    with pytest.raises(ValueError):
        bank.sample_batch(rng, 0)


def test_bank_pairs_each_context_with_its_domains_embeddings(rng):
    sizes = {3: 5, 7: 1, 9: 12}
    embs = {d: unit_rows(rng, n, 8) for d, n in sizes.items()}
    ctxs = {d: np.full((4, 8), d, np.float32) for d in sizes}
    bank = pg.RealPromptBank(contexts=ctxs, embeddings=embs)
    rc, re, fe = bank.sample_batch(rng, 64)
    doms = rc[:, 0].astype(int)
    assert set(doms) == set(sizes)
    for ctx, emb, d in zip(rc, re, doms):
        assert np.array_equal(ctx, ctxs[d].reshape(-1))
        assert any(np.array_equal(emb, row) for row in embs[d])


def _step_inputs(rng, gan, b=6):
    embs = unit_rows(rng, 20, gan.d)
    bank = pg.RealPromptBank(
        contexts={0: rng.normal(0, 1, (gan.n_rows, gan.d_tok)).astype(np.float32)},
        embeddings={0: embs})
    return bank.sample_batch(rng, b)


def test_zero_lr_g_step_leaves_g_unchanged(gan, rng):
    rc, re, fe = _step_inputs(rng, gan)
    g_before = param_bytes(gan.g_params())
    d_before = param_bytes(gan.d_params())
    pg.gan_train_step(gan, rc, re, fe, rng, nc.AdamW(lr=0.0), nc.AdamW(lr=1e-3))
    assert param_bytes(gan.g_params()) == g_before  # G frozen under lr 0
    assert param_bytes(gan.d_params()) != d_before  # D actually trained


def test_zero_lr_d_step_leaves_d_unchanged(gan, rng):
    rc, re, fe = _step_inputs(rng, gan)
    d_before = param_bytes(gan.d_params())
    g_before = param_bytes(gan.g_params())
    pg.gan_train_step(gan, rc, re, fe, rng, nc.AdamW(lr=1e-3), nc.AdamW(lr=0.0))
    assert param_bytes(gan.d_params()) == d_before
    assert param_bytes(gan.g_params()) != g_before


def test_d_loss_at_zero_logits_is_two_ln2(gan, rng):
    # zero the last D layer so every logit is exactly 0
    w, b = gan.d_layers[2]
    w.data = np.zeros_like(w.data)
    b.data = np.zeros_like(b.data)
    rc, re, fe = _step_inputs(rng, gan)
    d_loss, _ = pg.gan_train_step(
        gan, rc, re, fe, rng, nc.AdamW(lr=0.0), nc.AdamW(lr=0.0))
    assert abs(d_loss - 2 * math.log(2)) < 1e-6


def test_step_input_validation(gan, rng):
    rc, re, fe = _step_inputs(rng, gan)
    with pytest.raises(ValueError):
        pg.gan_train_step(gan, rc[:0], re[:0], fe[:0], rng,
                          nc.AdamW(lr=1e-4), nc.AdamW(lr=1e-4))
    with pytest.raises(ValueError):
        pg.gan_train_step(gan, rc, re[:2], fe, rng,
                          nc.AdamW(lr=1e-4), nc.AdamW(lr=1e-4))


def test_only_differentiated_passes_record_tape_nodes(gan, rng, monkeypatch):
    # the D step's generator pass is forward-only: every node a step
    # records belongs to a graph that a backward then reads. The G step
    # holds D fixed: its backward computes no gradient for D's weights
    # (nor for constants wrapping them), and D keeps the D step's values
    graphs, read, d_grads = [], [], []

    class Recorded(nc.Graph):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            graphs.append(self)

    backward = nc.backward

    def read_backward(g, loss):
        read.append(g)
        d_ids = {id(t) for t in gan.d_params()} | {id(t.data) for t in gan.d_params()}
        for node in g.nodes:
            def vjp(gout, inner=node.vjp, parents=node.parents, which=len(read)):
                grads = inner(gout)
                d_grads.extend(which for p, gp in zip(parents, grads) if gp is not None
                               and (id(p) in d_ids or id(p.data) in d_ids))
                return grads
            node.vjp = vjp
        backward(g, loss)

    monkeypatch.setattr(nc, "Graph", Recorded)
    monkeypatch.setattr(nc, "backward", read_backward)
    opt_d, after_d_step = nc.AdamW(lr=1e-3), []

    def d_step(params, step=opt_d.step):
        step(params)
        after_d_step.append(param_bytes(gan.d_params()))

    opt_d.step = d_step
    rc, re, fe = _step_inputs(rng, gan)
    pg.gan_train_step(gan, rc, re, fe, rng, nc.AdamW(lr=1e-3), opt_d)
    assert len(read) == 2
    assert [g for g in graphs if len(g)] == read
    assert 1 in d_grads and 2 not in d_grads  # the D step's, never the G step's
    assert after_d_step == [param_bytes(gan.d_params())]


def test_adversarial_gradients_match_fd():
    for name, x0, forward in gan_fd_cases(seed=0):
        check_case(forward, x0)


def test_short_degenerate_run_moves_toward_real(rng):
    gan = pg.GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=32, seed=1)
    real_ctx = (2.0 * rng.standard_normal((4, 8))).astype(np.float32)
    embs = unit_rows(rng, 16, 8)
    bank = pg.RealPromptBank(contexts={0: real_ctx}, embeddings={0: embs})
    opt_g = nc.AdamW(lr=1e-3, weight_decay=2e-5)
    opt_d = nc.AdamW(lr=1e-3, weight_decay=2e-5)

    def mean_dist():
        zs = pg.sample_z(np.random.default_rng(77), 16, gan.z_dim)
        outs = pg.generator_rows(
            nc.Graph(), gan, nc.Tensor(zs), nc.Tensor(embs)).data
        return float(np.linalg.norm(outs - real_ctx.reshape(1, -1), axis=1).mean())

    d0 = mean_dist()
    step_rng = np.random.default_rng(7)
    for _ in range(300):
        rc, re, fe = bank.sample_batch(step_rng, 8)
        d_loss, g_loss = pg.gan_train_step(gan, rc, re, fe, step_rng, opt_g, opt_d)
        assert math.isfinite(d_loss) and math.isfinite(g_loss)
    assert mean_dist() < d0
