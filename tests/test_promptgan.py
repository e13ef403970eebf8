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
    assert a.checksum_g() == b.checksum_g()
    assert a.checksum_d() == b.checksum_d()
    c = pg.GanParams(n_rows=8, d_tok=32, d=32, seed=4)
    assert a.checksum_g() != c.checksum_g()
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


def _step_inputs(rng, gan, b=6):
    embs = unit_rows(rng, 20, gan.d)
    bank = pg.RealPromptBank(
        contexts={0: rng.normal(0, 1, (gan.n_rows, gan.d_tok)).astype(np.float32)},
        embeddings={0: embs})
    return bank.sample_batch(rng, b)


def test_zero_lr_g_step_leaves_g_unchanged(gan, rng):
    rc, re, fe = _step_inputs(rng, gan)
    g_before = gan.checksum_g()
    d_before = gan.checksum_d()
    pg.gan_train_step(gan, rc, re, fe, rng, nc.AdamW(lr=0.0), nc.AdamW(lr=1e-3))
    assert gan.checksum_g() == g_before  # G frozen under lr 0
    assert gan.checksum_d() != d_before  # D actually trained


def test_zero_lr_d_step_leaves_d_unchanged(gan, rng):
    rc, re, fe = _step_inputs(rng, gan)
    d_before = gan.checksum_d()
    g_before = gan.checksum_g()
    pg.gan_train_step(gan, rc, re, fe, rng, nc.AdamW(lr=1e-3), nc.AdamW(lr=0.0))
    assert gan.checksum_d() == d_before
    assert gan.checksum_g() != g_before


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
    with pytest.raises(ValueError):
        pg.gan_train_step(gan, rc, re, fe, rng,
                          nc.AdamW(lr=1e-4), nc.AdamW(lr=1e-4),
                          g_loss_mode="wrong")


def test_adversarial_gradients_match_fd():
    for name, x0, forward in gan_fd_cases(seed=0):
        check_case(forward, x0)


def test_saturating_mode_runs(gan, rng):
    rc, re, fe = _step_inputs(rng, gan)
    d_loss, g_loss = pg.gan_train_step(
        gan, rc, re, fe, rng, nc.AdamW(lr=1e-4), nc.AdamW(lr=1e-4),
        g_loss_mode="saturating")
    assert math.isfinite(d_loss) and math.isfinite(g_loss)
    assert g_loss <= 0  # log(1 - D) form is nonpositive as a loss here


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
