"""Frozen dual-encoder tests: determinism, normalization, differentiability
of the text path, and token-table stability."""

import numpy as np
import pytest

from fdglab import numcore as nc
from fdglab.encoder import (
    FrozenEncoders,
    TokenTable,
    class_token,
    encode_image,
    encode_text,
)
from fdcheck import fd_grad, rel_err


def test_same_seed_builds_identical_weights():
    a = FrozenEncoders(feature_dim=16, d=8, seed=42)
    b = FrozenEncoders(feature_dim=16, d=8, seed=42)
    assert a.checksum() == b.checksum()
    c = FrozenEncoders(feature_dim=16, d=8, seed=43)
    assert a.checksum() != c.checksum()


def test_weight_init_scale():
    enc = FrozenEncoders(feature_dim=256, d=64, seed=0)
    std = enc.w_img1.data.std()
    assert 0.5 / 16 < std < 1.5 / 16  # 1/sqrt(256) = 1/16


def test_encode_image_deterministic_unit_norm(rng):
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    x = rng.normal(0, 1, (5, 16)).astype(np.float32)
    e1 = encode_image(enc, x)
    e2 = encode_image(enc, x)
    assert np.array_equal(e1, e2)
    assert np.allclose(np.linalg.norm(e1, axis=1), 1.0, atol=1e-6)


def test_encode_image_batch_matches_rows(rng):
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    x = rng.normal(0, 1, (4, 16)).astype(np.float32)
    batch = encode_image(enc, x)
    for i in range(4):
        assert np.array_equal(batch[i : i + 1], encode_image(enc, x[i]))


def test_encode_image_is_scale_sensitive(rng):
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    x = rng.normal(0, 1, (1, 16)).astype(np.float32)
    diff = np.abs(encode_image(enc, x) - encode_image(enc, 2 * x)).max()
    assert diff > 1e-3


def test_encode_image_rejects_wrong_dim():
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    with pytest.raises(nc.ShapeError):
        encode_image(enc, np.zeros((1, 17)))


def pooled_text(g, enc, tokens):
    """Text embedding of one prompt: mean-pool its rows, then encode."""
    return encode_text(g, enc, nc.row_mean(g, tokens))


def test_encode_text_pooling_identities(rng):
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    rows = rng.normal(0, 1, (5, 8)).astype(np.float32)
    g = nc.Graph()
    out = pooled_text(g, enc, nc.Tensor(rows))
    assert np.allclose(np.linalg.norm(out.data), 1.0, atol=1e-6)
    # permutation invariance of mean pooling
    perm = rows[rng.permutation(5)]
    out_p = pooled_text(nc.Graph(), enc, nc.Tensor(perm))
    assert np.abs(out.data - out_p.data).max() < 1e-6
    # single token equals its own pool
    one = pooled_text(nc.Graph(), enc, nc.Tensor(rows[:1]))
    same = pooled_text(nc.Graph(), enc, nc.Tensor(np.repeat(rows[:1], 3, axis=0)))
    assert np.abs(one.data - same.data).max() < 1e-6
    with pytest.raises(nc.ShapeError):
        encode_text(nc.Graph(), enc, nc.Tensor(np.zeros((1, 9))))


def test_encode_text_rows_match_one_row_calls(rng):
    # Holds for these inputs only. The float64 products of an R-row
    # matmul and of R one-row matmuls usually differ in their last bits,
    # and on rare inputs that flips a float32 rounding. At desk shapes
    # (5 rows, d_tok 32, d 64), stage 1 of the seed-3 dsp fold with
    # domain 0 held out has one such call in 900 (round 88, client 0,
    # step 0, row 2).
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    pooled = rng.normal(0, 1, (6, 8)).astype(np.float32)
    batch = encode_text(nc.Graph(), enc, nc.Tensor(pooled)).data
    assert batch.shape == (6, 8)
    for i in range(6):
        one = encode_text(nc.Graph(), enc, nc.Tensor(pooled[i:i + 1])).data
        np.testing.assert_array_equal(batch[i:i + 1], one)


def test_encode_text_gradient_matches_fd(rng):
    enc = FrozenEncoders(feature_dim=16, d=8, seed=1)
    target = rng.normal(0, 1, (1, 8)).astype(np.float32)
    tokens0 = rng.normal(0, 1, (3, 8)).astype(np.float32)

    def forward(tokens):
        g = nc.Graph()
        t = nc.Tensor(tokens, requires_grad=True)
        emb = pooled_text(g, enc, t)
        loss = nc.cosine_sim(g, emb, nc.Tensor(target))
        return g, t, loss

    g, t, loss = forward(tokens0)
    nc.backward(g, loss)
    numeric = fd_grad(lambda x: forward(x)[2].item(), tokens0)
    assert rel_err(t.grad, numeric) < 1e-3


def test_encoder_weights_are_frozen(rng):
    enc = FrozenEncoders(feature_dim=16, d=8, seed=0)
    before = enc.checksum()
    g = nc.Graph()
    tokens = nc.Tensor(rng.normal(0, 1, (3, 8)).astype(np.float32), requires_grad=True)
    emb = pooled_text(g, enc, tokens)
    loss = nc.matmul(g, emb, nc.Tensor(np.ones((8, 1), dtype=np.float32)))
    nc.backward(g, loss)
    for w in enc.weights():
        assert not w.requires_grad and w.grad is None
    assert enc.checksum() == before


def test_token_table_rows():
    t = TokenTable(d_tok=8, seed=0)
    assert np.array_equal(t.row("dog"), t.row("dog"))
    assert not np.array_equal(t.row("dog"), t.row("cat"))
    # cross-instance determinism
    assert np.array_equal(TokenTable(8, seed=0).row("dog"), t.row("dog"))
    assert not np.array_equal(TokenTable(8, seed=1).row("dog"), t.row("dog"))
    with pytest.raises(ValueError):
        t.row("")


def test_token_table_distinct_class_set():
    t = TokenTable(d_tok=8, seed=0)
    names = [f"class_{i}" for i in range(5)]
    rows = [t.row(n) for n in names]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(rows[i], rows[j])


def test_token_table_checksum_tracks_rows():
    t = TokenTable(d_tok=8, seed=0)
    t.row("dog")
    before = t.checksum()
    t.row("dog")
    assert t.checksum() == before
    t.row("cat")
    assert t.checksum() != before


def test_class_token_is_frozen_tensor():
    t = TokenTable(d_tok=8, seed=0)
    tok = class_token(t, "dog")
    assert tok.shape == (1, 8) and not tok.requires_grad
