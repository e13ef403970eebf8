"""Stage-1 prompt tests: assembly, scoring tuned prompts, the training
step (descent, null step, frozen backbone, touched-only updates) and
finite-difference checks of the full stage-1 loss."""

import numpy as np
import pytest

from fdglab import numcore as nc
from fdglab import dsp
from fdglab.encoder import FrozenEncoders, TokenTable
from fdglab.evalhub import InferenceModel
from fdcheck import check_case, stage1_cases


@pytest.fixture
def setup(rng):
    enc = FrozenEncoders(feature_dim=12, d=8, d_tok=8, seed=0)
    table = TokenTable(d_tok=8, seed=0)
    classes = ["c0", "c1", "c2"]
    embs = rng.normal(0, 1, (6, 8))
    embs = (embs / np.linalg.norm(embs, axis=1, keepdims=True)).astype(np.float32)
    return enc, table, classes, embs


def test_make_params_modes():
    p = dsp.make_prompt_params("dsp", domains=[1, 0], m1=4, m2=4, d_tok=8, seed=0)
    assert p.v.shape == (4, 8) and set(p.u) == {0, 1}
    assert all(t.requires_grad for t in p.trainables())
    c = dsp.make_prompt_params("csp", domains=[0, 1], m1=4, m2=4, d_tok=8, seed=0)
    assert c.m2 == 0 and c.u == {}
    w = dsp.make_prompt_params("wgm", domains=[0], d_tok=8, seed=0)
    assert w.v is not None and 0 in w.u
    assert dsp.make_prompt_params("hdp", domains=[0], d_tok=8, seed=0) is None
    with pytest.raises(ValueError):
        dsp.make_prompt_params("foo", domains=[0])
    with pytest.raises(ValueError):
        dsp.DspParams(m1=0, m2=0, d_tok=8, v=None)


def test_make_params_deterministic():
    a = dsp.make_prompt_params("dsp", domains=[0, 1], d_tok=8, seed=5)
    b = dsp.make_prompt_params("dsp", domains=[0, 1], d_tok=8, seed=5)
    assert np.array_equal(a.v.data, b.v.data)
    assert np.array_equal(a.u[1].data, b.u[1].data)
    assert abs(a.v.data.std() - dsp.INIT_STD) < dsp.INIT_STD  # std 0.02 scale


def test_assemble_prompt_row_order():
    a = np.full((1, 4), 1.0, dtype=np.float32)
    b = np.full((1, 4), 2.0, dtype=np.float32)
    c = np.full((1, 4), 3.0, dtype=np.float32)
    p = dsp.DspParams(m1=1, m2=1, d_tok=4,
                      v=nc.Tensor(a, requires_grad=True),
                      u={0: nc.Tensor(b, requires_grad=True)})
    out = dsp.assemble_prompt(nc.Graph(), p, 0, nc.Tensor(c))
    assert np.array_equal(out.data, np.concatenate([a, b, c], axis=0))
    with pytest.raises(KeyError):
        dsp.assemble_prompt(nc.Graph(), p, 7, nc.Tensor(c))


def test_assemble_prompt_shapes():
    p = dsp.make_prompt_params("dsp", domains=[0], m1=4, m2=4, d_tok=32, seed=0)
    cls = nc.Tensor(np.zeros((1, 32), dtype=np.float32))
    assert dsp.assemble_prompt(nc.Graph(), p, 0, cls).shape == (9, 32)
    c = dsp.make_prompt_params("csp", domains=[0], m1=4, d_tok=32, seed=0)
    assert dsp.assemble_prompt(nc.Graph(), c, 0, cls).shape == (5, 32)


def test_classify_contracts(setup):
    # tuned prompts [v; u^0; cls] scored by the one inference path; with a
    # single source domain the wgm mean of u is u^0 itself
    enc, table, classes, embs = setup
    p = dsp.make_prompt_params("dsp", domains=[0], d_tok=8, seed=0)

    def probs(names, emb, tau=0.05):
        model = InferenceModel(enc=enc, table=table, classes=names, tau=tau,
                               mode="wgm", prompt=p)
        return model.predict_from_emb(emb.reshape(1, -1)).probs

    out = probs(classes, embs[0])
    assert out.shape == (1, 3)
    assert abs(out.sum() - 1.0) < 1e-6
    assert (out >= 0).all()
    # identical prompts -> uniform
    assert np.allclose(probs(["same", "same"], embs[0]), 0.5)
    # halving tau preserves argmax
    assert (np.argmax(probs(classes, embs[1], 0.05))
            == np.argmax(probs(classes, embs[1], 0.025)))
    with pytest.raises(ValueError):
        probs(classes, embs[0], tau=0.0)
    with pytest.raises(ValueError):
        probs(["only"], embs[0])


def test_train_step_reduces_loss(setup):
    enc, table, classes, embs = setup
    p = dsp.make_prompt_params("dsp", domains=[0], d_tok=8, seed=0)
    opt = nc.Adam(lr=0.05)
    batch = [(0, 1, embs[0])]
    first = dsp.dsp_train_step(p, batch, enc, table, classes, opt, tau=0.1)
    last = first
    for _ in range(50):
        last = dsp.dsp_train_step(p, batch, enc, table, classes, opt, tau=0.1)
    assert last < first


def test_train_step_lr_zero_is_noop(setup):
    enc, table, classes, embs = setup
    p = dsp.make_prompt_params("dsp", domains=[0, 1], d_tok=8, seed=0)
    before = {k: t.data.tobytes() for k, t in p.named().items()}
    batch = [(0, 0, embs[0]), (1, 2, embs[1])]
    dsp.dsp_train_step(p, batch, enc, table, classes, nc.Adam(lr=0.0), tau=0.1)
    after = {k: t.data.tobytes() for k, t in p.named().items()}
    assert before == after


def test_train_step_touches_only_batch_domains(setup):
    enc, table, classes, embs = setup
    p = dsp.make_prompt_params("dsp", domains=[0, 1], d_tok=8, seed=0)
    u0_before = p.u[0].data.tobytes()
    u1_before = p.u[1].data.tobytes()
    v_before = p.v.data.tobytes()
    batch = [(0, 0, embs[0]), (0, 1, embs[1])]
    dsp.dsp_train_step(p, batch, enc, table, classes, nc.Adam(lr=0.05), tau=0.1)
    assert p.u[1].data.tobytes() == u1_before  # untouched domain
    assert p.v.data.tobytes() != v_before
    assert p.u[0].data.tobytes() != u0_before  # touched domain moved
    with pytest.raises(ValueError):
        dsp.dsp_train_step(p, [], enc, table, classes, nc.Adam(lr=0.05))
    with pytest.raises(KeyError):
        dsp.dsp_train_step(p, [(9, 0, embs[0])], enc, table, classes,
                           nc.Adam(lr=0.05))


def test_training_leaves_backbone_frozen(setup):
    enc, table, classes, embs = setup
    for name in classes:
        table.row(name)
    enc_sum, tab_sum = enc.checksum(), table.checksum()
    p = dsp.make_prompt_params("dsp", domains=[0], d_tok=8, seed=0)
    opt = nc.Adam(lr=0.05)
    for i in range(6):
        dsp.dsp_train_step(p, [(0, i % 3, embs[i])], enc, table, classes, opt,
                           tau=0.1)
    assert enc.checksum() == enc_sum
    assert table.checksum() == tab_sum


def test_stage1_loss_gradients_match_fd():
    for name, x0, forward in stage1_cases(seed=0):
        check_case(forward, x0)


def test_hand_crafted_prompts():
    # hdp's fixed template "a photo of a", stacked above each class token
    table = TokenTable(d_tok=8, seed=0)
    rows = dsp.template_context_rows(table)
    assert rows.shape == (4, 8)
    again = dsp.template_context_rows(TokenTable(d_tok=8, seed=0))
    assert np.array_equal(rows, again)
    assert np.array_equal(rows[1:2], table.row("photo"))
    assert np.array_equal(rows[0], rows[3])  # "a" twice
    assert not np.array_equal(rows[0], rows[1])


def test_context_rows():
    p = dsp.make_prompt_params("dsp", domains=[0], m1=2, m2=3, d_tok=4, seed=0)
    rows = p.context_rows(0)
    assert rows.shape == (5, 4)
    assert np.array_equal(rows[:2], p.v.data)
    assert np.array_equal(rows[2:], p.u[0].data)
    with pytest.raises(KeyError):
        p.context_rows(9)
    c = dsp.make_prompt_params("csp", domains=[0], m1=2, d_tok=4, seed=0)
    assert c.context_rows(0).shape == (2, 4)
