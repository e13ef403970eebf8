"""Inference, metrics, report, and protocol tests."""

import dataclasses

import numpy as np
import pytest

from fdglab import config as cf
from fdglab import datagen as dg
from fdglab import evalhub as ev
from fdglab import fed
from fdglab.dsp import DspParams, make_prompt_params, prompt_embeddings
from fdglab.encoder import FrozenEncoders, TokenTable, class_token, encode_image
from fdglab.promptgan import GanParams, generator_rows
from fdglab import numcore as nc


def small_cfg(**overrides):
    base = dict(classes=3, n_domains=3, shots=4, feature_dim=16,
                shift_strength=0.5, n_clients=2, m1=2, m2=2, d=8, d_tok=8,
                tau=0.05, lr_prompt=0.05, lr_gan=1e-3, gan_hidden=16,
                z_dim=4, batch_size=8, epochs=2, z_samples=2)
    base.update(overrides)
    return cf.ExperimentConfig(**base)


def tiny_parts(seed=0, m1=2, m2=2, d=8, d_tok=8, domains=(0, 1)):
    enc = FrozenEncoders(feature_dim=16, d=d, d_tok=d_tok, seed=seed)
    table = TokenTable(d_tok=d_tok, seed=seed)
    prompt = make_prompt_params("dsp", domains, m1=m1, m2=m2, d_tok=d_tok,
                                seed=seed)
    return enc, table, prompt


# ---------------------------------------------------------------------------
# metrics

def test_macro_f1_hand_oracle():
    # true [0,0,1], pred [0,1,1]: F1 per class 2/3, 2/3, 0 -> macro 4/9
    acc, f1 = ev.accuracy_and_macro_f1([0, 0, 1], [0, 1, 1], k=3)
    assert abs(acc - 2 / 3) < 1e-12
    assert abs(f1 - 4 / 9) < 1e-12


def test_macro_f1_absent_class_counts_zero():
    acc, f1 = ev.accuracy_and_macro_f1([0, 0], [0, 0], k=2)
    assert acc == 1.0
    assert abs(f1 - 0.5) < 1e-12


def test_macro_f1_perfect_and_errors():
    acc, f1 = ev.accuracy_and_macro_f1([0, 1, 2], [0, 1, 2], k=3)
    assert acc == 1.0 and f1 == 1.0
    with pytest.raises(ValueError):
        ev.accuracy_and_macro_f1([], [], k=2)
    with pytest.raises(ValueError):
        ev.accuracy_and_macro_f1([0, 1], [0], k=2)


# ---------------------------------------------------------------------------
# inference path: InferenceModel built directly

def make_model(enc, table, classes, tau=0.05, gan=None,
               z_policy="mean-of-samples", z_samples=8, z_seed=0, **kwargs):
    """A model that scores with ``gan`` and its z draws, or with the
    ``block=`` keyword."""
    zs = None if gan is None else ev._draw_z(z_policy, z_samples, gan.z_dim,
                                             z_seed)
    return ev.InferenceModel(enc=enc, table=table, classes=list(classes),
                             tau=tau, gan=gan, zs=zs, **kwargs)


def predict(model, x_features):
    emb = encode_image(model.enc, np.asarray(x_features, np.float32))
    return model.predict_from_emb(emb)


def test_predict_requires_generator_and_sane_args():
    # a model scores with a generator and its z draws, or with one block
    enc, table, prompt = tiny_parts()
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    zs = ev._draw_z("mean-of-samples", 2, gan.z_dim, 0)
    block = ev.wgm_context_rows(prompt)
    for sources in ({}, dict(gan=gan, zs=zs, block=block), dict(gan=gan),
                    dict(zs=zs, block=block)):
        with pytest.raises(ValueError, match="not both, not neither"):
            ev.InferenceModel(enc=enc, table=table, classes=["a", "b"],
                              tau=0.05, **sources)
    with pytest.raises(ValueError, match="tau"):
        make_model(enc, table, ["a", "b"], gan=gan, tau=0.0)
    with pytest.raises(ValueError, match="two classes"):
        make_model(enc, table, ["only"], gan=gan)


def test_constant_generator_matches_wgm():
    # zero the generator weights and plant [v; mean u] in the output bias:
    # the generative path then scores the exact wgm contexts
    enc, table, prompt = tiny_parts()
    rows = ev.wgm_context_rows(prompt)
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    for w, b in gan.g_layers:
        w.data = np.zeros_like(w.data)
        b.data = np.zeros_like(b.data)
    gan.g_layers[-1][1].data = rows.reshape(1, -1).copy()
    rng = np.random.default_rng(3)
    classes = ["ant", "bee", "cat"]
    generative = make_model(enc, table, classes, gan=gan,
                            z_policy="fixed-zero")
    wgm = make_model(enc, table, classes, block=rows)
    for _ in range(5):
        x = rng.normal(0, 3, 16).astype(np.float32)
        a = predict(generative, x)
        b = predict(wgm, x)
        assert np.argmax(a) == np.argmax(b)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


@pytest.mark.parametrize("mode", ["dsp", "wgm"])
def test_scoring_matches_per_prompt_path(mode):
    # the reference: each context block's prompts encoded through the
    # stage-1 tape path, one w @ x.T logit per (context block, class) pair
    enc, table, prompt = tiny_parts()
    classes = ["ant", "bee", "cat"]
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    if mode == "wgm":
        model = make_model(enc, table, classes,
                           block=ev.wgm_context_rows(prompt))
    else:
        model = make_model(enc, table, classes, gan=gan, z_samples=3,
                           z_seed=5)
    tokens = [class_token(table, n) for n in classes]
    rng = np.random.default_rng(7)
    for _ in range(4):
        emb = encode_image(enc, rng.normal(0, 2, 16).astype(np.float32))
        if mode == "wgm":
            contexts = ev.wgm_context_rows(prompt)[None]
        else:
            contexts = generator_rows(
                nc.Graph(), gan, nc.Tensor(model.zs),
                nc.Tensor(np.repeat(emb, 3, axis=0))).data.reshape(3, 4, 8)
        ref = np.concatenate([
            prompt_embeddings(nc.Graph(), enc, [nc.Tensor(c)], tokens).data
            for c in contexts])
        np.testing.assert_array_equal(model._class_embeddings(contexts), ref)
        logits = np.array([(w[None] @ emb.T).item() / model.tau for w in ref])
        probs = ev._softmax(logits.reshape(len(contexts), 3).mean(axis=0)[None])
        np.testing.assert_array_equal(model.predict_from_emb(emb), probs)


def test_wgm_encodes_class_prompts_once(monkeypatch):
    calls, encode_text = [], ev.encode_text

    def counted(*args):
        calls.append(1)
        return encode_text(*args)

    monkeypatch.setattr(ev, "encode_text", counted)
    enc, table, prompt = tiny_parts()
    model = make_model(enc, table, ["ant", "bee", "cat"],
                       block=ev.wgm_context_rows(prompt))
    rng = np.random.default_rng(3)
    for _ in range(5):
        predict(model, rng.normal(0, 1, 16))
    assert len(calls) == 1


def _row_means(blocks: np.ndarray) -> np.ndarray:
    """Each block with every row replaced by the block's row-mean."""
    return np.broadcast_to(blocks.mean(axis=-2, keepdims=True, dtype=np.float64),
                           blocks.shape).astype(np.float32)


@pytest.mark.parametrize("mode", ["dsp", "csp", "hdp", "wgm"])
def test_scoring_reads_only_each_context_row_mean(monkeypatch, mode):
    # mean pooling comes before the text encoder, so a context block
    # enters a score only through its row-mean
    cfg = small_cfg(prompt_mode=mode)
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
    trainer.run_all()
    embs = encode_image(trainer.enc, ds.features[ds.domain_indices(0)])

    def scores():
        model = ev.InferenceModel.from_trainer(trainer)
        return np.concatenate([model.predict_from_emb(embs[i:i + 1])
                               for i in range(embs.shape[0])])

    before = scores()
    moved = []

    def flattened(blocks):
        out = _row_means(blocks)
        moved.append(np.abs(out - blocks).max())
        return out

    rows, wgm_rows = ev.generator_forward, ev.wgm_context_rows

    def mean_generated(gan, z, emb):
        out = rows(gan, z, emb)
        blocks = out.reshape(-1, gan.n_rows, gan.d_tok)
        return flattened(blocks).reshape(out.shape)

    monkeypatch.setattr(ev, "generator_forward", mean_generated)
    monkeypatch.setattr(ev, "wgm_context_rows", lambda p: flattened(wgm_rows(p)))
    after = scores()
    assert min(moved) > 1e-3  # the blocks really changed
    assert np.abs(after - before).max() <= 1e-6


@pytest.fixture(scope="module")
def trained():
    """One tiny trainer per prompt mode, domain 0 held out."""
    out = {}
    for mode in ("dsp", "csp", "hdp", "wgm"):
        cfg = small_cfg(prompt_mode=mode)
        ds = ev.dataset_from_config(cfg)
        trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
        trainer.run_all()
        out[mode] = (trainer, encode_image(trainer.enc, ds.features))
    return out


@pytest.mark.parametrize("mode", ["dsp", "csp", "hdp", "wgm"])
@pytest.mark.parametrize("z_policy, z_samples", [
    ("fixed-zero", 1), ("mean-of-samples", 1), ("mean-of-samples", 3)])
def test_chunked_scoring_equals_per_image(trained, monkeypatch, mode,
                                         z_policy, z_samples):
    # every image of the dataset, so the last chunk is ragged; scoring one
    # image alone is pinned to the taped per-prompt path above
    trainer, embs = trained[mode]
    model = ev.InferenceModel.from_trainer(trainer)
    if mode != "wgm":
        model = dataclasses.replace(model, zs=ev._draw_z(
            z_policy, z_samples, trainer.cfg.z_dim, 4))
    n = embs.shape[0]
    assert n % ev.SCORE_CHUNK != 0
    alone = np.concatenate([model.predict_from_emb(embs[i:i + 1])
                            for i in range(n)])
    # each chunk makes one generator pass, over one (M, .) block per
    # image, and one text encode
    seen, forward, encode = [], ev.generator_forward, ev.encode_text

    def spied_forward(gan, z, emb):
        seen.append(z.shape)
        return forward(gan, z, emb)

    def spied_encode(*args):
        seen.append("encode")
        return encode(*args)

    monkeypatch.setattr(ev, "generator_forward", spied_forward)
    monkeypatch.setattr(ev, "encode_text", spied_encode)
    for chunk in (ev.SCORE_CHUNK, 5):
        seen.clear()
        chunked = np.concatenate([model.predict_from_emb(embs[i:i + chunk])
                                  for i in range(0, n, chunk)])
        np.testing.assert_array_equal(chunked, alone)
        sizes = [min(chunk, n - i) for i in range(0, n, chunk)]
        if mode != "wgm":
            m = 1 if z_policy == "fixed-zero" else z_samples
            assert seen == [x for b in sizes
                            for x in ((b, m, trainer.cfg.z_dim), "encode")]


def test_scoring_records_no_tape_nodes(trained, monkeypatch):
    graphs = []

    class Recorded(nc.Graph):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            graphs.append(self)

    monkeypatch.setattr(nc, "Graph", Recorded)
    for mode in ("dsp", "wgm"):
        trainer, _ = trained[mode]
        model = ev.InferenceModel.from_trainer(trainer)
        ev.evaluate(model, trainer.ds, 0)
    assert graphs and all(len(g) == 0 for g in graphs)


def test_tau_rescales_but_argmax_invariant():
    enc, table, prompt = tiny_parts()
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    x = np.arange(16, dtype=np.float32)
    classes = ["ant", "bee", "cat"]
    sharp = predict(make_model(enc, table, classes, gan=gan, tau=0.02,
                               z_policy="fixed-zero"), x)
    soft = predict(make_model(enc, table, classes, gan=gan, tau=0.5,
                              z_policy="fixed-zero"), x)
    assert np.argmax(sharp) == np.argmax(soft)
    assert sharp.max() > soft.max()
    assert not np.allclose(sharp, soft)


def test_identical_class_tokens_give_uniform_probs():
    enc, table, prompt = tiny_parts()
    model = make_model(enc, table, ["same", "same", "same"],
                       block=ev.wgm_context_rows(prompt))
    p = predict(model, np.ones(16, np.float32))
    np.testing.assert_allclose(p, np.full((1, 3), 1 / 3), atol=1e-12)


def test_identical_class_tokens_tie_to_class_zero():
    # every class prompt is the same, so each image's probabilities tie
    # exactly; scoring must then assign the lowest class index. With
    # every label set to 0, accuracy is 1 only if every image gets 0.
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    zero = dg.DomainDataset(
        name=ds.name, feature_dim=ds.feature_dim, domains=ds.domains,
        classes=ds.classes, features=ds.features, domain_ids=ds.domain_ids,
        class_ids=np.zeros_like(ds.class_ids))
    enc, table, prompt = tiny_parts()
    model = make_model(enc, table, ["same"] * cfg.classes,
                       block=ev.wgm_context_rows(prompt))
    embs = encode_image(enc, ds.features[ds.domain_indices(0)])
    for i in range(embs.shape[0]):
        row = model.predict_from_emb(embs[i:i + 1])
        assert (row == row[0, 0]).all()
    rep = ev.evaluate(model, zero, 0)
    assert rep.rows[0]["accuracy"] == 1.0


def test_non_finite_scores_rejected():
    # a diverged generator gives NaN rows; argmax would call them class 0
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    enc, table, _ = tiny_parts()
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    gan.g_layers[-1][1].data[:] = np.nan
    model = make_model(enc, table, ds.classes, gan=gan)
    n = ds.domain_indices(1).size
    name = dict(ds.domains)[1]
    with pytest.raises(ValueError,
                       match=f"domain {name}: {n} of {n} probability rows"):
        ev.evaluate(model, ds, 1)


def test_wgm_context_rows_shapes_and_errors():
    enc, table, prompt = tiny_parts(domains=(2, 5))
    rows = ev.wgm_context_rows(prompt)
    assert rows.shape == (4, 8)
    manual = np.concatenate(
        [prompt.v.data,
         ((prompt.u[2].data.astype(np.float64)
           + prompt.u[5].data.astype(np.float64)) / 2).astype(np.float32)],
        axis=0)
    np.testing.assert_array_equal(rows, manual)
    empty = DspParams(m1=1, m2=2,
                      v=nc.Tensor(np.zeros((1, 8), np.float32)))
    with pytest.raises(ValueError, match="source domains"):
        ev.wgm_context_rows(empty)


def test_wgm_single_domain_mean_is_that_domain():
    enc, table, prompt = tiny_parts(domains=(4,))
    rows = ev.wgm_context_rows(prompt)
    np.testing.assert_array_equal(rows[2:], prompt.u[4].data)


def test_z_policies_differ_and_validate():
    enc, table, prompt = tiny_parts()
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    x = np.ones(16, np.float32)
    classes = ["ant", "bee", "cat"]
    outs = {zp: predict(make_model(enc, table, classes, gan=gan, z_policy=zp,
                                   z_samples=4), x)
            for zp in cf.Z_POLICIES}
    assert not np.allclose(outs["fixed-zero"], outs["mean-of-samples"])
    with pytest.raises(ValueError, match="z_policy"):
        predict(make_model(enc, table, classes, gan=gan, z_policy="bogus"), x)


def test_prediction_is_deterministic():
    enc, table, prompt = tiny_parts()
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=8, seed=0)
    x = np.linspace(-1, 1, 16).astype(np.float32)
    a, b = (predict(make_model(enc, table, ["a", "b"], gan=gan,
                               z_policy="mean-of-samples", z_samples=4,
                               z_seed=9), x)
            for _ in range(2))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# reports and writers

def sample_report():
    rep = ev.EvalReport(protocol="leave-one-out", seed=3, config_hash="ff00")
    rep.rows.append({"target_domain": "domain_0", "domain_id": 0,
                     "accuracy": 0.5, "macro_f1": 0.4, "n": 10})
    rep.rows.append({"target_domain": "domain_1", "domain_id": 1,
                     "accuracy": 0.7, "macro_f1": 0.6, "n": 10})
    return rep


def test_report_averages():
    rep = sample_report()
    assert abs(rep.accuracy - 0.6) < 1e-12
    assert abs(rep.macro_f1 - 0.5) < 1e-12


def test_merge_reports_pools_rows():
    merged = ev.merge_reports([sample_report(), sample_report()])
    assert len(merged.rows) == 4
    assert abs(merged.accuracy - 0.6) < 1e-12
    with pytest.raises(ValueError):
        ev.merge_reports([])


def test_csv_writer_layout(tmp_path):
    path = ev.write_report_csv(sample_report(), tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "protocol,target_domain,accuracy,macro_f1,seed,config_hash"
    assert lines[1] == "leave-one-out,domain_0,0.5,0.4,3,ff00"
    assert len(lines) == 3
    # float repr round-trips exactly
    assert float(lines[2].split(",")[2]) == 0.7


def test_writers_are_byte_stable(tmp_path):
    a = ev.write_report_csv(sample_report(), tmp_path / "a.csv").read_bytes()
    b = ev.write_report_csv(sample_report(), tmp_path / "b.csv").read_bytes()
    assert a == b
    ja = ev.write_report_json(sample_report(), tmp_path / "a.json").read_bytes()
    jb = ev.write_report_json(sample_report(), tmp_path / "b.json").read_bytes()
    assert ja == jb


# ---------------------------------------------------------------------------
# model bundle and protocols

def test_evaluate_flags_parameter_mutation():
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
    trainer.run_all()
    model = ev.InferenceModel.from_trainer(trainer)
    inner = model.predict_from_emb

    w = model.gan.g_layers[0][0]

    def dirty(emb):
        w.data = w.data + 1.0
        return inner(emb)

    model.predict_from_emb = dirty
    with pytest.raises(RuntimeError, match="mutated"):
        ev.evaluate(model, ds, 0)


@pytest.mark.parametrize("mode, source", [("dsp", "zs"), ("wgm", "block")])
def test_evaluate_flags_source_mutation(trained, mode, source):
    # the z draws and the fixed block are scored values, so the digest
    # covers them as it covers the generator's weights
    trainer, _ = trained[mode]
    model = ev.InferenceModel.from_trainer(trainer)
    inner = model.predict_from_emb

    def dirty(emb):
        getattr(model, source)[0] += 1.0
        return inner(emb)

    model.predict_from_emb = dirty
    with pytest.raises(RuntimeError, match="mutated"):
        ev.evaluate(model, trainer.ds, 0)


def test_from_trainer_refuses_a_run_without_generator():
    # stage 1 alone leaves no generator, and only wgm scores without one
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
    trainer.run_stage1()
    with pytest.raises(ValueError, match="run stage 2 or use wgm"):
        ev.InferenceModel.from_trainer(trainer)


def test_evaluate_unknown_or_empty_domain():
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
    trainer.run_all()
    model = ev.InferenceModel.from_trainer(trainer)
    with pytest.raises(ValueError, match="unknown domain"):
        ev.evaluate(model, ds, 17)


def test_leave_one_domain_out_enumerates_and_repeats():
    cfg = small_cfg()
    reports = ev.leave_one_domain_out(cfg)
    assert len(reports) == cfg.n_domains
    assert [r.rows[0]["domain_id"] for r in reports] == [0, 1, 2]
    assert all(r.protocol == "leave-one-out" for r in reports)
    assert all(r.config_hash == cf.config_hash(cfg) for r in reports)
    assert all(r.rows[0]["n"] == cfg.classes * cfg.shots for r in reports)
    again = ev.leave_one_domain_out(cfg)
    for a, b in zip(reports, again):
        assert a.to_dict() == b.to_dict()


def test_leave_one_domain_out_needs_two_domains():
    cfg = small_cfg()
    ds = dg.gen_dataset(cfg.classes, 2, cfg.shots, cfg.feature_dim,
                        cfg.shift_strength, seed=0)
    one = dg.DomainDataset(
        name=ds.name, feature_dim=ds.feature_dim, domains=ds.domains[:1],
        classes=ds.classes, features=ds.features[ds.domain_ids == 0],
        domain_ids=ds.domain_ids[ds.domain_ids == 0],
        class_ids=ds.class_ids[ds.domain_ids == 0])
    with pytest.raises(ValueError, match="two domains"):
        ev.leave_one_domain_out(cfg, ds=one)


def test_cross_dataset_runs_and_checks_dims():
    src = small_cfg()
    tgt = small_cfg(seed_data=5, family="beta")
    report = ev.cross_dataset(src, tgt)
    assert report.protocol == "cross-dataset"
    assert len(report.rows) == tgt.n_domains
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in report.rows)
    bad = small_cfg(feature_dim=32)
    with pytest.raises(ValueError, match="dimensional mismatch"):
        ev.cross_dataset(src, bad)


def test_cross_dataset_same_data_matches_direct_scoring():
    # transferring onto the training dataset itself must equal scoring
    # the trained model domain by domain
    cfg = small_cfg()
    report = ev.cross_dataset(cfg, cfg)
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=None)
    trainer.run_all()
    model = ev.InferenceModel.from_trainer(trainer)
    for row in report.rows:
        direct = ev.evaluate(model, ds, row["domain_id"])
        assert direct.rows[0]["accuracy"] == row["accuracy"]
        assert direct.rows[0]["macro_f1"] == row["macro_f1"]


def test_dataset_from_config_uses_saved_manifest(tmp_path):
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    root = dg.save_dataset(ds, tmp_path / "ds")
    cfg2 = small_cfg(dataset_path=str(root))
    back = ev.dataset_from_config(cfg2)
    assert back.equal(ds)


def test_from_trainer_respects_class_override():
    cfg = small_cfg()
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=None)
    trainer.run_all()
    model = ev.InferenceModel.from_trainer(trainer, classes=["x", "y"])
    assert model.classes == ["x", "y"]
    pred = predict(model, np.ones(16, np.float32))
    assert pred.shape == (1, 2)
    with pytest.raises(ValueError, match="two classes"):
        ev.InferenceModel.from_trainer(trainer, classes=["x"])


def test_wgm_model_skips_generator():
    cfg = small_cfg(prompt_mode="wgm")
    ds = ev.dataset_from_config(cfg)
    trainer = fed.FederatedTrainer(cfg, ds, target_domain=0)
    trainer.run_all()
    model = ev.InferenceModel.from_trainer(trainer)
    assert model.gan is None
    rep = ev.evaluate(model, ds, 0)
    assert 0.0 <= rep.rows[0]["accuracy"] <= 1.0
