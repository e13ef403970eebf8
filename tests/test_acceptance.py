"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test covers one numbered criterion and prints a single
"criterion N <label>: PASS/FAIL" line carrying the measured values, so
`pytest -v -s tests/test_acceptance.py` reads as a checklist. The two
preset-scale ordering experiments (criteria 7 and 8) share one
module-scoped set of leave-one-domain-out grids; everything else runs
on tiny configurations sized for seconds.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdcheck import all_cases, check_case, gan_fd_cases, stage1_cases
from fdglab import cli
from fdglab import config as cf
from fdglab import datagen as dg
from fdglab import evalhub as ev
from fdglab import fed
from fdglab import numcore as nc
from fdglab import promptgan as pg
from fdglab.encoder import FrozenEncoders, TokenTable

ORACLE_PATH = Path(__file__).parent / "data" / "ordering_oracle.json"
SEEDS = (0, 1, 2)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    """Print the criterion verdict with its measurements, then assert."""
    print(f"criterion {num} {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


def tiny_cfg(**over) -> cf.ExperimentConfig:
    """Desk preset shrunk to seconds-scale shapes for the property checks."""
    base = dict(classes=3, n_domains=3, shots=4, feature_dim=16,
                n_clients=2, m1=2, m2=2, d=8, d_tok=8, gan_hidden=16,
                z_dim=4, batch_size=8, epochs=2,
                seed_data=0, seed_model=0, seed_noise=0)
    base.update(over)
    return replace(cf.desk_preset(), **base)


# ---------------------------------------------------------------------------
# 1: gradients

def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    cases = []
    for seed in range(4):
        cases += all_cases(seed)
        cases += gan_fd_cases(seed)
    for seed in range(5):
        cases += stage1_cases(seed)
    errs = [check_case(forward, x0, tol=float("inf")) for _, x0, forward in cases]
    took = time.monotonic() - t0
    worst = max(errs)
    ok = len(cases) >= 100 and worst < 1e-3 and took < 30.0
    _line(1, "gradient-correctness", ok,
          f"{len(cases)} cases, max rel err {worst:.2e}, {took:.1f}s")


# ---------------------------------------------------------------------------
# 2: aggregation arithmetic

def test_criterion_02_aggregation_exactness():
    rng = np.random.default_rng(2)

    def draw():
        return {"v": rng.normal(size=(2, 8)).astype(np.float32),
                "u/0": rng.normal(size=(2, 8)).astype(np.float32),
                "G/l0.w": rng.normal(size=(4, 3)).astype(np.float32)}

    # n identical messages average back to the input bit for bit
    base = draw()
    msgs = [fed.ParamMessage(sender=i, round=0, entries=base) for i in range(5)]
    avg = fed.fedavg(msgs)
    identical = all(avg[n].tobytes() == base[n].tobytes() for n in base)

    # alpha=1.0 tracks plain fedavg bit for bit over 10 rounds
    hist = fed.AggHistory(alpha=1.0)
    tracks = True
    for rnd in range(10):
        msgs = [fed.ParamMessage(sender=i, round=rnd, entries=draw())
                for i in range(3)]
        avg = fed.fedavg(msgs)
        out = fed.momentum_aggregate(dict(avg), hist)
        tracks &= all(out[n].tobytes() == avg[n].tobytes() for n in avg)

    # alpha=0.0 freezes the first distributed state bit for bit
    hist = fed.AggHistory(alpha=0.0)
    first = fed.momentum_aggregate(
        {"v": rng.normal(size=(2, 8)).astype(np.float32)}, hist)["v"].tobytes()
    frozen = True
    for _ in range(9):
        out = fed.momentum_aggregate(
            {"v": rng.normal(size=(2, 8)).astype(np.float32)}, hist)
        frozen &= out["v"].tobytes() == first

    # alpha=0.2 blending avg=1 into prev=0 lands on 0.2 within one ulp
    hist = fed.AggHistory(alpha=0.2)
    fed.momentum_aggregate({"v": np.zeros((1, 4), np.float32)}, hist)
    out = fed.momentum_aggregate({"v": np.ones((1, 4), np.float32)}, hist)["v"]
    blend_err = float(np.abs(out.astype(np.float64) - 0.2).max())
    within_ulp = blend_err <= float(np.spacing(np.float32(0.2)))

    ok = identical and tracks and frozen and within_ulp
    _line(2, "aggregation-exactness", ok,
          f"identical-in identical-out: {identical}; alpha=1.0 == fedavg over "
          f"10 rounds: {tracks}; alpha=0.0 frozen: {frozen}; "
          f"alpha=0.2 blend err {blend_err:.2e} <= 1 ulp: {within_ulp}")


# ---------------------------------------------------------------------------
# 3: aggregation routing

def test_criterion_03_routing():
    cfg = tiny_cfg(epochs=10)
    ds = ev.dataset_from_config(cfg)
    tr = fed.FederatedTrainer(cfg, ds, target_domain=None)
    per_round = []
    seen = {}

    def on_round(trainer, dist):
        counts = dict(trainer.history.route_counts)
        delta = {k: v - seen.get(k, 0) for k, v in counts.items()
                 if v != seen.get(k, 0)}
        per_round.append(delta)
        seen.clear()
        seen.update(counts)

    tr.run_all(on_round)
    n_src = len(tr.source_domains)
    stage1 = {("v", "momentum"): 1, ("u/", "momentum"): n_src}
    stage2 = {("G/", "bypass"): 6, ("D/", "bypass"): 6}
    ok = (len(per_round) == 20
          and all(d == stage1 for d in per_round[:10])
          and all(d == stage2 for d in per_round[10:])
          and tr.agg_events == 20)
    _line(3, "aggregation-routing", ok,
          f"10 rounds/stage; every stage-1 round routed v and {n_src} u/* "
          f"through momentum, every stage-2 round routed 6 G/* and 6 D/* "
          f"through plain fedavg; totals {dict(tr.history.route_counts)}")


# ---------------------------------------------------------------------------
# 4: wire and checkpoint fidelity

def test_criterion_04_wire_fidelity(tmp_path):
    rng = np.random.default_rng(4)
    specials = np.array([np.inf, -np.inf, np.nan, -0.0, 1e-45],
                        dtype=np.float32)
    n_msgs = 1000
    msg_ok = 0
    blob = b""
    for _ in range(n_msgs):
        entries = {}
        for j in range(int(rng.integers(1, 5))):
            rank = int(rng.integers(1, 4))
            shape = tuple(int(s) for s in rng.integers(1, 5, rank))
            arr = rng.normal(size=shape).astype(np.float32)
            if rng.random() < 0.1:
                flat = arr.reshape(-1)
                flat[rng.integers(0, flat.size)] = specials[
                    rng.integers(0, len(specials))]
            entries[f"p{j}/{rng.integers(0, 100)}"] = arr
        msg = fed.ParamMessage(sender=int(rng.integers(0, 2 ** 32)),
                               round=int(rng.integers(0, 2 ** 32)),
                               entries=entries)
        blob = fed.serialize_message(msg)
        back = fed.deserialize_message(blob)
        msg_ok += (back.sender == msg.sender and back.round == msg.round
                   and back.names() == msg.names()
                   and all(back.entries[n].shape == msg.entries[n].shape
                           and back.entries[n].tobytes()
                           == msg.entries[n].tobytes()
                           for n in msg.names())
                   and fed.serialize_message(back) == blob)

    # one flipped payload byte must be rejected by the checksum
    bad = bytearray(blob)
    bad[len(bad) // 2] ^= 0xFF
    with pytest.raises(fed.MessageChecksumError):
        fed.deserialize_message(bytes(bad))

    specs = [(2, 2, 1, 3, 0.0, "alpha"), (3, 3, 4, 8, 0.5, "beta"),
             (5, 4, 2, 16, 0.8, "alpha"), (2, 5, 3, 5, 1.0, "beta"),
             (4, 2, 8, 12, 0.3, "alpha"), (6, 3, 2, 24, 0.9, "beta"),
             (3, 2, 16, 4, 0.1, "alpha"), (2, 4, 5, 10, 0.7, "beta"),
             (7, 2, 1, 6, 0.4, "alpha"), (3, 6, 2, 9, 0.6, "beta")]
    ds_ok = 0
    for i, (k, ndom, shots, dim, shift, fam) in enumerate(specs):
        ds = dg.gen_dataset(k, ndom, shots, dim, shift, seed=i, family=fam)
        back = dg.load_dataset(dg.save_dataset(ds, tmp_path / f"ds{i}"))
        ds_ok += (back.equal(ds)
                  and back.features.tobytes() == ds.features.tobytes())

    # one flipped blob byte must be rejected by the manifest checksum
    blob_path = tmp_path / "ds0" / "domain_0.f32"
    raw = bytearray(blob_path.read_bytes())
    raw[-1] ^= 0x01
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(dg.DatasetChecksumError):
        dg.load_dataset(tmp_path / "ds0")

    ok = msg_ok == n_msgs and ds_ok == len(specs)
    _line(4, "wire-fidelity", ok,
          f"{msg_ok}/{n_msgs} messages and {ds_ok}/{len(specs)} datasets "
          f"round-tripped bit-exactly; corrupted message and dataset blobs "
          f"both rejected via checksum")


# ---------------------------------------------------------------------------
# 5: protocol hygiene

def test_criterion_05_protocol_hygiene():
    cfg = tiny_cfg(epochs=4)
    ds = ev.dataset_from_config(cfg)
    enc = FrozenEncoders(ds.feature_dim, cfg.d, cfg.d_tok, seed=cfg.seed_model)
    table = TokenTable(cfg.d_tok, seed=cfg.seed_model)
    for name in ds.classes:
        table.row(name)  # materialize before snapshotting the digest
    enc_sum, tok_sum = enc.checksum(), table.checksum()
    batch_samples = target_samples = 0
    banks_clean = True
    for did, _ in ds.domains:
        tr = fed.FederatedTrainer(cfg, ds, target_domain=did,
                                  enc=enc, table=table)
        tr.run_all()
        batch_samples += tr.lineage["batch_samples"]
        target_samples += tr.lineage["target_samples"]
        banks_clean &= did not in tr.lineage["bank_domains"]
        model = ev.InferenceModel.from_trainer(tr)
        ev.evaluate(model, ds, did, fingerprint=cf.config_hash(cfg))
    frozen = enc.checksum() == enc_sum and table.checksum() == tok_sum
    ok = target_samples == 0 and batch_samples > 0 and banks_clean and frozen
    _line(5, "protocol-hygiene", ok,
          f"{batch_samples} batch samples across the leave-one-domain-out "
          f"run, {target_samples} from held-out domains; prompt banks clean: "
          f"{banks_clean}; encoder/token-table checksums invariant: {frozen}")


# ---------------------------------------------------------------------------
# 6: adversarial training sanity

def test_criterion_06_gan_sanity():
    dims = dict(n_rows=2, d_tok=4, d=4, z_dim=2, h=16)
    flat = dims["n_rows"] * dims["d_tok"]
    rng = np.random.default_rng(0)

    # (a) the discriminator alone separates a linearly separable bank
    gan = pg.GanParams(seed=0, **dims)
    real = (rng.normal(0.0, 0.3, (64, flat)) + 2.0).astype(np.float32)
    fake = (rng.normal(0.0, 0.3, (64, flat)) - 2.0).astype(np.float32)
    embs = rng.normal(0.0, 1.0, (64, dims["d"]))
    embs = (embs / np.linalg.norm(embs, axis=1, keepdims=True)).astype(np.float32)
    opt_d = nc.Adam(lr=1e-2)
    dp = gan.d_params()

    def separation() -> float:
        g = nc.Graph()
        lr_ = pg.discriminator_logits(g, gan, nc.Tensor(real), nc.Tensor(embs)).data
        lf_ = pg.discriminator_logits(g, gan, nc.Tensor(fake), nc.Tensor(embs)).data
        return float(((lr_ > 0).sum() + (lf_ < 0).sum()) / (2 * len(real)))

    t0 = time.monotonic()
    steps_a = 500
    for step in range(500):
        g = nc.Graph()
        logit_r = pg.discriminator_logits(g, gan, nc.Tensor(real), nc.Tensor(embs))
        logit_f = pg.discriminator_logits(g, gan, nc.Tensor(fake), nc.Tensor(embs))
        loss = nc.add(g, nc.bce_with_logits(g, logit_r, 1.0),
                      nc.bce_with_logits(g, logit_f, 0.0))
        nc.reset_grads(dp)
        nc.backward(g, loss)
        opt_d.step(dp)
        if separation() >= 0.95:
            steps_a = step + 1
            break
    sep = separation()
    t_a = time.monotonic() - t0

    # (b) on a single-prompt bank the generator closes in on the prompt
    rng = np.random.default_rng(0)
    gan = pg.GanParams(seed=0, **dims)
    target = rng.normal(0.0, 0.5, (dims["n_rows"], dims["d_tok"])).astype(np.float32)
    bank_embs = rng.normal(0.0, 1.0, (16, dims["d"]))
    bank_embs = (bank_embs / np.linalg.norm(bank_embs, axis=1,
                                            keepdims=True)).astype(np.float32)
    bank = pg.RealPromptBank({0: target.copy()}, {0: bank_embs.copy()})
    opt_g, opt_d = nc.Adam(lr=1e-2), nc.Adam(lr=1e-3)
    probe_z = np.random.default_rng(7).standard_normal(
        (32, dims["z_dim"])).astype(np.float32)
    probe_e = bank_embs[np.random.default_rng(8).integers(0, 16, 32)]

    def gen_distance() -> float:
        rows = pg.generator_rows(nc.Graph(), gan, nc.Tensor(probe_z),
                                 nc.Tensor(probe_e)).data
        return float(np.linalg.norm(rows - target.reshape(1, -1), axis=1).mean())

    d_start = gen_distance()
    t0 = time.monotonic()
    for _ in range(500):
        ctx, re_, fe = bank.sample_batch(rng, 16)
        pg.gan_train_step(gan, ctx, re_, fe, rng, opt_g, opt_d)
    d_end = gen_distance()
    t_b = time.monotonic() - t0

    # (c) both losses stay finite over 2000 default-hyperparameter steps
    dflt = cf.ExperimentConfig()
    rng = np.random.default_rng(0)
    gan = pg.GanParams(seed=0, **dims)
    ctxs = {d: rng.normal(0.0, 0.5, (dims["n_rows"], dims["d_tok"]))
            .astype(np.float32) for d in range(3)}
    pools = {}
    for d in range(3):
        e = rng.normal(0.0, 1.0, (12, dims["d"]))
        pools[d] = (e / np.linalg.norm(e, axis=1, keepdims=True)).astype(np.float32)
    bank = pg.RealPromptBank(ctxs, pools)
    opt_g, opt_d = nc.Adam(lr=dflt.lr_gan), nc.Adam(lr=dflt.lr_gan)
    t0 = time.monotonic()
    finite = True
    for _ in range(2000):
        ctx, re_, fe = bank.sample_batch(rng, dflt.batch_size)
        d_loss, g_loss = pg.gan_train_step(gan, ctx, re_, fe, rng, opt_g,
                                           opt_d)
        finite &= bool(np.isfinite(d_loss) and np.isfinite(g_loss))
    t_c = time.monotonic() - t0

    ok = (sep >= 0.95 and steps_a <= 500 and d_end < d_start and finite
          and max(t_a, t_b, t_c) < 60.0)
    _line(6, "gan-sanity", ok,
          f"separation {sep:.2f} after {steps_a} steps ({t_a:.1f}s); "
          f"generator distance {d_start:.3f} -> {d_end:.3f} over 500 steps "
          f"({t_b:.1f}s); 2000 default steps finite: {finite} ({t_c:.1f}s)")


# ---------------------------------------------------------------------------
# 7 and 8: preset-scale ordering experiments (shared grids)

@pytest.fixture(scope="module")
def preset_grids():
    """Leave-one-domain-out accuracy per (mode, seed, domain) on the desk
    preset, plus the same grid for the full pipeline without momentum."""

    def grid(mode: str, alpha: float | None = None):
        cells = {}
        for seed in SEEDS:
            over = dict(prompt_mode=mode, seed_data=seed, seed_model=seed,
                        seed_noise=seed)
            if alpha is not None:
                over["alpha"] = alpha
            cfg = replace(cf.desk_preset(), **over)
            reports = ev.leave_one_domain_out(cfg)
            cells[seed] = {r.rows[0]["target_domain"]: r.rows[0]["accuracy"]
                           for r in reports}
        return cells

    t0 = time.monotonic()
    dsp_grid = grid("dsp")
    t_dsp = time.monotonic() - t0
    t0 = time.monotonic()
    grids = {"dsp": dsp_grid, "csp": grid("csp"), "hdp": grid("hdp")}
    grid_seconds = t_dsp + time.monotonic() - t0
    t0 = time.monotonic()
    no_momentum = grid("dsp", alpha=1.0)
    ablation_seconds = t_dsp + time.monotonic() - t0
    return {"grids": grids, "grid_seconds": grid_seconds,
            "no_momentum": no_momentum, "ablation_seconds": ablation_seconds}


def _mean(cells) -> float:
    return float(np.mean([a for per in cells.values() for a in per.values()]))


def test_criterion_07_desk_ordering(preset_grids):
    oracle = json.loads(ORACLE_PATH.read_text())
    grids = preset_grids["grids"]
    means = {m: _mean(grids[m]) for m in ("dsp", "csp", "hdp")}
    margin = (means["dsp"] - means["hdp"]) * 100.0
    min_cell = min(a for per in grids["dsp"].values() for a in per.values())
    drift = max(abs(means[m] - oracle["modes"][m]["mean"]) for m in means)
    took = preset_grids["grid_seconds"]
    ok = (means["dsp"] >= means["csp"] >= means["hdp"]
          and margin >= 5.0 and min_cell > 0.20 and drift <= 0.05
          and took < 300.0)
    _line(7, "desk-ordering", ok,
          f"full {means['dsp']:.4f} >= class-only {means['csp']:.4f} >= "
          f"handcrafted {means['hdp']:.4f}; margin {margin:.1f}pts (need 5); "
          f"min held-out cell {min_cell:.3f} (chance 0.20); "
          f"oracle drift {drift:.4f}; {took:.0f}s")


def test_criterion_08_momentum_ablation(preset_grids):
    oracle = json.loads(ORACLE_PATH.read_text())
    with_momentum = _mean(preset_grids["grids"]["dsp"])
    without = _mean(preset_grids["no_momentum"])
    margin = (with_momentum - without) * 100.0
    drift = abs(without - oracle["alpha_ablation"]["dsp_alpha_1.0"]["mean"])
    took = preset_grids["ablation_seconds"]
    ok = margin >= -1.0 and drift <= 0.05 and took < 300.0
    _line(8, "momentum-ablation", ok,
          f"alpha=0.2 mean {with_momentum:.4f} vs alpha=1.0 mean "
          f"{without:.4f}, margin {margin:+.2f}pts (fail below -1); "
          f"oracle drift {drift:.4f}; {took:.0f}s")


# ---------------------------------------------------------------------------
# 9: communication frequency

def test_criterion_09_communication_frequency(tmp_path):
    events, sizes = {}, {}
    per_stage_ok = True
    for epr in (0.5, 1):
        cfg = tiny_cfg(epochs=2, epochs_per_round=epr)
        ds = ev.dataset_from_config(cfg)
        tr = fed.FederatedTrainer(cfg, ds, target_domain=0)
        tr.run_all()
        events[epr] = tr.agg_events
        stages = [e["stage"] for e in tr.log]
        per_stage_ok &= (stages.count(1) == stages.count(2)
                         == int(cfg.epochs / epr))
        model = ev.InferenceModel.from_trainer(tr)
        rep = ev.evaluate(model, ds, 0, fingerprint=cf.config_hash(cfg))
        path = ev.write_report_csv(rep, tmp_path / f"epr{epr}.csv")
        sizes[epr] = path.stat().st_size
    ok = (events[0.5] == 8 and events[1] == 4 and per_stage_ok
          and all(s > 0 for s in sizes.values()))
    _line(9, "communication-frequency", ok,
          f"2-epoch runs: {events[0.5]} aggregation events at 0.5 "
          f"epochs/round vs {events[1]} at 1 (2x and 1x epochs per stage); "
          f"reports written ({sizes[0.5]} and {sizes[1]} bytes)")


# ---------------------------------------------------------------------------
# 10: determinism

def test_criterion_10_determinism(tmp_path):
    tiny = ["--classes", "3", "--domains", "3", "--shots", "4",
            "--feature-dim", "16", "--n-clients", "2", "--m1", "2",
            "--m2", "2", "--d", "8", "--d-tok", "8", "--gan-hidden", "16",
            "--z-dim", "4", "--batch-size", "8", "--epochs", "2",
            "--seed", "0"]

    assert cli.main(["eval", *tiny, "--out", str(tmp_path / "e1")]) == 0
    assert cli.main(["eval", *tiny, "--out", str(tmp_path / "e2")]) == 0
    run1 = next((tmp_path / "e1" / "eval").iterdir())
    run2 = next((tmp_path / "e2" / "eval").iterdir())
    csv_same = ((run1 / "report.csv").read_bytes()
                == (run2 / "report.csv").read_bytes())
    json_same = ((run1 / "report.json").read_bytes()
                 == (run2 / "report.json").read_bytes())

    argv = ["sweep", *tiny, "--axis", "alpha", "--values", "0.2,1.0"]
    assert cli.main([*argv, "--out", str(tmp_path / "s1")]) == 0
    assert cli.main([*argv, "--out", str(tmp_path / "s2")]) == 0
    assert cli.main([*argv, "--out", str(tmp_path / "s3"),
                     "--parallel", "2"]) == 0
    blobs = [(next((tmp_path / f"s{i}" / "sweep").iterdir()) / "sweep.csv")
             .read_bytes() for i in (1, 2, 3)]
    sweep_same = blobs[0] == blobs[1] == blobs[2]

    ok = csv_same and json_same and sweep_same
    _line(10, "determinism", ok,
          f"re-run eval reports byte-identical: csv {csv_same}, json "
          f"{json_same}; sweep serial/serial/parallel byte-identical: "
          f"{sweep_same}")
