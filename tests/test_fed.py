"""Federation tests: wire format, partitioning, aggregation, rounds."""

import hashlib
import struct

import numpy as np
import pytest

from fdglab import config as cf
from fdglab import datagen as dg
from fdglab import fed
from fdglab.dsp import HDP_WORDS, make_prompt_params
from fdglab.encoder import FrozenEncoders, TokenTable
from fdglab.promptgan import GanParams


def small_cfg(**overrides):
    base = dict(classes=3, n_domains=3, shots=4, feature_dim=16,
                shift_strength=0.5, n_clients=2, m1=2, m2=2, d=8, d_tok=8,
                tau=0.05, lr_prompt=0.05, lr_gan=1e-3, gan_hidden=16,
                z_dim=4, batch_size=8, epochs=2, z_samples=2)
    base.update(overrides)
    return cf.ExperimentConfig(**base)


def small_ds(cfg):
    return dg.gen_dataset(cfg.classes, cfg.n_domains, cfg.shots,
                          cfg.feature_dim, cfg.shift_strength, cfg.seed_data)


def random_message(rng, sender=1, round_=0, n_entries=4):
    pool = ["v", "u/0", "u/3", "G/l0.w", "G/l1.b", "D/l2.w", "D/l0.b"]
    names = list(rng.choice(pool, size=min(n_entries, len(pool)),
                            replace=False))
    entries = {}
    for name in names:
        shape = tuple(int(s) for s in rng.integers(1, 6, rng.integers(1, 4)))
        entries[name] = rng.normal(0, 1, shape).astype(np.float32)
    return fed.ParamMessage(sender=sender, round=round_, entries=entries)


# ---------------------------------------------------------------------------
# checksum and wire format

def test_fnv1a64_reference_vectors():
    assert fed.fnv1a64(b"") == 0xCBF29CE484222325
    assert fed.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fed.fnv1a64(b"foobar") == 0x85944171F73967E8


def test_message_wire_layout_hand_checked():
    msg = fed.ParamMessage(sender=7, round=3,
                           entries={"v": np.array([[1.0, 2.0]], np.float32)})
    blob = fed.serialize_message(msg)
    assert blob[:4] == b"FDSP"
    version, rnd, sender = struct.unpack_from("<HII", blob, 4)
    assert (version, rnd, sender) == (2, 3, 7)
    (count,) = struct.unpack_from("<I", blob, 14)
    assert count == 1
    (name_len,) = struct.unpack_from("<H", blob, 18)
    assert name_len == 1 and blob[20:21] == b"v"
    assert blob[21] == 2  # rank
    assert struct.unpack_from("<2I", blob, 22) == (1, 2)
    assert blob[30:38] == np.array([[1.0, 2.0]], "<f4").tobytes()
    assert blob[-8:] == hashlib.blake2b(blob[:-8], digest_size=8).digest()


def test_message_round_trip_random(rng):
    for i in range(50):
        msg = random_message(rng, sender=int(rng.integers(0, 100)),
                             round_=int(rng.integers(0, 1000)))
        back = fed.deserialize_message(fed.serialize_message(msg))
        assert back.sender == msg.sender and back.round == msg.round
        assert back.names() == msg.names()
        for name in msg.names():
            assert back.entries[name].dtype == np.float32
            assert np.array_equal(back.entries[name], msg.entries[name])


def test_message_file_round_trip(rng, tmp_path):
    msg = random_message(rng)
    path = fed.save_message(msg, tmp_path / "ckpt.fdsp")
    back = fed.load_message(path)
    assert fed.serialize_message(back) == fed.serialize_message(msg)


def test_corruption_rejected(rng):
    blob = bytearray(fed.serialize_message(random_message(rng)))
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    with pytest.raises(fed.MessageChecksumError):
        fed.deserialize_message(bytes(flipped))
    with pytest.raises(fed.MessageFormatError):
        fed.deserialize_message(bytes(blob[:-3]))
    with pytest.raises(fed.MessageFormatError):
        fed.deserialize_message(b"NOPE" + bytes(blob[4:]))


def _as_v1(blob: bytes) -> bytes:
    """The same message in the version-1 layout: FNV-1a 64 trailer."""
    body = bytearray(blob[:-8])
    struct.pack_into("<H", body, 4, 1)
    return bytes(body) + struct.pack("<Q", fed.fnv1a64(bytes(body)))


def test_v1_message_still_loads(rng):
    msg = random_message(rng, sender=5, round_=42)
    back = fed.deserialize_message(_as_v1(fed.serialize_message(msg)))
    assert (back.sender, back.round) == (5, 42)
    assert back.names() == msg.names()
    for name in msg.names():
        assert np.array_equal(back.entries[name], msg.entries[name])


def test_v1_corruption_rejected(rng):
    blob = bytearray(_as_v1(fed.serialize_message(random_message(rng))))
    blob[len(blob) // 2] ^= 0x01
    with pytest.raises(fed.MessageChecksumError):
        fed.deserialize_message(bytes(blob))


def test_version_rejected_even_with_valid_checksum(rng):
    blob = bytearray(fed.serialize_message(random_message(rng)))
    struct.pack_into("<H", blob, 4, 9)
    with pytest.raises(fed.MessageVersionError):
        fed.deserialize_message(_with_checksum(bytes(blob[:-8])))


def test_unsorted_entries_rejected(rng):
    # splice two single-entry messages into one with names out of order
    a = fed.serialize_message(fed.ParamMessage(
        0, 0, {"v": np.zeros((1, 2), np.float32)}))
    b = fed.serialize_message(fed.ParamMessage(
        0, 0, {"u/0": np.zeros((1, 2), np.float32)}))
    body = bytearray(a[:14])
    body += struct.pack("<I", 2)
    body += a[18:-8] + b[18:-8]
    with pytest.raises(fed.MessageFormatError, match="sorted"):
        fed.deserialize_message(_with_checksum(bytes(body)))


def _with_checksum(body: bytes) -> bytes:
    return body + hashlib.blake2b(body, digest_size=8).digest()


def test_checksummed_malformed_entries_rejected():
    # checksums hold, so only the decoder's own checks stand between these
    # and ParamMessage's plain ValueError
    header = b"FDSP" + struct.pack("<HII", fed.MESSAGE_VERSION, 0, 0)
    no_entries = _with_checksum(header + struct.pack("<I", 0))
    with pytest.raises(fed.MessageFormatError, match="no entries"):
        fed.deserialize_message(no_entries)
    empty_name = _with_checksum(
        header + struct.pack("<IHBI", 1, 0, 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(fed.MessageFormatError, match="empty entry name"):
        fed.deserialize_message(empty_name)
    # four dims of 2**16 multiply to 2**64, which wraps to 0 in int64
    huge = _with_checksum(header + struct.pack("<IH", 1, 1) + b"v"
                          + struct.pack("<B4I", 4, *[1 << 16] * 4))
    with pytest.raises(fed.MessageFormatError, match="truncated payload"):
        fed.deserialize_message(huge)


def test_message_validation():
    with pytest.raises(ValueError):
        fed.ParamMessage(0, 0, {})
    with pytest.raises(ValueError):
        fed.ParamMessage(-1, 0, {"v": np.zeros((1, 1), np.float32)})
    with pytest.raises(ValueError):
        fed.ParamMessage(0, 1 << 32, {"v": np.zeros((1, 1), np.float32)})
    scalar = fed.ParamMessage(0, 0, {"v": np.float32(3.0)})
    assert scalar.entries["v"].shape == (1,)
    msg = fed.ParamMessage(0, 0, {"v": np.ones((2, 2))})
    assert msg.entries["v"].dtype == np.float32
    with pytest.raises(ValueError):
        msg.entries["v"][0, 0] = 5.0


# ---------------------------------------------------------------------------
# partitioning

def holders(part, domain):
    return sorted(c for c, doms in part.items() if domain in doms)


def test_partition_four_clients_no_overlap():
    part = fed.partition_domains(4, 4, 0.0, seed=0)
    assert sorted(len(s) for s in part.values()) == [1, 1, 1, 1]
    assert set().union(*part.values()) == {0, 1, 2, 3}


def test_partition_half_overlap_two_clients():
    part = fed.partition_domains(4, 2, 0.5, seed=0)
    counts = {d: len(holders(part, d)) for d in range(4)}
    assert sorted(counts.values()) == [1, 1, 2, 2]
    for d, n in counts.items():
        if n == 2:
            assert holders(part, d) == [0, 1]


def test_partition_single_client_gets_all():
    part = fed.partition_domains(3, 1, 0.0, seed=5)
    assert part == {0: {0, 1, 2}}


def test_partition_deterministic():
    a = fed.partition_domains(6, 3, 0.5, seed=9)
    b = fed.partition_domains(6, 3, 0.5, seed=9)
    assert a == b


def test_partition_infeasible():
    with pytest.raises(fed.PartitionError, match="infeasible"):
        fed.partition_domains(4, 5, 0.0)
    with pytest.raises(fed.PartitionError, match="two clients"):
        fed.partition_domains(2, 1, 0.5)
    with pytest.raises(fed.PartitionError):
        fed.partition_domains(4, 2, 1.5)
    with pytest.raises(fed.PartitionError):
        fed.partition_domains(0, 1, 0.0)


def test_partition_invariants_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        r = float(rng.choice([0.0, 0.1, 0.2, 0.5, 1.0]))
        n_shared = int(np.floor(r * n + 0.5))
        max_clients = n + n_shared
        lo = 2 if n_shared > 0 else 1
        if max_clients < lo:
            continue
        c = int(rng.integers(lo, max_clients + 1))
        part = fed.partition_domains(n, c, r, seed=int(rng.integers(1000)))
        assert sorted(part) == list(range(c))
        counts = {d: len(holders(part, d)) for d in range(n)}
        assert all(v in (1, 2) for v in counts.values())
        assert sum(1 for v in counts.values() if v == 2) == n_shared
        assert all(len(s) >= 1 for s in part.values())


# ---------------------------------------------------------------------------
# fedavg

def msg_of(sender, round_, **arrays):
    return fed.ParamMessage(sender, round_, {
        k.replace("_", "/"): np.asarray(v, np.float32)
        for k, v in arrays.items()})


def test_fedavg_hand_values():
    out = fed.fedavg([msg_of(0, 0, v=[[1.0, 3.0]]),
                      msg_of(1, 0, v=[[3.0, 5.0]])])
    assert np.array_equal(out["v"], np.array([[2.0, 4.0]], np.float32))


def test_fedavg_single_message_identity(rng):
    msg = random_message(rng)
    out = fed.fedavg([msg])
    for name, arr in msg.entries.items():
        assert out[name].tobytes() == arr.tobytes()


def test_fedavg_domain_specific_over_holders_only():
    msgs = [msg_of(0, 2, v=[[1.0]]),
            msg_of(1, 2, v=[[2.0]], u_2=[[2.0, 6.0]]),
            msg_of(2, 2, v=[[3.0]]),
            msg_of(3, 2, v=[[6.0]], u_2=[[4.0, 10.0]])]
    out = fed.fedavg(msgs)
    assert np.array_equal(out["u/2"], np.array([[3.0, 8.0]], np.float32))
    assert np.array_equal(out["v"], np.array([[3.0]], np.float32))


def test_fedavg_identical_messages_bit_exact(rng):
    base = random_message(rng, sender=0)
    msgs = [base] + [
        fed.ParamMessage(i, base.round, dict(base.entries))
        for i in range(1, 7)]
    out = fed.fedavg(msgs)
    for name, arr in base.entries.items():
        assert out[name].tobytes() == arr.tobytes()


def test_fedavg_order_independent(rng):
    msgs = [msg_of(i, 0, v=rng.normal(0, 1, (3, 4))) for i in range(5)]
    a = fed.fedavg(msgs)
    b = fed.fedavg(list(reversed(msgs)))
    assert a["v"].tobytes() == b["v"].tobytes()


def test_fedavg_errors():
    with pytest.raises(fed.FedProtocolError):
        fed.fedavg([])
    with pytest.raises(fed.FedProtocolError, match="round"):
        fed.fedavg([msg_of(0, 0, v=[[1.0]]), msg_of(1, 1, v=[[1.0]])])
    with pytest.raises(fed.FedProtocolError, match="duplicate"):
        fed.fedavg([msg_of(0, 0, v=[[1.0]]), msg_of(0, 0, v=[[2.0]])])
    with pytest.raises(fed.FedProtocolError, match="shared names"):
        fed.fedavg([msg_of(0, 0, v=[[1.0]]),
                    msg_of(1, 0, v=[[1.0]], D_x=[[1.0]])])
    with pytest.raises(fed.FedProtocolError, match="shape"):
        fed.fedavg([msg_of(0, 0, v=[[1.0]]), msg_of(1, 0, v=[[1.0, 2.0]])])


# ---------------------------------------------------------------------------
# momentum aggregation

def test_momentum_alpha_one_is_fedavg(rng):
    hist = fed.AggHistory(alpha=1.0)
    for _ in range(10):
        avg = {"v": rng.normal(0, 1, (2, 3)).astype(np.float32),
               "u/0": rng.normal(0, 1, (2, 3)).astype(np.float32)}
        out = fed.momentum_aggregate(avg, hist)
        assert out["v"].tobytes() == avg["v"].tobytes()
        assert out["u/0"].tobytes() == avg["u/0"].tobytes()


def test_momentum_alpha_zero_freezes(rng):
    hist = fed.AggHistory(alpha=0.0)
    first = {"v": rng.normal(0, 1, (2, 2)).astype(np.float32)}
    out0 = fed.momentum_aggregate(first, hist)
    assert out0["v"].tobytes() == first["v"].tobytes()
    for _ in range(5):
        out = fed.momentum_aggregate(
            {"v": rng.normal(0, 1, (2, 2)).astype(np.float32)}, hist)
        assert out["v"].tobytes() == first["v"].tobytes()


def test_momentum_point_two_formula():
    hist = fed.AggHistory(alpha=0.2)
    fed.momentum_aggregate({"v": np.zeros((1, 1), np.float32)}, hist)
    out = fed.momentum_aggregate({"v": np.ones((1, 1), np.float32)}, hist)
    got = out["v"][0, 0]
    assert abs(float(got) - 0.2) <= float(np.spacing(np.float32(0.2)))


def test_momentum_default_path_hand_sequence():
    # alpha 0.2 over averages 1, 2, 3: outputs 1, 1.2, 1.56
    hist = fed.AggHistory(alpha=0.2)
    outs = [fed.momentum_aggregate(
        {"v": np.full((1, 1), float(a), np.float32)}, hist)["v"][0, 0]
        for a in (1.0, 2.0, 3.0)]
    assert np.allclose(outs, [1.0, 1.2, 1.56], atol=1e-6)


def test_momentum_routing_and_counters(rng):
    hist = fed.AggHistory(alpha=0.2)
    avg = {name: rng.normal(0, 1, (2, 2)).astype(np.float32)
           for name in ("v", "u/0", "u/1", "G/l0.w", "D/l1.b")}
    for _ in range(3):
        out = fed.momentum_aggregate(dict(avg), hist)
        assert out["G/l0.w"].tobytes() == avg["G/l0.w"].tobytes()
        assert out["D/l1.b"].tobytes() == avg["D/l1.b"].tobytes()
    assert set(hist.prev) == {"v", "u/0", "u/1"}
    assert hist.route_counts == {("v", "momentum"): 3, ("u/", "momentum"): 6,
                                 ("G/", "bypass"): 3, ("D/", "bypass"): 3}


def test_momentum_unroutable_name():
    hist = fed.AggHistory(alpha=0.5)
    with pytest.raises(fed.FedProtocolError, match="unroutable"):
        fed.momentum_aggregate({"weird": np.zeros((1, 1), np.float32)}, hist)


def test_alpha_range_checked():
    with pytest.raises(ValueError):
        fed.AggHistory(alpha=-0.1)
    with pytest.raises(ValueError):
        fed.AggHistory(alpha=1.0001)


# ---------------------------------------------------------------------------
# trainer

def test_trainer_runs_both_stages_and_logs():
    cfg = small_cfg()
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    tr.run_all()
    stages = [e["stage"] for e in tr.log]
    assert stages == [1, 1, 2, 2]
    assert tr.agg_events == 4
    assert [e["round"] for e in tr.log] == [0, 1, 2, 3]
    for entry in tr.log:
        assert set(entry["client_losses"]) == {"0", "1"}
        assert all(np.isfinite(v) for v in entry["agg_norms"].values())
    names = set(tr.server_entries())
    assert "v" in names and any(n.startswith("G/") for n in names)


def test_trainer_identical_clients_match_single_client():
    # one domain replicated to two clients trains exactly like one client
    base = dict(classes=3, n_domains=2, shots=4, feature_dim=16,
                shift_strength=0.5, m1=2, m2=2, d=8, d_tok=8, tau=0.05,
                lr_prompt=0.05, lr_gan=1e-3, gan_hidden=16, z_dim=4,
                batch_size=8, epochs=2, z_samples=2)
    cfg2 = cf.ExperimentConfig(n_clients=2, overlap=1.0, **base)
    cfg1 = cf.ExperimentConfig(n_clients=1, overlap=0.0, **base)
    ds = small_ds(cfg2)
    a = fed.FederatedTrainer(cfg2, ds, target_domain=1)
    b = fed.FederatedTrainer(cfg1, ds, target_domain=1)
    a.run_all()
    b.run_all()
    ea, eb = a.server_entries(), b.server_entries()
    assert sorted(ea) == sorted(eb)
    for name in ea:
        assert ea[name].tobytes() == eb[name].tobytes(), name


def test_trainer_hdp_skips_stage1():
    cfg = small_cfg(prompt_mode="hdp")
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=0)
    tr.run_all()
    assert all(e["stage"] == 2 for e in tr.log)
    assert tr.server_prompt.named() == {}
    assert tr.lineage["batch_samples"] == 0
    assert all(path == "bypass" for _, path in tr.history.route_counts)
    assert tr.server_gan is not None


def test_trainer_wgm_skips_stage2():
    cfg = small_cfg(prompt_mode="wgm")
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=0)
    tr.run_all()
    assert all(e["stage"] == 1 for e in tr.log)
    assert tr.server_gan is None
    assert all(path == "momentum" for _, path in tr.history.route_counts)


def test_trainer_aggregation_event_accounting():
    counts = {}
    for epr in (0.5, 1.0, 2.0):
        cfg = small_cfg(epochs=2, epochs_per_round=epr)
        tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
        assert all(c.steps_per_epoch >= 2 for c in tr.clients)
        tr.run_all()
        counts[epr] = tr.agg_events
        assert tr.lineage["batch_samples"] == cfg.epochs * sum(
            len(c.labels) for c in tr.clients)
    assert counts == {0.5: 8, 1.0: 4, 2.0: 2}


def test_trainer_refuses_half_epoch_of_one_batch():
    # one batch per epoch cannot be split over two rounds
    cfg = small_cfg(epochs=2, epochs_per_round=0.5, batch_size=32)
    with pytest.raises(ValueError,
                       match="client 0 holds 12 samples at batch_size 32"):
        fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    cfg = small_cfg(epochs=2, epochs_per_round=1.0, batch_size=32)
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    tr.run_stage1()
    assert tr.lineage["batch_samples"] == cfg.epochs * 24


def test_trainer_zero_target_lineage():
    cfg = small_cfg()
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=1)
    tr.run_all()
    assert tr.lineage["target_samples"] == 0
    assert tr.lineage["batch_samples"] > 0
    assert 1 not in tr.lineage["bank_domains"]
    assert set(tr.lineage["bank_domains"]) == {0, 2}


def test_trainer_client_failure_becomes_round_error():
    cfg = small_cfg()
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    tr.clients[0].opt_prompt = None
    with pytest.raises(fed.RoundError, match="client 0"):
        tr.run_stage1()


def test_trainer_deterministic():
    cfg = small_cfg()
    ds = small_ds(cfg)
    runs = []
    for _ in range(2):
        tr = fed.FederatedTrainer(cfg, ds, target_domain=0)
        tr.run_all()
        runs.append((tr.server_entries(), tr.log))
    assert runs[0][1] == runs[1][1]
    for name in runs[0][0]:
        assert runs[0][0][name].tobytes() == runs[1][0][name].tobytes()


@pytest.mark.parametrize("mode", ["dsp", "csp", "hdp", "wgm"])
def test_trainer_on_round_sees_distributed_state(mode):
    # on_round runs after the send-back: the server and every client
    # already hold the round's distributed values
    cfg = small_cfg(prompt_mode=mode)
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    stages = []

    def on_round(trainer, dist):
        assert trainer is tr
        stage = trainer.log[-1]["stage"]
        stages.append(stage)
        if stage == 1:
            server, clients = tr.server_prompt, [c.prompt for c in tr.clients]
        else:
            server, clients = tr.server_gan, [c.gan for c in tr.clients]
        assert set(server.named()) == set(dist)
        for holder in (server, *clients):
            for name, t in holder.named().items():
                assert t.data.tobytes() == dist[name].tobytes(), name

    tr.run_all(on_round)
    assert stages == [e["stage"] for e in tr.log]
    assert len(stages) == tr.agg_events == (2 if mode in ("hdp", "wgm") else 4)


@pytest.mark.parametrize("mode", ["dsp", "csp", "hdp", "wgm"])
def test_trainer_checkpoint_restore(tmp_path, mode):
    cfg = small_cfg(prompt_mode=mode)
    ds = small_ds(cfg)
    tr = fed.FederatedTrainer(cfg, ds, target_domain=2)
    tr.run_all()
    path = fed.save_message(fed.ParamMessage(
        fed.SERVER_SENDER, tr.agg_events, tr.server_entries()),
        tmp_path / "final.fdsp")
    fresh = fed.FederatedTrainer(cfg, ds, target_domain=2)
    fresh.apply_checkpoint(load_entries := fed.load_message(path).entries)
    assert set(load_entries) == set(tr.server_entries())
    for name, arr in tr.server_entries().items():
        assert fresh.server_entries()[name].tobytes() == arr.tobytes()
    assert (fresh.server_gan is None) == (mode == "wgm")
    for old, new in zip(tr.clients, fresh.clients):
        for name, t in old.prompt.named().items():
            assert new.prompt.named()[name].data.tobytes() == t.data.tobytes()


def assert_read_only(arr):
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0


def test_distributed_parameters_are_one_shared_read_only_array(tmp_path):
    # each aggregated array is frozen once and bound, not copied, by the
    # server and every client; the optimizer rebinds, so nothing writes it
    cfg = small_cfg()
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    tr.run_all()
    for server, holders in ((tr.server_prompt, [c.prompt for c in tr.clients]),
                            (tr.server_gan, [c.gan for c in tr.clients])):
        shared = server.named()
        for holder in holders:
            for name, t in holder.named().items():
                assert t.data is shared[name].data, name
        for t in shared.values():
            assert t.data.dtype == np.float32
            assert_read_only(t.data)
    entries = tr.server_entries()
    for arr in entries.values():
        assert_read_only(arr)
    blob = fed.serialize_message(
        fed.ParamMessage(fed.SERVER_SENDER, 0, entries))
    # recorded before distributed parameters were shared: bytes unchanged
    assert hashlib.blake2b(blob, digest_size=16).hexdigest() == \
        "fbfa1189f3d150319dc4d4270e7b7d5b"

    path = fed.save_message(fed.ParamMessage(
        fed.SERVER_SENDER, tr.agg_events, entries), tmp_path / "final.fdsp")
    fresh = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=2)
    fresh.apply_checkpoint(fed.load_message(path).entries)
    restored = fresh.server_entries()
    for client in fresh.clients:
        for name, t in client.prompt.named().items():
            assert t.data is restored[name], name
    for name, arr in restored.items():
        assert arr.tobytes() == entries[name].tobytes()
        assert_read_only(arr)


def test_apply_named_binds_read_only_float32():
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=16, seed=0)
    given = np.ones_like(gan.named()["G/l0.w"].data)
    wide = np.ones(gan.named()["D/l0.w"].data.shape, dtype=np.float64)
    fed.apply_named(gan.named(), {"G/l0.w": given, "D/l0.w": wide})
    named = gan.named()
    assert named["G/l0.w"].data is given  # bound, not copied
    for name in ("G/l0.w", "D/l0.w"):
        got = named[name].data
        assert got.dtype == np.float32 and (got == 1).all()
        assert_read_only(got)


def test_trainer_target_domain_validation():
    cfg = small_cfg()
    ds = small_ds(cfg)
    with pytest.raises(ValueError, match="not in dataset"):
        fed.FederatedTrainer(cfg, ds, target_domain=7)


@pytest.mark.parametrize("kwargs, field", [
    ({"table": TokenTable(d_tok=6)}, "table.d_tok"),
    ({"enc": FrozenEncoders(16, d=8, d_tok=6)}, "enc.d_tok"),
    ({"enc": FrozenEncoders(16, d=6, d_tok=8)}, "enc.d"),
    ({"enc": FrozenEncoders(6, d=8, d_tok=8)}, "enc.feature_dim"),
])
def test_trainer_refuses_mismatched_encoders_and_table(kwargs, field):
    cfg = small_cfg()  # feature_dim 16, d 8, d_tok 8
    with pytest.raises(ValueError, match=f"{field} is 6"):
        fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=0, **kwargs)


def mode_gan(mode, **overrides):
    """new_gan for a mode, sized by the trainer's server prompt."""
    cfg = small_cfg(prompt_mode=mode, **overrides)
    table = TokenTable(d_tok=cfg.d_tok, seed=cfg.seed_model)
    prompt = make_prompt_params(mode, [0, 1], cfg.m1, cfg.m2, cfg.d_tok,
                                cfg.seed_model, table)
    return fed.new_gan(cfg, prompt)


def test_gan_rows_for_mode():
    assert mode_gan("dsp").n_rows == 4
    assert mode_gan("csp").n_rows == 2
    assert mode_gan("hdp").n_rows == 4
    assert mode_gan("dsp", m1=3, m2=1).n_rows == 4
    cfg = small_cfg()
    gan = mode_gan("dsp")
    assert (gan.d_tok, gan.d, gan.z_dim, gan.h, gan.seed) == (
        cfg.d_tok, cfg.d, cfg.z_dim, cfg.gan_hidden, cfg.seed_model)


def test_hdp_gan_rows_match_template():
    assert mode_gan("hdp", m1=3, m2=5).n_rows == len(HDP_WORDS)


def test_hdp_bank_contexts_are_the_template():
    cfg = small_cfg(prompt_mode="hdp")
    tr = fed.FederatedTrainer(cfg, small_ds(cfg), target_domain=0)
    tr.run_stage2()
    template = np.concatenate([tr.table.row(w) for w in HDP_WORDS], axis=0)
    contexts = [ctx for c in tr.clients for ctx in c.bank.contexts.values()]
    assert len(contexts) == len(tr.source_domains)
    assert all(ctx.dtype == np.float32
               and ctx.tobytes() == template.tobytes() for ctx in contexts)


def test_named_and_apply_named():
    p = make_prompt_params("dsp", domains=[2, 0], d_tok=8, seed=0)
    named = p.named()
    assert list(named) == ["v", "u/0", "u/2"]
    new = {k: np.full_like(t.data, 7.0) for k, t in named.items()}
    fed.apply_named(p.named(), new)
    assert (p.v.data == 7.0).all() and (p.u[2].data == 7.0).all()
    with pytest.raises(ValueError):
        fed.apply_named(p.named(), {"v": np.zeros((1, 1), dtype=np.float32)})


def test_apply_named_round_trips():
    gan = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=16, seed=0)
    other = GanParams(n_rows=4, d_tok=8, d=8, z_dim=4, h=16, seed=9)
    fed.apply_named(other.named(), {k: t.data for k, t in gan.named().items()})
    for mine, theirs in zip(other.g_params() + other.d_params(),
                            gan.g_params() + gan.d_params()):
        assert mine.data.tobytes() == theirs.data.tobytes()
    with pytest.raises(ValueError):
        fed.apply_named(gan.named(),
                        {"G/l0.w": np.zeros((2, 2), dtype=np.float32)})
