"""Federation fabric: partitioning, parameter messages, aggregation, rounds.

Domains are dealt to clients with a configurable overlap ratio (a shared
domain's data is held in full by two clients). Each round every client
trains locally and uploads a ParamMessage; the server averages entry-wise
and redistributes. Prompt-context entries are smoothed with an
exponential moving average over the previously distributed values while
generator/discriminator entries pass through as the plain average;
routing is instrumented so tests can assert no name ever takes the wrong
path.

ParamMessage doubles as the on-disk checkpoint format. Wire layout, all
integers little-endian: magic "FDSP", format version u16, round u32,
sender u32, entry count u32, then per entry name length u16 + UTF-8 name
+ rank u8 + dims u32[rank] + payload f32; an FNV-1a 64-bit checksum of
every preceding byte closes the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
import struct

import numpy as np

from . import numcore as nc
from .config import ExperimentConfig, n_rounds, validate_config
from .datagen import DomainDataset
from .dsp import (DspParams, dsp_train_step, make_prompt_params,
                  template_context_rows)
from .encoder import FrozenEncoders, TokenTable, encode_image
from .promptgan import GanParams, RealPromptBank, gan_train_step

MESSAGE_MAGIC = b"FDSP"
MESSAGE_VERSION = 1
SERVER_SENDER = 0xFFFFFFFF

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# substream ids: partition under seed_data, the rest under seed_noise
_STREAM_PARTITION = 40
_STREAM_BATCH = 41
_STREAM_GAN = 42


class FedError(Exception):
    """Base class for federation failures."""


class PartitionError(FedError):
    """No valid domain-to-client assignment exists for the request."""


class MessageFormatError(FedError):
    """Malformed ParamMessage bytes."""


class MessageChecksumError(MessageFormatError):
    """Payload bytes do not match the trailing checksum."""


class MessageVersionError(MessageFormatError):
    """Unsupported format version."""


class FedProtocolError(FedError):
    """Messages violate the aggregation contract."""


class RoundError(FedError):
    """A client failed mid-round; nothing was aggregated."""


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# parameter messages

@dataclass
class ParamMessage:
    """Immutable named-array bundle from one sender for one round."""

    sender: int
    round: int
    entries: dict[str, np.ndarray]

    def __post_init__(self):
        if not 0 <= self.sender <= 0xFFFFFFFF:
            raise ValueError("sender out of u32 range")
        if not 0 <= self.round <= 0xFFFFFFFF:
            raise ValueError("round out of u32 range")
        if not self.entries:
            raise ValueError("message needs at least one entry")
        frozen = {}
        for name in sorted(self.entries):
            if not name or len(name.encode()) > 0xFFFF:
                raise ValueError(f"bad entry name {name!r}")
            arr = np.ascontiguousarray(self.entries[name], dtype=np.float32)
            if arr.ndim < 1 or arr.ndim > 0xFF:
                raise ValueError(f"{name}: rank {arr.ndim} unsupported")
            arr.setflags(write=False)
            frozen[name] = arr
        self.entries = frozen

    def names(self) -> list[str]:
        return sorted(self.entries)


def serialize_message(msg: ParamMessage) -> bytes:
    buf = bytearray(MESSAGE_MAGIC)
    buf += struct.pack("<HII", MESSAGE_VERSION, msg.round, msg.sender)
    buf += struct.pack("<I", len(msg.entries))
    for name in msg.names():
        raw = name.encode()
        arr = msg.entries[name]
        buf += struct.pack("<H", len(raw)) + raw
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.astype("<f4", copy=False).tobytes(order="C")
    buf += struct.pack("<Q", fnv1a64(bytes(buf)))
    return bytes(buf)


def deserialize_message(data: bytes) -> ParamMessage:
    if len(data) < 26 or data[:4] != MESSAGE_MAGIC:
        raise MessageFormatError("not a parameter message")
    (stated,) = struct.unpack_from("<Q", data, len(data) - 8)
    actual = fnv1a64(data[:-8])
    if stated != actual:
        raise MessageChecksumError(
            f"checksum mismatch: stated {stated:#x}, computed {actual:#x}")
    version, rnd, sender = struct.unpack_from("<HII", data, 4)
    if version != MESSAGE_VERSION:
        raise MessageVersionError(
            f"unsupported message version {version} (expected {MESSAGE_VERSION})")
    (count,) = struct.unpack_from("<I", data, 14)
    end = len(data) - 8
    pos = 18
    entries: dict[str, np.ndarray] = {}
    prev_name = None
    for _ in range(count):
        if pos + 2 > end:
            raise MessageFormatError("truncated entry header")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + name_len + 1 > end:
            raise MessageFormatError("truncated entry name")
        try:
            name = data[pos:pos + name_len].decode()
        except UnicodeDecodeError as exc:
            raise MessageFormatError(f"undecodable entry name: {exc}") from None
        pos += name_len
        if prev_name is not None and name <= prev_name:
            raise MessageFormatError("entries not strictly sorted by name")
        prev_name = name
        rank = data[pos]
        pos += 1
        if rank < 1 or pos + 4 * rank > end:
            raise MessageFormatError(f"{name}: bad rank {rank}")
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        n = int(np.prod(dims, dtype=np.int64))
        if pos + 4 * n > end:
            raise MessageFormatError(f"{name}: truncated payload")
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=pos)
        entries[name] = arr.reshape(dims).copy()
        pos += 4 * n
    if pos != end:
        raise MessageFormatError(f"{end - pos} unparsed bytes before checksum")
    return ParamMessage(sender=sender, round=rnd, entries=entries)


def save_message(msg: ParamMessage, path) -> Path:
    path = Path(path)
    path.write_bytes(serialize_message(msg))
    return path


def load_message(path) -> ParamMessage:
    return deserialize_message(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# partitioning

@dataclass
class Partition:
    """Client -> set of source-domain indices (0..n_source_domains-1)."""

    assignments: dict[int, set[int]]
    overlap_ratio: float
    n_clients: int
    n_source_domains: int

    def __post_init__(self):
        placed: dict[int, int] = {}
        for cid, doms in self.assignments.items():
            if not 0 <= cid < self.n_clients:
                raise PartitionError(f"client id {cid} out of range")
            for d in doms:
                placed[d] = placed.get(d, 0) + 1
        if sorted(placed) != list(range(self.n_source_domains)):
            raise PartitionError("every source domain must be assigned")
        n_shared = sum(1 for c in placed.values() if c >= 2)
        want = _round_half_up(self.overlap_ratio * self.n_source_domains)
        if n_shared != want:
            raise PartitionError(
                f"{n_shared} domains shared, overlap ratio demands {want}")

    def holders(self, domain: int) -> list[int]:
        return sorted(c for c, doms in self.assignments.items() if domain in doms)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def partition_domains(n_source_domains: int, n_clients: int, r: float,
                      seed: int = 0) -> Partition:
    """Deal domains to clients; round(r * n) of them land on two clients.

    Shared domains are chosen first by seeded shuffle and replicated to
    two distinct clients via a round-robin cursor; the unique remainder
    is dealt to the following cursor positions, so every client is
    covered whenever enough placements exist.
    """
    if n_source_domains < 1:
        raise PartitionError("need at least one source domain")
    if n_clients < 1:
        raise PartitionError("need at least one client")
    if not 0.0 <= r <= 1.0:
        raise PartitionError("overlap ratio must be in [0, 1]")
    n_shared = _round_half_up(r * n_source_domains)
    placements = n_source_domains + n_shared
    if n_clients > placements:
        raise PartitionError(
            f"infeasible partition: {n_clients} clients but only "
            f"{placements} domain placements "
            f"({n_source_domains} domains + {n_shared} shared replicas)")
    if n_shared > 0 and n_clients < 2:
        raise PartitionError("sharing a domain needs at least two clients")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_PARTITION)))
    order = [int(d) for d in rng.permutation(n_source_domains)]
    assignments: dict[int, set[int]] = {c: set() for c in range(n_clients)}
    cursor = 0
    for d in order[:n_shared]:
        assignments[cursor % n_clients].add(d)
        assignments[(cursor + 1) % n_clients].add(d)
        cursor += 2
    for d in order[n_shared:]:
        assignments[cursor % n_clients].add(d)
        cursor += 1
    return Partition(assignments=assignments, overlap_ratio=r,
                     n_clients=n_clients, n_source_domains=n_source_domains)


# ---------------------------------------------------------------------------
# aggregation

def _is_domain_specific(name: str) -> bool:
    return name.startswith("u/")


def fedavg(msgs) -> dict[str, np.ndarray]:
    """Unweighted per-name mean over senders, sorted by sender id.

    Names starting with "u/" are domain-specific and averaged over just
    the senders carrying them; every other name must appear in every
    message.
    """
    msgs = sorted(msgs, key=lambda m: m.sender)
    if not msgs:
        raise FedProtocolError("nothing to aggregate")
    senders = [m.sender for m in msgs]
    if len(set(senders)) != len(senders):
        raise FedProtocolError(f"duplicate senders in {senders}")
    if len({m.round for m in msgs}) != 1:
        raise FedProtocolError(
            f"mixed rounds {sorted({m.round for m in msgs})}")
    shared = {n for n in msgs[0].entries if not _is_domain_specific(n)}
    for m in msgs[1:]:
        have = {n for n in m.entries if not _is_domain_specific(n)}
        if have != shared:
            raise FedProtocolError(
                f"sender {m.sender} shared names {sorted(have)} != "
                f"sender {msgs[0].sender} shared names {sorted(shared)}")
    out: dict[str, np.ndarray] = {}
    for name in sorted(set().union(*(m.entries.keys() for m in msgs))):
        holders = [m for m in msgs if name in m.entries]
        shape = holders[0].entries[name].shape
        for m in holders[1:]:
            if m.entries[name].shape != shape:
                raise FedProtocolError(
                    f"{name}: shape {m.entries[name].shape} from sender "
                    f"{m.sender} != {shape}")
        acc = np.zeros(shape, dtype=np.float64)
        for m in holders:
            acc += m.entries[name].astype(np.float64)
        out[name] = (acc / len(holders)).astype(np.float32)
    return out


_ROUTES = (("v", "momentum"), ("u/", "momentum"), ("G/", "bypass"),
           ("D/", "bypass"))


def _route(name: str) -> tuple[str, str]:
    if name == "v":
        return "v", "momentum"
    for prefix, path in _ROUTES[1:]:
        if name.startswith(prefix):
            return prefix, path
    raise FedProtocolError(f"unroutable parameter name {name!r}")


class AggHistory:
    """Previously distributed values plus routing instrumentation.

    The default update is out = alpha * avg + (1 - alpha) * prev, seeded
    with the first round's plain average. The two_history variant
    instead blends the two previously distributed states and ignores the
    fresh average entirely from the third round on; it exists for
    ablation and degenerates by construction.
    """

    def __init__(self, alpha: float, two_history: bool = False):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha
        self.two_history = two_history
        self.prev: dict[str, np.ndarray] = {}
        self.prev2: dict[str, np.ndarray] = {}
        self.route_counts: dict[tuple[str, str], int] = {}


def momentum_aggregate(avg: dict[str, np.ndarray],
                       hist: AggHistory) -> dict[str, np.ndarray]:
    """Blend prompt-context entries with history; pass GAN entries through."""
    a = float(hist.alpha)
    out: dict[str, np.ndarray] = {}
    for name in sorted(avg):
        val = np.asarray(avg[name], dtype=np.float32)
        prefix, path = _route(name)
        key = (prefix, path)
        hist.route_counts[key] = hist.route_counts.get(key, 0) + 1
        if path == "bypass":
            out[name] = val
            continue
        prev = hist.prev.get(name)
        if not hist.two_history:
            if prev is None:
                new = val.copy()
            else:
                new = (a * val.astype(np.float64)
                       + (1.0 - a) * prev.astype(np.float64)).astype(np.float32)
        else:
            prev2 = hist.prev2.get(name)
            if prev is None or prev2 is None:
                new = val.copy()
            else:
                new = (a * prev.astype(np.float64)
                       + (1.0 - a) * prev2.astype(np.float64)).astype(np.float32)
            if prev is not None:
                hist.prev2[name] = prev
        hist.prev[name] = new
        out[name] = new
    return out


# ---------------------------------------------------------------------------
# round orchestration

def new_gan(cfg: ExperimentConfig) -> GanParams:
    """Freshly initialized GAN producing the prompt mode's context rows:
    the four template rows under hdp, [v] under csp, [v; u^d] otherwise."""
    if cfg.prompt_mode == "hdp":
        n_rows = 4
    elif cfg.prompt_mode == "csp":
        n_rows = cfg.m1
    else:
        n_rows = cfg.m1 + cfg.m2
    return GanParams(n_rows, cfg.d_tok, cfg.d, z_dim=cfg.z_dim,
                     h=cfg.gan_hidden, seed=cfg.seed_model)


def apply_named(named: dict[str, nc.Tensor],
                arrays: dict[str, np.ndarray]) -> None:
    """Overwrite parameters from aggregation output or a checkpoint.

    named maps names to a holder's tensors (``named()`` of DspParams or
    GanParams); names the holder lacks are ignored, so a client only
    picks up its own domains.
    """
    for name, tensor in named.items():
        if name in arrays:
            new = np.asarray(arrays[name], dtype=np.float32)
            if new.shape != tensor.data.shape:
                raise ValueError(f"{name}: shape {new.shape} != {tensor.data.shape}")
            tensor.data = new.copy()


class _ClientState:
    """One client's data, parameters, optimizers, and rng streams."""

    def __init__(self, cid: int, domains, data_by_domain, cfg):
        self.id = cid
        self.domains = sorted(int(d) for d in domains)
        self.cfg = cfg
        self.data = data_by_domain  # domain -> (embeddings (N, d), labels (N,))
        self.samples = []
        for d in self.domains:
            embs, labels = data_by_domain[d]
            for i in range(embs.shape[0]):
                self.samples.append((d, int(labels[i]), embs[i]))
        self.steps_per_epoch = max(
            1, math.ceil(len(self.samples) / cfg.batch_size))
        self.prompt = make_prompt_params(
            cfg.prompt_mode, self.domains, cfg.m1, cfg.m2, cfg.d_tok,
            cfg.seed_model)
        self.opt_prompt = nc.Adam(lr=cfg.lr_prompt) if self.prompt else None
        self.gan: GanParams | None = None
        self.opt_g = self.opt_d = None
        self.bank: RealPromptBank | None = None
        # keyed by the domain set so clients with identical data share
        # identical batch order and noise, making mean-of-equals exact
        self.batch_rng = np.random.default_rng(np.random.SeedSequence(
            (cfg.seed_noise, _STREAM_BATCH, *self.domains)))
        self.gan_rng = np.random.default_rng(np.random.SeedSequence(
            (cfg.seed_noise, _STREAM_GAN, *self.domains)))
        self._queue: list[list] = []
        self._pending_steps = 0

    # -- stage 1 ----------------------------------------------------------
    def _refill_queue(self):
        order = self.batch_rng.permutation(len(self.samples))
        b = self.cfg.batch_size
        self._queue = [
            [self.samples[i] for i in order[lo:lo + b]]
            for lo in range(0, len(order), b)]

    def _span_batches(self, epochs_per_round: float):
        if epochs_per_round == 0.5:
            if not self._queue:
                self._refill_queue()
                take = math.ceil(len(self._queue) / 2)
            else:
                take = len(self._queue)
            for _ in range(take):
                yield self._queue.pop(0)
            return
        for _ in range(int(epochs_per_round)):
            self._refill_queue()
            while self._queue:
                yield self._queue.pop(0)

    def stage1_span(self, enc, table, classes, lineage) -> float:
        losses = []
        target = lineage["target_domain"]
        for batch in self._span_batches(self.cfg.epochs_per_round):
            lineage["batch_samples"] += len(batch)
            lineage["target_samples"] += sum(
                1 for d, _, _ in batch if d == target)
            losses.append(dsp_train_step(
                self.prompt, batch, enc, table, classes, self.opt_prompt,
                self.cfg.tau))
        return float(np.mean(losses))

    def stage1_message(self, round_index: int) -> ParamMessage:
        entries = {n: t.data for n, t in self.prompt.named().items()}
        return ParamMessage(sender=self.id, round=round_index, entries=entries)

    # -- stage 2 ----------------------------------------------------------
    def start_stage2(self, table):
        cfg = self.cfg
        contexts = {}
        for d in self.domains:
            if cfg.prompt_mode == "hdp":
                contexts[d] = template_context_rows(table)
            else:
                contexts[d] = self.prompt.context_rows(d).copy()
        embeddings = {d: self.data[d][0].copy() for d in self.domains}
        self.bank = RealPromptBank(contexts=contexts, embeddings=embeddings)
        self.gan = new_gan(cfg)
        self.opt_g = nc.AdamW(lr=cfg.lr_gan, weight_decay=cfg.weight_decay)
        self.opt_d = nc.AdamW(lr=cfg.lr_gan, weight_decay=cfg.weight_decay)

    def _span_steps(self) -> int:
        e = self.cfg.epochs_per_round
        s = self.steps_per_epoch
        if e == 0.5:
            if self._pending_steps:
                k, self._pending_steps = self._pending_steps, 0
            else:
                k = math.ceil(s / 2)
                self._pending_steps = s - k
            return k
        return int(e) * s

    def stage2_span(self) -> tuple[float, float]:
        cfg = self.cfg
        d_losses, g_losses = [], []
        for _ in range(self._span_steps()):
            real_ctx, real_emb, fake_emb = self.bank.sample_batch(
                self.gan_rng, cfg.batch_size)
            d_l, g_l = gan_train_step(
                self.gan, real_ctx, real_emb, fake_emb, self.gan_rng,
                self.opt_g, self.opt_d, cfg.g_loss_mode)
            d_losses.append(d_l)
            g_losses.append(g_l)
        return float(np.mean(d_losses)), float(np.mean(g_losses))

    def stage2_message(self, round_index: int) -> ParamMessage:
        entries = {n: t.data for n, t in self.gan.named().items()}
        return ParamMessage(sender=self.id, round=round_index, entries=entries)


class FederatedTrainer:
    """Runs both training stages round by round over partitioned clients.

    The held-out target domain (if any) contributes no samples to any
    client; a lineage counter tallies batch contents to prove it. Server
    parameters always equal the last distributed state, so evaluation
    reads them directly after run_all().
    """

    def __init__(self, cfg: ExperimentConfig, ds: DomainDataset,
                 target_domain: int | None = None,
                 enc: FrozenEncoders | None = None,
                 table: TokenTable | None = None):
        validate_config(cfg)
        self.cfg = cfg
        self.ds = ds
        ids = [d for d, _ in ds.domains]
        if target_domain is not None and target_domain not in ids:
            raise ValueError(f"target domain {target_domain} not in dataset")
        self.target_domain = target_domain
        self.source_domains = sorted(d for d in ids if d != target_domain)
        if not self.source_domains:
            raise ValueError("no source domains left to train on")
        self.enc = enc if enc is not None else FrozenEncoders(
            ds.feature_dim, cfg.d, cfg.d_tok, seed=cfg.seed_model)
        self.table = table if table is not None else TokenTable(
            cfg.d_tok, seed=cfg.seed_model)
        self.classes = list(ds.classes)
        self.partition = partition_domains(
            len(self.source_domains), cfg.n_clients, cfg.overlap,
            seed=cfg.seed_data)
        emb_by_domain = {}
        for d in self.source_domains:
            idx = ds.domain_indices(d)
            emb_by_domain[d] = (encode_image(self.enc, ds.features[idx]),
                                ds.class_ids[idx])
        self.lineage = {"target_domain": target_domain, "batch_samples": 0,
                        "target_samples": 0, "bank_domains": []}
        self.clients = []
        for cid in range(cfg.n_clients):
            actual = [self.source_domains[i]
                      for i in sorted(self.partition.assignments[cid])]
            data = {d: emb_by_domain[d] for d in actual}
            self.clients.append(_ClientState(cid, actual, data, cfg))
        self.server_prompt: DspParams | None = make_prompt_params(
            cfg.prompt_mode, self.source_domains, cfg.m1, cfg.m2, cfg.d_tok,
            cfg.seed_model)
        self.server_gan: GanParams | None = None
        self.history = AggHistory(cfg.alpha, cfg.momentum_literal)
        self.round_index = 0
        self.agg_events = 0
        self.log: list[dict] = []

    def _one_round(self, stage: int, span, message) -> dict[str, np.ndarray]:
        msgs, losses = [], {}
        for client in self.clients:
            try:
                losses[client.id] = span(client)
                msgs.append(message(client, self.round_index))
            except FedError:
                raise
            except Exception as exc:
                raise RoundError(
                    f"client {client.id} failed in round "
                    f"{self.round_index}: {exc}") from exc
        dist = momentum_aggregate(fedavg(msgs), self.history)
        entry = {
            "stage": stage, "round": self.round_index,
            "client_losses": {str(c): l for c, l in sorted(losses.items())},
            "agg_norms": {n: float(np.linalg.norm(v))
                          for n, v in sorted(dist.items())},
        }
        self.log.append(entry)
        self.round_index += 1
        self.agg_events += 1
        return dist

    def run_stage1(self, on_round=None) -> None:
        """Soft-prompt rounds; a no-op under hdp (nothing trainable)."""
        if self.cfg.prompt_mode == "hdp":
            return
        for _ in range(n_rounds(self.cfg)):
            dist = self._one_round(
                1,
                lambda c: c.stage1_span(self.enc, self.table, self.classes,
                                        self.lineage),
                lambda c, r: c.stage1_message(r))
            apply_named(self.server_prompt.named(), dist)
            for client in self.clients:
                apply_named(client.prompt.named(), dist)
            if on_round is not None:
                on_round(self, dist)

    def run_stage2(self, on_round=None) -> None:
        """Conditional-GAN rounds; a no-op under wgm (no generator)."""
        if self.cfg.prompt_mode == "wgm":
            return
        for client in self.clients:
            client.start_stage2(self.table)
            for d in client.bank.domains:
                if d not in self.lineage["bank_domains"]:
                    self.lineage["bank_domains"].append(d)
        self.lineage["bank_domains"].sort()
        self.server_gan = new_gan(self.cfg)
        for _ in range(n_rounds(self.cfg)):
            dist = self._one_round(
                2, lambda c: c.stage2_span(), lambda c, r: c.stage2_message(r))
            apply_named(self.server_gan.named(), dist)
            for client in self.clients:
                apply_named(client.gan.named(), dist)
            if on_round is not None:
                on_round(self, dist)

    def run_all(self, on_round=None) -> None:
        self.run_stage1(on_round)
        self.run_stage2(on_round)

    def server_entries(self) -> dict[str, np.ndarray]:
        """Current server state as checkpoint-ready named arrays."""
        out: dict[str, np.ndarray] = {}
        if self.server_prompt is not None:
            out.update({n: t.data.copy()
                        for n, t in self.server_prompt.named().items()})
        if self.server_gan is not None:
            out.update({n: t.data.copy()
                        for n, t in self.server_gan.named().items()})
        return out

    def apply_checkpoint(self, entries: dict[str, np.ndarray]) -> None:
        """Restore server (and client) parameters from checkpoint entries."""
        if self.server_prompt is not None:
            apply_named(self.server_prompt.named(), entries)
            for client in self.clients:
                apply_named(client.prompt.named(), entries)
        if any(n.startswith(("G/", "D/")) for n in entries):
            if self.server_gan is None:
                self.server_gan = new_gan(self.cfg)
            apply_named(self.server_gan.named(), entries)
