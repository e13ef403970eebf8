"""Federation fabric: partitioning, parameter messages, aggregation, rounds.

Domains are dealt to clients with a configurable overlap ratio (a shared
domain's data is held in full by two clients). Both training stages run
the same round loop (FederatedTrainer._rounds): every client trains
locally for a span set by the round's index (_ClientState._span_steps)
and uploads its holder's parameters as a ParamMessage, and the
server averages entry-wise and binds the result in its own and every
client's holder. A holder is the object whose named() gives a stage's
parameters: the DspParams prompt contexts in stage 1, the GanParams
generator and discriminator in stage 2. Distributed parameters are
immutable: each aggregated array is frozen once, and the server and
every client holder bind that same read-only array. The optimizer
rebinds a tensor's data to a fresh array and never writes it in place,
so sharing is safe. Prompt-context
entries are smoothed with an exponential moving average over the
previously distributed values while generator/discriminator entries
pass through as the plain average; routing is instrumented so tests can
assert no name ever takes the wrong path.

ParamMessage doubles as the on-disk checkpoint format. Wire layout, all
integers little-endian: magic "FDSP", format version u16, round u32,
sender u32, entry count u32, then per entry name length u16 + UTF-8 name
+ rank u8 + dims u32[rank] + payload f32; the 8-byte checksum of every
preceding byte closes the message. Version 2, the only one written, uses
the blake2b digest (digest_size 8); version 1 files, closed by FNV-1a
64, are still read, so old checkpoints load.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
import struct

import numpy as np

from . import numcore as nc
from .config import ExperimentConfig, n_rounds, validate_config
from .datagen import DomainDataset
from .dsp import DspParams, dsp_train_step, make_prompt_params
from .encoder import FrozenEncoders, TokenTable, encode_image
from .promptgan import GanParams, RealPromptBank, gan_train_step

MESSAGE_MAGIC = b"FDSP"
MESSAGE_VERSION = 2
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
    """FNV-1a 64 of data: the checksum of version-1 messages, which are
    read but never written."""
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
    with memoryview(buf) as view:  # no copy; released before buf grows
        digest = _blake2b64(view)
    buf += digest
    return bytes(buf)


def _blake2b64(data) -> bytes:
    return hashlib.blake2b(data, digest_size=8).digest()


def deserialize_message(data: bytes) -> ParamMessage:
    if len(data) < 26 or data[:4] != MESSAGE_MAGIC:
        raise MessageFormatError("not a parameter message")
    version, rnd, sender = struct.unpack_from("<HII", data, 4)
    if version not in (1, MESSAGE_VERSION):
        raise MessageVersionError(
            f"unsupported message version {version} (reads 1 and {MESSAGE_VERSION})")
    body = memoryview(data)[:-8]
    stated = data[-8:]
    if version == 1:
        actual = struct.pack("<Q", fnv1a64(body))
    else:
        actual = _blake2b64(body)
    if stated != actual:
        raise MessageChecksumError(
            f"v{version} checksum mismatch: stated {stated.hex()}, "
            f"computed {actual.hex()}")
    (count,) = struct.unpack_from("<I", data, 14)
    if count == 0:
        raise MessageFormatError("message has no entries")
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
        if not name:
            raise MessageFormatError("empty entry name")
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
        n = math.prod(dims)  # a Python int: dims from outside cannot wrap
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

def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def partition_domains(n_source_domains: int, n_clients: int, r: float,
                      seed: int = 0) -> dict[int, set[int]]:
    """Deal domains to clients; round(r * n) of them land on two clients.

    Returns client id -> set of source-domain indices
    (0..n_source_domains-1).

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
    return assignments


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


_ROUTES = (("u/", "momentum"), ("G/", "bypass"), ("D/", "bypass"))


def _route(name: str) -> tuple[str, str]:
    if name == "v":
        return "v", "momentum"
    for prefix, path in _ROUTES:
        if name.startswith(prefix):
            return prefix, path
    raise FedProtocolError(f"unroutable parameter name {name!r}")


class AggHistory:
    """Previously distributed values plus routing instrumentation.

    The update is out = alpha * avg + (1 - alpha) * prev, seeded with the
    first round's plain average.
    """

    def __init__(self, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha
        self.prev: dict[str, np.ndarray] = {}
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
        if prev is None:
            new = val.copy()
        else:
            new = (a * val.astype(np.float64)
                   + (1.0 - a) * prev.astype(np.float64)).astype(np.float32)
        hist.prev[name] = new
        out[name] = new
    return out


# ---------------------------------------------------------------------------
# round orchestration

def new_gan(cfg: ExperimentConfig, prompt: DspParams) -> GanParams:
    """Freshly initialized GAN producing prompt's m1 + m2 context rows."""
    return GanParams(prompt.m1 + prompt.m2, cfg.d_tok, cfg.d, z_dim=cfg.z_dim,
                     h=cfg.gan_hidden, seed=cfg.seed_model)


def apply_named(named: dict[str, nc.Tensor],
                arrays: dict[str, np.ndarray]) -> None:
    """Bind parameters from aggregation output or a checkpoint.

    named maps names to a holder's tensors (``named()`` of DspParams or
    GanParams); names the holder lacks are ignored, so a client only
    picks up its own domains.

    Distributed parameters are immutable arrays that all holders share:
    a contiguous float32 array is frozen and bound as it is (any other
    array is converted first), so every holder given the same arrays
    binds the same read-only objects. The optimizer rebinds
    ``tensor.data`` and never writes it, so no holder can change what
    another holder sees.
    """
    for name, tensor in named.items():
        if name in arrays:
            new = np.ascontiguousarray(arrays[name], dtype=np.float32)
            if new.shape != tensor.data.shape:
                raise ValueError(f"{name}: shape {new.shape} != {tensor.data.shape}")
            new.setflags(write=False)
            tensor.data = new


class _ClientState:
    """One client's data (embedding, class-id and domain-id arrays, one
    row per sample, domain-major), parameters, optimizers, rng streams."""

    def __init__(self, cid: int, domains, data_by_domain, cfg, table):
        self.id = cid
        self.domains = sorted(int(d) for d in domains)
        self.cfg = cfg
        parts = [data_by_domain[d] for d in self.domains]
        self.embs = np.concatenate([embs for embs, _ in parts])
        self.labels = np.concatenate([labels for _, labels in parts])
        self.domain_ids = np.repeat(self.domains,
                                    [len(labels) for _, labels in parts])
        n = len(self.labels)
        self.steps_per_epoch = math.ceil(n / cfg.batch_size)
        if cfg.epochs_per_round == 0.5 and self.steps_per_epoch < 2:
            raise ValueError(
                f"epochs_per_round 0.5 needs two batches per epoch; client "
                f"{cid} holds {n} samples at batch_size {cfg.batch_size}")
        self.prompt = make_prompt_params(
            cfg.prompt_mode, self.domains, cfg.m1, cfg.m2, cfg.d_tok,
            cfg.seed_model, table)
        self.opt_prompt = nc.Adam(lr=cfg.lr_prompt)
        self.gan: GanParams | None = None
        self.opt_g = self.opt_d = None
        self.bank: RealPromptBank | None = None
        # keyed by the domain set so clients with identical data share
        # identical batch order and noise, making mean-of-equals exact
        self.batch_rng = np.random.default_rng(np.random.SeedSequence(
            (cfg.seed_noise, _STREAM_BATCH, *self.domains)))
        self.gan_rng = np.random.default_rng(np.random.SeedSequence(
            (cfg.seed_noise, _STREAM_GAN, *self.domains)))
        self._queue: list[np.ndarray] = []

    def _span_steps(self, rnd: int) -> int:
        """Steps in round rnd of a stage; at 0.5 epochs per round, even
        rounds run the first ceil(s/2) of an epoch's s steps, odd the rest."""
        s = self.steps_per_epoch
        if self.cfg.epochs_per_round == 0.5:
            first = math.ceil(s / 2)
            return first if rnd % 2 == 0 else s - first
        return int(self.cfg.epochs_per_round) * s

    # -- stage 1 ----------------------------------------------------------
    def _refill_queue(self):
        order = self.batch_rng.permutation(len(self.labels))
        b = self.cfg.batch_size
        self._queue = [order[lo:lo + b] for lo in range(0, len(order), b)]

    def stage1_span(self, rnd, enc, table, classes, lineage) -> float:
        losses = []
        target = lineage["target_domain"]
        for _ in range(self._span_steps(rnd)):
            if not self._queue:
                self._refill_queue()
            idx = self._queue.pop(0)
            batch = list(zip(self.domain_ids[idx].tolist(),
                             self.labels[idx].tolist(), self.embs[idx]))
            lineage["batch_samples"] += len(batch)
            lineage["target_samples"] += sum(
                1 for d, _, _ in batch if d == target)
            losses.append(dsp_train_step(
                self.prompt, batch, enc, table, classes, self.opt_prompt,
                self.cfg.tau))
        return float(np.mean(losses))

    # -- stage 2 ----------------------------------------------------------
    def start_stage2(self):
        cfg = self.cfg
        contexts = {d: self.prompt.context_rows(d) for d in self.domains}
        embeddings = {d: self.embs[self.domain_ids == d] for d in self.domains}
        self.bank = RealPromptBank(contexts=contexts, embeddings=embeddings)
        self.gan = new_gan(cfg, self.prompt)
        self.opt_g = nc.AdamW(lr=cfg.lr_gan, weight_decay=cfg.weight_decay)
        self.opt_d = nc.AdamW(lr=cfg.lr_gan, weight_decay=cfg.weight_decay)

    def stage2_span(self, rnd) -> tuple[float, float]:
        cfg = self.cfg
        d_losses, g_losses = [], []
        for _ in range(self._span_steps(rnd)):
            real_ctx, real_emb, fake_emb = self.bank.sample_batch(
                self.gan_rng, cfg.batch_size)
            d_l, g_l = gan_train_step(
                self.gan, real_ctx, real_emb, fake_emb, self.gan_rng,
                self.opt_g, self.opt_d)
            d_losses.append(d_l)
            g_losses.append(g_l)
        return float(np.mean(d_losses)), float(np.mean(g_losses))


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
        for name, got, want in (
                ("enc.feature_dim", self.enc.feature_dim, ds.feature_dim),
                ("enc.d", self.enc.d, cfg.d),
                ("enc.d_tok", self.enc.d_tok, cfg.d_tok),
                ("table.d_tok", self.table.d_tok, cfg.d_tok)):
            if got != want:
                raise ValueError(f"{name} is {got}, the run needs {want}")
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
                      for i in sorted(self.partition[cid])]
            self.clients.append(_ClientState(cid, actual, emb_by_domain,
                                             cfg, self.table))
        self.server_prompt = make_prompt_params(
            cfg.prompt_mode, self.source_domains, cfg.m1, cfg.m2, cfg.d_tok,
            cfg.seed_model, self.table)
        self.server_gan: GanParams | None = None
        self.history = AggHistory(cfg.alpha)
        self.log: list[dict] = []

    @property
    def agg_events(self) -> int:
        """Aggregation events so far, over both stages: one per log entry."""
        return len(self.log)

    def _rounds(self, stage: int, span, holder, server, on_round) -> None:
        """The federated round, n_rounds times: every client runs
        span(client, round index within the stage) and uploads
        holder(client)'s parameters; the server averages and blends, and
        server and every client's holder bind the result, frozen by the
        first of them (apply_named)."""
        for rnd in range(n_rounds(self.cfg)):
            msgs, losses = [], {}
            for client in self.clients:
                try:
                    losses[client.id] = span(client, rnd)
                    msgs.append(ParamMessage(
                        sender=client.id, round=self.agg_events,
                        entries={n: t.data
                                 for n, t in holder(client).named().items()}))
                except FedError:
                    raise
                except Exception as exc:
                    raise RoundError(
                        f"client {client.id} failed in round "
                        f"{self.agg_events}: {exc}") from exc
            dist = momentum_aggregate(fedavg(msgs), self.history)
            self.log.append({
                "stage": stage, "round": self.agg_events,
                "client_losses": {str(c): l for c, l in sorted(losses.items())},
                "agg_norms": {n: float(np.linalg.norm(v))
                              for n, v in sorted(dist.items())},
            })
            for target in (server, *(holder(c) for c in self.clients)):
                apply_named(target.named(), dist)
            if on_round is not None:
                on_round(self, dist)

    def run_stage1(self, on_round=None) -> None:
        """Soft-prompt rounds; a no-op when the prompt has nothing to train
        (hdp's frozen template)."""
        if not self.server_prompt.named():
            return
        self._rounds(
            1, lambda c, rnd: c.stage1_span(rnd, self.enc, self.table,
                                            self.classes, self.lineage),
            lambda c: c.prompt, self.server_prompt, on_round)

    def run_stage2(self, on_round=None) -> None:
        """Conditional-GAN rounds; a no-op under wgm (no generator)."""
        if self.cfg.prompt_mode == "wgm":
            return
        for client in self.clients:
            client.start_stage2()
        self.lineage["bank_domains"] = sorted(
            {d for c in self.clients for d in c.bank.domains})
        self.server_gan = new_gan(self.cfg, self.server_prompt)
        self._rounds(2, lambda c, rnd: c.stage2_span(rnd), lambda c: c.gan,
                     self.server_gan, on_round)

    def run_all(self, on_round=None) -> None:
        self.run_stage1(on_round)
        self.run_stage2(on_round)

    def _server_holders(self) -> list:
        return [h for h in (self.server_prompt, self.server_gan)
                if h is not None]

    def server_entries(self) -> dict[str, np.ndarray]:
        """Current server state as checkpoint-ready named arrays: the
        arrays the server binds, not copies, read-only once a round or a
        checkpoint has set them."""
        return {n: t.data for h in self._server_holders()
                for n, t in h.named().items()}

    def apply_checkpoint(self, entries: dict[str, np.ndarray]) -> None:
        """Restore server (and client prompt) parameters from checkpoint
        entries; a checkpoint with generator entries creates the server GAN.

        The checkpoint must hold exactly the server's parameter names: a
        prompt trained with other held-out domains has other u/<d> rows.
        """
        if (self.server_gan is None
                and any(n.startswith(("G/", "D/")) for n in entries)):
            self.server_gan = new_gan(self.cfg, self.server_prompt)
        want = {n for h in self._server_holders() for n in h.named()}
        if set(entries) != want:
            raise ValueError(
                "checkpoint does not match the model: missing "
                f"{sorted(want - set(entries))}, unexpected "
                f"{sorted(set(entries) - want)}; was it trained with "
                "another --holdout or --prompt-mode?")
        for h in self._server_holders():
            apply_named(h.named(), entries)
        for client in self.clients:
            apply_named(client.prompt.named(), entries)
