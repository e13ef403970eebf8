"""Generator-driven inference, metrics, and the evaluation protocols.

A target image is classified by conditioning the trained generator on
its embedding: each z draw gives a block of context rows, each prompt
[block; cls] is mean-pooled and text-encoded and scored against the
image embedding by inner product over temperature (identical to cosine
because both sides are unit-norm), and the logits are averaged over the
blocks. The wgm variant skips the generator: its one block, the tuned
[v; mean of the per-domain rows], is encoded once.

Images are scored in chunks of SCORE_CHUNK: one forward-only generator
pass, which records no tape, and one encoder call per chunk. Every
product keeps the shape it has when one image is scored alone, so each
probability row is bit-identical to scoring that image alone.

Protocols: leave-one-domain-out (train once per held-out domain) and
cross-dataset transfer (train on every domain of one dataset, score each
domain of another, class tokens regenerated from the target's class
names). Reports serialize to CSV/JSON with a config fingerprint; two
runs from the same config and seeds produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numcore as nc
from .config import Z_POLICIES, ExperimentConfig, config_hash, validate_config
from .datagen import DomainDataset, gen_dataset, load_dataset
from .dsp import DspParams
from .encoder import FrozenEncoders, TokenTable, encode_image, encode_text
from .fed import FederatedTrainer
from .promptgan import GanParams, generator_forward

_STREAM_EVAL_Z = 50

# images per predict_from_emb call: one generator pass and one text
# encode per chunk, with memory bounded by the chunk, not the domain
SCORE_CHUNK = 16

CSV_COLUMNS = ("protocol", "target_domain", "accuracy", "macro_f1", "seed",
               "config_hash")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (B, K) logits."""
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _draw_z(z_policy: str, z_samples: int, z_dim: int,
            z_seed: int) -> np.ndarray:
    if z_policy not in Z_POLICIES:
        raise ValueError(f"unknown z_policy {z_policy!r}")
    if z_policy == "fixed-zero":
        return np.zeros((1, z_dim), dtype=np.float32)
    rng = np.random.default_rng(
        np.random.SeedSequence((z_seed, _STREAM_EVAL_Z)))
    return rng.standard_normal((z_samples, z_dim)).astype(np.float32)


def wgm_context_rows(dsps: DspParams) -> np.ndarray:
    """[v; mean over source domains of u^d] for generator-free inference."""
    parts = [dsps.v.data]
    if dsps.m2 > 0:
        if not dsps.u:
            raise ValueError("no source domains to average")
        stack = np.stack([dsps.u[d].data.astype(np.float64)
                          for d in sorted(dsps.u)])
        parts.append(stack.mean(axis=0).astype(np.float32))
    return np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------
# metrics

def accuracy_and_macro_f1(true_ids, pred_ids, k: int) -> tuple[float, float]:
    """Accuracy and unweighted mean of per-class F1 over all k classes.

    A class with no predictions and no instances contributes F1 = 0.
    """
    t = np.asarray(true_ids, dtype=np.int64)
    p = np.asarray(pred_ids, dtype=np.int64)
    if t.shape != p.shape or t.size == 0:
        raise ValueError("need matching, non-empty label arrays")
    acc = float(np.mean(t == p))
    f1s = []
    for c in range(k):
        tp = int(np.sum((p == c) & (t == c)))
        fp = int(np.sum((p == c) & (t != c)))
        fn = int(np.sum((p != c) & (t == c)))
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return acc, float(np.mean(f1s))


# ---------------------------------------------------------------------------
# reports

@dataclass
class EvalReport:
    """Per-target-domain results plus their averages."""

    protocol: str
    seed: int
    config_hash: str
    rows: list[dict] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return float(np.mean([r["accuracy"] for r in self.rows]))

    @property
    def macro_f1(self) -> float:
        return float(np.mean([r["macro_f1"] for r in self.rows]))

    def to_dict(self) -> dict:
        return {"protocol": self.protocol, "seed": self.seed,
                "config_hash": self.config_hash, "rows": self.rows,
                "accuracy": self.accuracy, "macro_f1": self.macro_f1}


def merge_reports(reports) -> EvalReport:
    """One report holding every row (the per-protocol average view)."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to merge")
    first = reports[0]
    merged = EvalReport(protocol=first.protocol, seed=first.seed,
                        config_hash=first.config_hash)
    for r in reports:
        merged.rows.extend(dict(row) for row in r.rows)
    return merged


def write_report_csv(reports, path) -> Path:
    if isinstance(reports, EvalReport):
        reports = [reports]
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            for row in rep.rows:
                writer.writerow([
                    rep.protocol, row["target_domain"],
                    repr(float(row["accuracy"])),
                    repr(float(row["macro_f1"])), rep.seed, rep.config_hash])
    return path


def write_report_json(reports, path) -> Path:
    if isinstance(reports, EvalReport):
        reports = [reports]
    path = Path(path)
    payload = {"reports": [r.to_dict() for r in reports]}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# model bundle and protocol runners

@dataclass
class InferenceModel:
    """Everything evaluation needs, frozen after training."""

    enc: FrozenEncoders
    table: TokenTable
    classes: list[str]
    tau: float
    mode: str
    gan: GanParams | None = None
    prompt: DspParams | None = None
    z_policy: str = "mean-of-samples"
    z_samples: int = 8
    z_seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if len(self.classes) < 2:
            raise ValueError("need at least two classes")
        # materializes the class rows, so the table digest is stable under use
        self._class_rows = np.concatenate(
            [self.table.row(n) for n in self.classes]).astype(np.float64)
        # Every image shares the same seeded z draws, which keeps
        # prediction a pure function of its inputs and makes per-image
        # evaluation order irrelevant.
        if self.mode == "wgm":
            self._wgm_embs = self._class_embeddings(
                wgm_context_rows(self.prompt)[None])
        elif self.gan is not None:
            self._zs = _draw_z(self.z_policy, self.z_samples, self.gan.z_dim,
                               self.z_seed)

    @classmethod
    def from_trainer(cls, trainer: FederatedTrainer,
                     classes=None) -> "InferenceModel":
        cfg = trainer.cfg
        return cls(enc=trainer.enc, table=trainer.table,
                   classes=list(classes if classes is not None
                                else trainer.classes),
                   tau=cfg.tau, mode=cfg.prompt_mode, gan=trainer.server_gan,
                   prompt=trainer.server_prompt, z_policy=cfg.z_policy,
                   z_samples=cfg.z_samples, z_seed=cfg.seed_noise)

    def state_digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.enc.checksum().encode())
        h.update(self.table.checksum().encode())
        if self.prompt is not None:
            for name, t in self.prompt.named().items():
                h.update(name.encode())
                h.update(t.data.tobytes())
        if self.gan is not None:
            for name, t in self.gan.named().items():
                h.update(name.encode())
                h.update(t.data.tobytes())
        return h.hexdigest()

    def _class_embeddings(self, contexts: np.ndarray) -> np.ndarray:
        """(M*K, d) embeddings of the prompts [contexts[m]; cls_k], m-major,
        pooled by the same sequential float64 sum as ``nc.row_mean``."""
        n = contexts.shape[1]
        sums = np.add.reduce(contexts, axis=1, dtype=np.float64)
        pooled = (sums[:, None, :] + self._class_rows) / (n + 1)
        return encode_text(nc.Graph(), self.enc, nc.Tensor(
            pooled.reshape(-1, pooled.shape[2]))).data

    def predict_from_emb(self, image_embs: np.ndarray) -> np.ndarray:
        """The (B, K) float64 class probabilities of a (B, d) chunk of
        unit-norm image embeddings, each row from that image's logits
        averaged over its context blocks. Each row equals scoring its
        image alone, bit for bit."""
        b, k = image_embs.shape[0], len(self.classes)
        if self.mode == "wgm":
            embs = np.broadcast_to(self._wgm_embs,
                                   (b, *self._wgm_embs.shape))
        else:
            gan = self.gan
            if gan is None:
                raise ValueError(
                    "no trained generator; run stage 2 or use wgm")
            zs = self._zs
            m = zs.shape[0]
            # (B, M, .) blocks: each image's M-row product runs alone
            contexts = generator_forward(
                gan, np.broadcast_to(zs, (b, *zs.shape)),
                np.repeat(image_embs[:, None, :], m, axis=1))
            # every image's M*K pooled rows in one encode; each image's
            # rows alone would be a multi-row product too (K >= 2)
            embs = self._class_embeddings(
                contexts.reshape(b * m, gan.n_rows, gan.d_tok)).reshape(
                b, m * k, -1)
        # a stack of 1 x d by d x 1 products, each rounding like a lone
        # w @ x.T; one (M*K, d) @ (d, 1) product rounds differently
        logits = np.matmul(embs[:, :, None, :],
                           image_embs[:, None, :, None]).reshape(
            b, -1, k).astype(np.float64) / self.tau
        return _softmax(logits.mean(axis=1))


def _domain_row(model: InferenceModel, ds: DomainDataset,
                target_domain: int) -> dict:
    """One report row; each image gets its most probable class, and an
    exact tie goes to the lowest class index (``np.argmax``'s rule).
    Raises ValueError if any probability row is not finite, as a
    diverged generator's are, rather than let argmax pick class 0."""
    idx = ds.domain_indices(target_domain)
    name = dict(ds.domains)[target_domain]
    embs = encode_image(model.enc, ds.features[idx])
    probs = np.concatenate([model.predict_from_emb(embs[i:i + SCORE_CHUNK])
                            for i in range(0, embs.shape[0], SCORE_CHUNK)])
    bad = int(np.count_nonzero(~np.isfinite(probs).all(axis=1)))
    if bad:
        raise ValueError(f"domain {name}: {bad} of {len(probs)} probability "
                         f"rows are not finite")
    acc, f1 = accuracy_and_macro_f1(ds.class_ids[idx],
                                    np.argmax(probs, axis=1),
                                    len(model.classes))
    return {"target_domain": name, "domain_id": int(target_domain),
            "accuracy": acc, "macro_f1": f1, "n": int(idx.size)}


def evaluate(model: InferenceModel, ds: DomainDataset, target_domain: int,
             protocol: str = "leave-one-out", seed: int = 0,
             fingerprint: str = "") -> EvalReport:
    """Score one held-out domain; verifies nothing trainable moved."""
    if target_domain not in dict(ds.domains):
        raise ValueError(f"unknown domain {target_domain}")
    before = model.state_digest()
    row = _domain_row(model, ds, target_domain)
    after = model.state_digest()
    if before != after:
        raise RuntimeError("evaluation mutated model parameters")
    return EvalReport(protocol=protocol, seed=seed, config_hash=fingerprint,
                      rows=[row])


def dataset_from_config(cfg: ExperimentConfig) -> DomainDataset:
    if cfg.dataset_path:
        return load_dataset(cfg.dataset_path)
    return gen_dataset(cfg.classes, cfg.n_domains, cfg.shots,
                       cfg.feature_dim, cfg.shift_strength,
                       seed=cfg.seed_data, family=cfg.family)


def leave_one_domain_out(cfg: ExperimentConfig,
                         ds: DomainDataset | None = None) -> list[EvalReport]:
    """Train with each domain held out in turn and score it; one report
    per target domain."""
    validate_config(cfg)
    if ds is None:
        ds = dataset_from_config(cfg)
    if len(ds.domains) < 2:
        raise ValueError("leave-one-domain-out needs at least two domains")
    fingerprint = config_hash(cfg)
    reports = []
    for did, _ in ds.domains:
        trainer = FederatedTrainer(cfg, ds, target_domain=did)
        trainer.run_all()
        model = InferenceModel.from_trainer(trainer)
        reports.append(evaluate(model, ds, did, protocol="leave-one-out",
                                seed=cfg.seed_data, fingerprint=fingerprint))
    return reports


def cross_dataset(source_cfg: ExperimentConfig,
                  target_cfg: ExperimentConfig) -> EvalReport:
    """Train on every domain of the source dataset, score every domain of
    the target dataset zero-shot (class tokens from target names).

    Transfer needs class centroids shared by both datasets; for generated
    data that means the same seed and family, and a warning goes to
    stderr when their provenance says otherwise."""
    validate_config(source_cfg)
    validate_config(target_cfg)
    src = dataset_from_config(source_cfg)
    tgt = dataset_from_config(target_cfg)
    if src.feature_dim != tgt.feature_dim:
        raise ValueError(
            f"dimensional mismatch: source feature_dim {src.feature_dim} "
            f"!= target feature_dim {tgt.feature_dim}")
    a, b = (ds.provenance.get("synthetic", {}) for ds in (src, tgt))
    differ = [f"{k} {a.get(k)!r} vs {b.get(k)!r}" for k in ("seed", "family")
              if a.get(k) != b.get(k)]
    if differ:
        print(f"warning: source and target data differ in {', '.join(differ)}; "
              f"transfer needs shared class centroids", file=sys.stderr)
    trainer = FederatedTrainer(source_cfg, src, target_domain=None)
    trainer.run_all()
    model = InferenceModel.from_trainer(trainer, classes=tgt.classes)
    fingerprint = config_hash(source_cfg)
    return merge_reports(
        evaluate(model, tgt, did, protocol="cross-dataset",
                 seed=source_cfg.seed_data, fingerprint=fingerprint)
        for did, _ in tgt.domains)
