"""Domain-specific soft prompts: assembly, prompt embeddings, and stage-1
training.

A prompt for class i in domain d is the row stack [v; u^d; cls_i]: shared
context v, per-domain context u^d, frozen class token. Training scores a
unit-norm image embedding against each class prompt's text embedding by
cosine similarity over temperature tau and minimizes cross entropy of
those scores, updating only v and the touched u rows.

Prompt variants:
  dsp  full prompt [v; u^d; cls], two-stage pipeline
  csp  shared context only [v; cls], no domain-specific rows
  wgm  same parameters as dsp but no generator stage downstream
  hdp  fixed hand-written template, nothing trainable
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .encoder import FrozenEncoders, TokenTable, class_token, encode_text

TAU_DEFAULT = 0.01
INIT_STD = 0.02

PROMPT_MODES = ("dsp", "csp", "wgm", "hdp")

# substream ids under the model seed
_STREAM_V = 10
_STREAM_U = 11

_HDP_WORDS = ("a", "photo", "of", "a")


@dataclass
class DspParams:
    """Trainable prompt contexts for one client."""

    m1: int
    m2: int
    d_tok: int
    v: nc.Tensor | None
    u: dict[int, nc.Tensor] = field(default_factory=dict)

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("m1 and m2 must be >= 0")
        if self.m1 == 0 and self.m2 == 0:
            raise ValueError("prompt needs at least one context row")

    def trainables(self) -> list[nc.Tensor]:
        out = [self.v] if self.v is not None else []
        out.extend(self.u[d] for d in sorted(self.u))
        return out

    def named(self) -> dict[str, nc.Tensor]:
        """Aggregation names: 'v' and 'u/<domain_id>'."""
        out = {}
        if self.v is not None:
            out["v"] = self.v
        for d in sorted(self.u):
            out[f"u/{d}"] = self.u[d]
        return out

    def context_parts(self, domain: int) -> list[nc.Tensor]:
        """The context blocks [v, u^domain], skipping absent parts."""
        parts = [self.v] if self.v is not None else []
        if self.m2 > 0:
            if domain not in self.u:
                raise KeyError(f"no domain-specific context for domain {domain}")
            parts.append(self.u[domain])
        return parts

    def context_rows(self, domain: int) -> np.ndarray:
        """The (m1+m2, d_tok) context block [v; u^domain]; GAN real sample."""
        return np.concatenate([t.data for t in self.context_parts(domain)],
                              axis=0)


def make_prompt_params(mode: str, domains, m1: int = 4, m2: int = 4,
                       d_tok: int = 32, seed: int = 0) -> DspParams | None:
    """Initialized contexts for one client holding the given domains.

    Gaussian init std 0.02; all clients share the init for a given seed,
    which matches a server-broadcast starting point. Returns None for
    hdp (nothing to train).
    """
    if mode not in PROMPT_MODES:
        raise ValueError(f"unknown prompt mode {mode!r}, options: {PROMPT_MODES}")
    if mode == "hdp":
        return None
    if mode == "csp":
        m2 = 0
    rng_v = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_V)))
    v = nc.Tensor(rng_v.normal(0.0, INIT_STD, (m1, d_tok)).astype(np.float32),
                  requires_grad=True) if m1 > 0 else None
    u = {}
    if m2 > 0:
        for d in sorted(set(domains)):
            rng_u = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_U, d)))
            u[int(d)] = nc.Tensor(
                rng_u.normal(0.0, INIT_STD, (m2, d_tok)).astype(np.float32),
                requires_grad=True)
    return DspParams(m1=m1, m2=m2, d_tok=d_tok, v=v, u=u)


def assemble_prompt(g: nc.Graph, p: DspParams, domain: int,
                    cls: nc.Tensor) -> nc.Tensor:
    """Row stack [v; u^domain; cls] (skipping absent parts)."""
    return nc.concat(g, [*p.context_parts(domain), cls], axis=0)


def template_context_rows(table: TokenTable) -> np.ndarray:
    """The fixed template block (4, d_tok); hdp's stand-in for [v; u^d]."""
    return np.concatenate([table.row(w) for w in _HDP_WORDS], axis=0)


def similarity_logits(g: nc.Graph, prompt_embs: nc.Tensor,
                      image_emb: nc.Tensor, tau: float) -> nc.Tensor:
    """1 x K logits: cosine(row i of the K x d prompt_embs, image_emb) / tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return nc.scale(g, nc.cosine_sim(g, prompt_embs, image_emb), 1.0 / tau)


def prompt_embeddings(g: nc.Graph, enc: FrozenEncoders, context,
                      class_tokens) -> list[nc.Tensor]:
    """Text embedding of [context; cls] for each class token.

    context is a list of row blocks: a client's [v, u^d] in training (the
    gradient reaches them through the tape), a generated or averaged
    block at inference.
    """
    return [encode_text(g, enc, nc.concat(g, [*context, cls], axis=0))
            for cls in class_tokens]


def dsp_train_step(p: DspParams, batch, enc: FrozenEncoders, table: TokenTable,
                   classes, opt, tau: float = TAU_DEFAULT) -> float:
    """One optimizer step on v and the u rows touched by the batch.

    batch: sequence of (domain_id, class_id, image_embedding) with
    unit-norm embeddings. Returns the pre-step mean cross entropy.
    Prompt embeddings are computed and stacked once per domain present in
    the batch and shared across its samples on a single tape.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("empty batch")
    g = nc.Graph()
    domains = sorted({d for d, _, _ in batch})
    tokens = [class_token(table, name) for name in classes]
    embs_by_domain = {
        d: nc.concat(g, prompt_embeddings(g, enc, p.context_parts(d), tokens))
        for d in domains}
    losses = []
    for domain, label, emb in batch:
        img = nc.Tensor(np.asarray(emb, dtype=np.float32).reshape(1, -1))
        logits = similarity_logits(g, embs_by_domain[domain], img, tau)
        losses.append(nc.softmax_cross_entropy(g, logits, int(label)))
    total = nc.row_mean(g, nc.concat(g, losses, axis=0))
    params = ([p.v] if p.v is not None else []) + [
        p.u[d] for d in domains if d in p.u]
    nc.reset_grads(params)
    nc.backward(g, total)
    opt.step(params)
    return total.item()
