"""Domain-specific soft prompts: assembly, prompt embeddings, and stage-1
training.

A prompt for class i in domain d is the row stack [v; u^d; cls_i]: shared
context v (m1 >= 1 rows, present in every mode), per-domain context u^d
(m2 rows, none under csp and hdp), frozen class token; the text encoder
reads a prompt only through its row-mean. Training scores a unit-norm
image embedding against each class prompt's text embedding by cosine
similarity over temperature tau and minimizes cross entropy of those
scores, updating only v and the touched u rows.

One training step builds, per domain in the batch, the K x d stack of its
class-prompt embeddings (one ``encode_text`` call), then scores the whole
batch with one cosine, one scale, one cross-entropy and one mean node;
each sample picks its domain's stack. The scoring nodes give the same
bits as scoring every sample on its own. The K-row ``encode_text`` call
need not: its matmuls usually round differently from K one-row calls in
the last float64 bits, and on rare inputs a float32 rounding flips (one
row of 4,500 in the stage 1 of a desk-preset fold, seed 3).

Prompt variants:
  dsp  full prompt [v; u^d; cls], two-stage pipeline
  csp  shared context only [v; cls], no domain-specific rows
  wgm  same parameters as dsp but no generator stage downstream
  hdp  fixed hand-written template as a frozen v, no stage 1; stage 2
       still trains a federated GAN on a bank of template rows
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

HDP_WORDS = ("a", "photo", "of", "a")


@dataclass
class DspParams:
    """Prompt contexts for one client: v (m1 rows) always, u^d (m2 rows)
    per held domain when m2 > 0; hdp's v is the frozen template."""

    m1: int
    m2: int
    v: nc.Tensor
    u: dict[int, nc.Tensor] = field(default_factory=dict)

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 0:
            raise ValueError("a prompt needs m1 >= 1 and m2 >= 0")

    def named(self) -> dict[str, nc.Tensor]:
        """Aggregation names of the trainable tensors: 'v' and
        'u/<domain_id>'. A frozen v is not listed."""
        out = {}
        if self.v.requires_grad:
            out["v"] = self.v
        for d in sorted(self.u):
            out[f"u/{d}"] = self.u[d]
        return out

    def context_parts(self, domain: int) -> list[nc.Tensor]:
        """The context blocks [v, u^domain]; just [v] when m2 is 0."""
        parts = [self.v]
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
                       d_tok: int = 32, seed: int = 0,
                       table: TokenTable | None = None) -> DspParams:
    """Initialized contexts for one client holding the given domains.

    Gaussian init std 0.02; all clients share the init for a given seed,
    which matches a server-broadcast starting point. Under hdp, v is the
    frozen template rows of ``table`` and m1, m2 and seed are unused.
    """
    if mode not in PROMPT_MODES:
        raise ValueError(f"unknown prompt mode {mode!r}, options: {PROMPT_MODES}")
    if mode == "hdp":
        if table is None:
            raise ValueError("hdp needs the token table for its template")
        rows = np.concatenate([table.row(w) for w in HDP_WORDS], axis=0)
        return DspParams(m1=len(HDP_WORDS), m2=0, v=nc.Tensor(rows))
    if mode == "csp":
        m2 = 0
    rng_v = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_V)))
    v = nc.Tensor(rng_v.normal(0.0, INIT_STD, (m1, d_tok)).astype(np.float32),
                  requires_grad=True)
    u = {}
    if m2 > 0:
        for d in sorted(set(domains)):
            rng_u = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_U, d)))
            u[int(d)] = nc.Tensor(
                rng_u.normal(0.0, INIT_STD, (m2, d_tok)).astype(np.float32),
                requires_grad=True)
    return DspParams(m1=m1, m2=m2, v=v, u=u)


def similarity_logits(g: nc.Graph, prompt_embs, image_embs: nc.Tensor,
                      tau: float, pick=None) -> nc.Tensor:
    """B x K logits: cosine(row k of stack pick[i], image row i) / tau.

    prompt_embs is one K x d stack or a list of them (see
    ``nc.cosine_sim``); image_embs is B x d.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    return nc.scale(g, nc.cosine_sim(g, prompt_embs, image_embs, pick), 1.0 / tau)


def prompt_embeddings(g: nc.Graph, enc: FrozenEncoders, context,
                      class_tokens) -> nc.Tensor:
    """K x d text embeddings of the mean-pooled [context; cls_k], one row
    per class token.

    Stage 1 only: context is a client's [v, u^d] row blocks, and the
    gradient reaches them through the tape. Each prompt is pooled on its
    own (``nc.row_mean``) and the K pooled rows go through one
    ``encode_text`` call. Inference pools its prompts outside the tape
    (``evalhub.InferenceModel``).
    """
    pooled = [nc.row_mean(g, nc.concat(g, [*context, cls])) for cls in class_tokens]
    return encode_text(g, enc, nc.concat(g, pooled))


def dsp_train_step(p: DspParams, batch, enc: FrozenEncoders, table: TokenTable,
                   classes, opt, tau: float = TAU_DEFAULT) -> float:
    """One optimizer step on v and the u rows touched by the batch.

    batch: sequence of (domain_id, class_id, image_embedding) with
    unit-norm embeddings. Returns the pre-step mean cross entropy.
    Each domain present in the batch gets one K x d prompt-embedding
    stack; the whole batch is then scored by one cosine, one scale, one
    cross-entropy and one mean node on a single tape.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("empty batch")
    g = nc.Graph()
    domains = sorted({d for d, _, _ in batch})
    slot = {d: i for i, d in enumerate(domains)}
    tokens = [class_token(table, name) for name in classes]
    stacks = [prompt_embeddings(g, enc, p.context_parts(d), tokens)
              for d in domains]
    imgs = nc.Tensor(np.array([e for _, _, e in batch], dtype=np.float32)
                     .reshape(len(batch), -1))
    logits = similarity_logits(g, stacks, imgs, tau,
                               pick=[slot[d] for d, _, _ in batch])
    losses = nc.softmax_cross_entropy(g, logits, [y for _, y, _ in batch])
    total = nc.row_mean(g, losses)
    params = [p.v] + [p.u[d] for d in domains if d in p.u]
    nc.reset_grads(params)
    nc.backward(g, total)
    opt.step(params)
    return total.item()
