"""Stage-2 conditional GAN over prompt contexts.

The generator maps [noise z, image embedding f(x)] to a full context
block (the rows that stage 1 learned as [v; u^d]); the discriminator
judges (context, image embedding) pairs. Training follows the usual
two-player objective with the image embedding as a continuous condition:
real pairs are a client's tuned context with an embedding from the
matching domain, fake pairs are generated contexts conditioned on
embeddings drawn from the client's own data.

The generator step uses the non-saturating loss by default; the literal
saturating form is available via g_loss_mode="saturating".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc

Z_DIM_DEFAULT = 16
HIDDEN_DEFAULT = 128

# substream ids under the model seed
_STREAM_G = 20
_STREAM_D = 21

G_LOSS_MODES = ("nonsat", "saturating")


def _layer(seed_seq, fan_in: int, fan_out: int) -> tuple[nc.Tensor, nc.Tensor]:
    rng = np.random.default_rng(seed_seq)
    w = nc.Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out))
                  .astype(np.float32), requires_grad=True)
    b = nc.Tensor(np.zeros((1, fan_out), dtype=np.float32), requires_grad=True)
    return w, b


class GanParams:
    """Generator (tanh hidden, linear out) and discriminator (relu hidden,
    single logit), both 2-hidden-layer MLPs of width h."""

    def __init__(self, n_rows: int, d_tok: int, d: int,
                 z_dim: int = Z_DIM_DEFAULT, h: int = HIDDEN_DEFAULT,
                 seed: int = 0):
        if min(n_rows, d_tok, d, z_dim, h) < 1:
            raise ValueError("all GanParams dimensions must be positive")
        self.n_rows = int(n_rows)
        self.d_tok = int(d_tok)
        self.d = int(d)
        self.z_dim = int(z_dim)
        self.h = int(h)
        self.seed = int(seed)
        flat = self.n_rows * self.d_tok
        gs = np.random.SeedSequence((self.seed, _STREAM_G)).spawn(3)
        ds = np.random.SeedSequence((self.seed, _STREAM_D)).spawn(3)
        self.g_layers = [
            _layer(gs[0], self.z_dim + self.d, h),
            _layer(gs[1], h, h),
            _layer(gs[2], h, flat),
        ]
        self.d_layers = [
            _layer(ds[0], flat + self.d, h),
            _layer(ds[1], h, h),
            _layer(ds[2], h, 1),
        ]

    def g_params(self) -> list[nc.Tensor]:
        return [t for pair in self.g_layers for t in pair]

    def d_params(self) -> list[nc.Tensor]:
        return [t for pair in self.d_layers for t in pair]

    def named(self) -> dict[str, nc.Tensor]:
        out = {}
        for i, (w, b) in enumerate(self.g_layers):
            out[f"G/l{i}.w"] = w
            out[f"G/l{i}.b"] = b
        for i, (w, b) in enumerate(self.d_layers):
            out[f"D/l{i}.w"] = w
            out[f"D/l{i}.b"] = b
        return out

    def checksum_g(self) -> bytes:
        return b"".join(t.data.tobytes() for t in self.g_params())

    def checksum_d(self) -> bytes:
        return b"".join(t.data.tobytes() for t in self.d_params())


def _mlp(g: nc.Graph, x: nc.Tensor, layers, hidden_act) -> nc.Tensor:
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        x = nc.add(g, nc.matmul(g, x, w), b)
        if i != last:
            x = hidden_act(g, x)
    return x


def generator_rows(g: nc.Graph, gan: GanParams, z: nc.Tensor,
                   image_emb: nc.Tensor) -> nc.Tensor:
    """Batched generator forward: (B, z_dim) x (B, d) -> (B, n_rows*d_tok)."""
    if z.cols != gan.z_dim or image_emb.cols != gan.d or z.rows != image_emb.rows:
        raise nc.ShapeError(
            f"generator wants (B,{gan.z_dim}) and (B,{gan.d}), "
            f"got {z.shape} and {image_emb.shape}")
    x = nc.concat(g, [z, image_emb], axis=1)
    return _mlp(g, x, gan.g_layers, nc.tanh)


def discriminator_logits(g: nc.Graph, gan: GanParams, flat_prompts: nc.Tensor,
                         image_emb: nc.Tensor) -> nc.Tensor:
    """Batched discriminator forward: (B, n_rows*d_tok) x (B, d) -> (B, 1)."""
    if flat_prompts.cols != gan.n_rows * gan.d_tok or image_emb.cols != gan.d:
        raise nc.ShapeError(
            f"discriminator wants (B,{gan.n_rows * gan.d_tok}) and (B,{gan.d}), "
            f"got {flat_prompts.shape} and {image_emb.shape}")
    x = nc.concat(g, [flat_prompts, image_emb], axis=1)
    return _mlp(g, x, gan.d_layers, nc.relu)


@dataclass
class RealPromptBank:
    """Stage-1 outputs frozen as GAN training data: per domain one tuned
    context block plus that domain's image embeddings."""

    contexts: dict[int, np.ndarray]  # domain -> (n_rows, d_tok)
    embeddings: dict[int, np.ndarray]  # domain -> (N_d, d)

    def __post_init__(self):
        if set(self.contexts) != set(self.embeddings):
            raise ValueError("contexts and embeddings must cover the same domains")
        if not self.contexts:
            raise ValueError("empty prompt bank")
        for d, ctx in self.contexts.items():
            ctx.setflags(write=False)
            self.embeddings[d].setflags(write=False)

    @property
    def domains(self) -> list[int]:
        return sorted(self.contexts)

    def all_embeddings(self) -> np.ndarray:
        return np.concatenate([self.embeddings[d] for d in self.domains], axis=0)

    def sample_batch(self, rng: np.random.Generator, batch_size: int):
        """(real contexts, matching-domain embeddings, fresh embeddings).

        Real pairs match a domain's tuned context with an embedding from
        the same domain; the fresh embeddings for the fake branch are
        drawn uniformly from all of the client's data.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        doms = self.domains
        picks = rng.integers(0, len(doms), batch_size)
        ctxs, embs = [], []
        for i in picks:
            d = doms[i]
            pool = self.embeddings[d]
            ctxs.append(self.contexts[d].reshape(1, -1))
            embs.append(pool[rng.integers(0, pool.shape[0])].reshape(1, -1))
        allpool = self.all_embeddings()
        fakes = allpool[rng.integers(0, allpool.shape[0], batch_size)]
        return (np.concatenate(ctxs, axis=0), np.concatenate(embs, axis=0),
                fakes.astype(np.float32))


def sample_z(rng: np.random.Generator, batch_size: int, z_dim: int) -> np.ndarray:
    return rng.standard_normal((batch_size, z_dim)).astype(np.float32)


def gan_train_step(gan: GanParams, real_contexts: np.ndarray,
                   real_embs: np.ndarray, fake_embs: np.ndarray,
                   rng: np.random.Generator, opt_g, opt_d,
                   g_loss_mode: str = "nonsat") -> tuple[float, float]:
    """One discriminator step then one generator step.

    real_contexts: (B, n_rows*d_tok) flattened tuned contexts;
    real_embs: (B, d) embeddings from the matching domains;
    fake_embs: (B, d) embeddings conditioning the generated contexts.
    Returns (d_loss, g_loss); d_loss sums the real and fake terms.
    """
    if g_loss_mode not in G_LOSS_MODES:
        raise ValueError(f"unknown g_loss_mode {g_loss_mode!r}")
    b = real_contexts.shape[0]
    if b < 1:
        raise ValueError("empty batch")
    if real_embs.shape[0] != b or fake_embs.shape[0] != b:
        raise ValueError("real/fake batch sizes must match")
    gp, dp = gan.g_params(), gan.d_params()

    # discriminator step; generated contexts enter as constants
    z = sample_z(rng, b, gan.z_dim)
    fake_rows = generator_rows(
        nc.Graph(), gan, nc.Tensor(z), nc.Tensor(fake_embs)).data
    g1 = nc.Graph()
    logit_real = discriminator_logits(
        g1, gan, nc.Tensor(real_contexts), nc.Tensor(real_embs))
    logit_fake = discriminator_logits(
        g1, gan, nc.Tensor(fake_rows), nc.Tensor(fake_embs))
    d_loss = nc.add(g1, nc.bce_with_logits(g1, logit_real, 1.0),
                    nc.bce_with_logits(g1, logit_fake, 0.0))
    nc.reset_grads(gp + dp)
    nc.backward(g1, d_loss)
    opt_d.step(dp)

    # generator step; discriminator participates but is not stepped
    z2 = sample_z(rng, b, gan.z_dim)
    g2 = nc.Graph()
    gen_rows = generator_rows(g2, gan, nc.Tensor(z2), nc.Tensor(fake_embs))
    logit_gen = discriminator_logits(g2, gan, gen_rows, nc.Tensor(fake_embs))
    if g_loss_mode == "nonsat":
        g_loss = nc.bce_with_logits(g2, logit_gen, 1.0)
    else:
        g_loss = nc.scale(g2, nc.bce_with_logits(g2, logit_gen, 0.0), -1.0)
    nc.reset_grads(gp + dp)
    nc.backward(g2, g_loss)
    opt_g.step(gp)
    return d_loss.item(), g_loss.item()
