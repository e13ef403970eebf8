"""Frozen dual encoder and token table.

A stand-in for a pretrained vision-language encoder pair at desk scale:
an image encoder f mapping raw feature vectors to unit-norm embeddings,
a text encoder g mapping token-row sequences to the same space, and a
token table assigning every name a fixed embedding row. All weights are
drawn once from a seeded Gaussian and never trained; gradients flow only
into the text encoder's *input* (that is how prompt tuning works).

Both encoders run through the numcore ops, so tape and inference paths
share one set of numerics.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import numcore as nc

# substream ids under the model seed
_STREAM_IMAGE = 1
_STREAM_TEXT = 2
_STREAM_TOKENS = 3


def _gaussian(seed_seq: np.random.SeedSequence, rows: int, cols: int) -> nc.Tensor:
    """Frozen weight matrix, std 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed_seq)
    w = rng.normal(0.0, 1.0 / np.sqrt(rows), (rows, cols)).astype(np.float32)
    return nc.Tensor(w, requires_grad=False)


class FrozenEncoders:
    """Image net (feature_dim -> d -> d) and text net (d_tok -> d -> d),
    both tanh-hidden and l2-normalized at the output, weights frozen."""

    def __init__(self, feature_dim: int, d: int = 32, d_tok: int | None = None,
                 seed: int = 0):
        if feature_dim < 1 or d < 1:
            raise ValueError("feature_dim and d must be positive")
        self.feature_dim = int(feature_dim)
        self.d = int(d)
        self.d_tok = int(d_tok) if d_tok is not None else int(d)
        self.seed = int(seed)
        img = np.random.SeedSequence((self.seed, _STREAM_IMAGE)).spawn(2)
        txt = np.random.SeedSequence((self.seed, _STREAM_TEXT)).spawn(2)
        self.w_img1 = _gaussian(img[0], self.feature_dim, self.d)
        self.w_img2 = _gaussian(img[1], self.d, self.d)
        self.w_txt1 = _gaussian(txt[0], self.d_tok, self.d)
        self.w_txt2 = _gaussian(txt[1], self.d, self.d)

    def weights(self) -> list[nc.Tensor]:
        return [self.w_img1, self.w_img2, self.w_txt1, self.w_txt2]

    def checksum(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        for w in self.weights():
            h.update(w.data.tobytes())
        return h.hexdigest()


def encode_image(enc: FrozenEncoders, features: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings for a (B, feature_dim) batch of raw features."""
    x = np.asarray(features, dtype=np.float32)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != enc.feature_dim:
        raise nc.ShapeError(
            f"encode_image wants (B, {enc.feature_dim}), got {x.shape}")
    g = nc.Graph()
    h = nc.tanh(g, nc.matmul(g, nc.Tensor(x), enc.w_img1))
    return nc.l2_normalize(g, nc.matmul(g, h, enc.w_img2)).data


def encode_text(g: nc.Graph, enc: FrozenEncoders, tokens: nc.Tensor) -> nc.Tensor:
    """Mean-pool token rows, apply the frozen text net, l2-normalize.

    Differentiable w.r.t. tokens; this is the path prompt gradients take.
    """
    if tokens.rows < 1:
        raise nc.ShapeError("encode_text needs at least one token row")
    if tokens.cols != enc.d_tok:
        raise nc.ShapeError(
            f"encode_text wants rows of width {enc.d_tok}, got {tokens.shape}")
    pooled = nc.row_mean(g, tokens)
    h = nc.tanh(g, nc.matmul(g, pooled, enc.w_txt1))
    return nc.l2_normalize(g, nc.matmul(g, h, enc.w_txt2))


class TokenTable:
    """Deterministic name -> embedding-row table.

    Each row is drawn from an RNG seeded by (table seed, 64-bit hash of
    the name), so the mapping is stable across processes and platforms
    and distinct names collide with negligible probability. Rows are
    cached on first access.
    """

    def __init__(self, d_tok: int, seed: int = 0):
        if d_tok < 1:
            raise ValueError("d_tok must be positive")
        self.d_tok = int(d_tok)
        self.seed = int(seed)
        self._rows: dict[str, np.ndarray] = {}

    def row(self, name: str) -> np.ndarray:
        if not name:
            raise ValueError("empty token name")
        cached = self._rows.get(name)
        if cached is None:
            h = int.from_bytes(
                hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "big")
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, _STREAM_TOKENS, h)))
            cached = rng.normal(0.0, 1.0, (1, self.d_tok)).astype(np.float32)
            cached.setflags(write=False)
            self._rows[name] = cached
        return cached

    def checksum(self) -> str:
        """Digest of every materialized row, sorted by name.

        Invariant under training as long as the set of accessed names is
        fixed; materialize all names first when comparing snapshots.
        """
        h = hashlib.blake2b(digest_size=16)
        for name in sorted(self._rows):
            h.update(name.encode("utf-8"))
            h.update(self._rows[name].tobytes())
        return h.hexdigest()


def class_token(table: TokenTable, name: str) -> nc.Tensor:
    """Frozen 1 x d_tok embedding of a class name."""
    return nc.Tensor(table.row(name), requires_grad=False)
