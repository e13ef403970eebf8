"""Experiment configuration: one flat record describing a full run.

A run is reproducible from its ExperimentConfig alone, so the blake2b
hash of the canonical serialization fingerprints every emitted report.
Config files are a flat key = value format: one field per line, full-line
# comments and blank lines ignored, values typed by the field they set.
CLI flags override file values which override profile defaults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .datagen import FAMILIES
from .dsp import PROMPT_MODES, TAU_DEFAULT
from .promptgan import HIDDEN_DEFAULT, Z_DIM_DEFAULT

Z_POLICIES = ("fixed-zero", "mean-of-samples")


class ConfigError(ValueError):
    """Unknown key, unparseable value, or out-of-range setting."""


@dataclass
class ExperimentConfig:
    """Everything a run needs, training recipe included.

    Constructor defaults follow the reference recipe: batch 32, prompt
    Adam lr 1e-5, GAN AdamW lr 1e-4 with weight decay 2e-5, 100 epochs
    per stage, aggregation after every epoch, alpha 0.2. desk_preset()
    swaps in settings sized for seconds-long runs.
    """

    # data: synthesized unless dataset_path names a saved manifest dir
    dataset_path: str = ""
    classes: int = 5
    n_domains: int = 4
    shots: int = 16
    feature_dim: int = 64
    shift_strength: float = 0.8
    family: str = "alpha"
    seed_data: int = 0

    # federation
    n_clients: int = 3
    overlap: float = 0.0

    # model
    prompt_mode: str = "dsp"
    m1: int = 4
    m2: int = 4
    d: int = 32
    d_tok: int = 32
    tau: float = TAU_DEFAULT
    z_dim: int = Z_DIM_DEFAULT
    gan_hidden: int = HIDDEN_DEFAULT
    seed_model: int = 0

    # training
    batch_size: int = 32
    lr_prompt: float = 1e-5
    lr_gan: float = 1e-4
    weight_decay: float = 2e-5
    epochs: int = 100
    epochs_per_round: float = 1.0
    alpha: float = 0.2
    seed_noise: int = 0

    # inference
    z_policy: str = "mean-of-samples"
    z_samples: int = 8

    out_dir: str = "runs"


def desk_preset() -> ExperimentConfig:
    """Settings sized so a full leave-one-domain-out run takes seconds.

    The soft-prompt stage needs a warmer temperature and learning rate
    than the reference recipe at this scale: with tau 0.01 the logits
    saturate and training oscillates instead of converging, and lr 1e-5
    moves 0.02-std contexts too little in 100 epochs to matter. The GAN
    learning rate rises alike so the generator can track tuned contexts
    within the shortened run. Two prompt rows per group (not four) keep
    the class token from drowning in the mean-pooled text input at this
    encoder size, and the wider embedding gives the frozen backbone
    enough spread for cross-domain structure to survive. Inference takes
    the generator's conditional mode (z = 0) rather than sampling; at
    this scale z-averaging only blurs the generated contexts.
    """
    return ExperimentConfig(
        m1=2,
        m2=2,
        d=64,
        tau=0.05,
        lr_prompt=0.05,
        lr_gan=1e-2,
        z_policy="fixed-zero",
    )


def paper_profile() -> ExperimentConfig:
    """The reference recipe exactly as published (100-epoch stages)."""
    return ExperimentConfig()


def _fields() -> dict[str, type]:
    return {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


# dataclass fields carry string annotations under future-import semantics
_TYPES = {"int": int, "float": float, "str": str}


def parse_value(key: str, raw: str):
    """Parse a raw string for config field `key` into its typed value."""
    fields = _fields()
    if key not in fields:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _TYPES[fields[key]]
    raw = raw.strip()
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{key}: expected {kind.__name__}, got {raw!r}") from None


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization; also the fingerprint input."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.blake2b(config_text(cfg).encode(), digest_size=8).hexdigest()


def save_config(cfg: ExperimentConfig, path) -> Path:
    path = Path(path)
    path.write_text("# experiment config\n" + config_text(cfg))
    return path


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read a flat key = value file on top of `base` (or the defaults)."""
    cfg = dataclasses.replace(base) if base is not None else ExperimentConfig()
    seen = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        setattr(cfg, key, parse_value(key, raw))
    validate_config(cfg)
    return cfg


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """New config with `overrides` (raw strings or typed values) applied."""
    cfg = dataclasses.replace(cfg)
    for key, value in overrides.items():
        if isinstance(value, str):
            value = parse_value(key, value)
        elif key not in _fields():
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    def need(cond: bool, msg: str):
        if not cond:
            raise ConfigError(msg)

    for name, kind in _fields().items():
        if kind == "float":
            need(math.isfinite(getattr(cfg, name)), f"{name} must be finite")
    need(cfg.classes >= 2, "classes must be >= 2")
    need(cfg.n_domains >= 2, "n_domains must be >= 2")
    need(cfg.shots >= 1, "shots must be >= 1")
    need(cfg.feature_dim >= 2, "feature_dim must be >= 2")
    need(0.0 <= cfg.shift_strength <= 1.0, "shift_strength must be in [0, 1]")
    need(cfg.family in FAMILIES,
         f"family must be one of {sorted(FAMILIES)}")
    need(cfg.n_clients >= 1, "n_clients must be >= 1")
    need(0.0 <= cfg.overlap <= 1.0, "overlap must be in [0, 1]")
    need(cfg.prompt_mode in PROMPT_MODES,
         f"prompt_mode must be one of {PROMPT_MODES}")
    need(cfg.m1 >= 0 and cfg.m2 >= 0, "context lengths must be >= 0")
    if cfg.prompt_mode != "hdp":
        need(cfg.m1 >= 1, f"{cfg.prompt_mode} needs m1 >= 1 (the shared "
             "context v)")
    need(2 <= cfg.d <= 512, "d must be in [2, 512]")
    need(cfg.d_tok >= 2, "d_tok must be >= 2")
    need(cfg.tau > 0, "tau must be positive")
    need(cfg.z_dim >= 1, "z_dim must be >= 1")
    need(cfg.gan_hidden >= 1, "gan_hidden must be >= 1")
    need(cfg.batch_size >= 1, "batch_size must be >= 1")
    need(cfg.lr_prompt >= 0 and cfg.lr_gan >= 0, "learning rates must be >= 0")
    need(cfg.weight_decay >= 0, "weight_decay must be >= 0")
    need(cfg.epochs >= 1, "epochs must be >= 1")
    need(cfg.epochs_per_round == 0.5 or (
        cfg.epochs_per_round >= 1 and float(cfg.epochs_per_round).is_integer()),
        "epochs_per_round must be 0.5 or a positive integer")
    rounds = cfg.epochs / cfg.epochs_per_round
    need(abs(rounds - round(rounds)) < 1e-9,
         "epochs must be divisible by epochs_per_round")
    need(0.0 <= cfg.alpha <= 1.0, "alpha must be in [0, 1]")
    need(cfg.z_policy in Z_POLICIES,
         f"z_policy must be one of {Z_POLICIES}")
    need(cfg.z_samples >= 1, "z_samples must be >= 1")


def n_rounds(cfg: ExperimentConfig) -> int:
    return round(cfg.epochs / cfg.epochs_per_round)
