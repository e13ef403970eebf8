"""Config serialization, layering, validation, and fingerprint tests."""

import dataclasses
from pathlib import Path

import pytest

from fdglab import config as cf


def test_defaults_mirror_reference_recipe():
    cfg = cf.ExperimentConfig()
    assert cfg.m1 == 4 and cfg.m2 == 4
    assert cfg.batch_size == 32
    assert cfg.lr_prompt == 1e-5
    assert cfg.lr_gan == 1e-4
    assert cfg.weight_decay == 2e-5
    assert cfg.epochs == 100
    assert cfg.epochs_per_round == 1.0
    assert cfg.alpha == 0.2
    assert cf.paper_profile() == cfg


def test_desk_preset_valid_and_small():
    cfg = cf.desk_preset()
    cf.validate_config(cfg)
    assert (cfg.classes, cfg.n_domains, cfg.shots, cfg.n_clients) == (5, 4, 16, 3)
    assert cfg.shift_strength == 0.8


def test_save_load_round_trip(tmp_path):
    cfg = cf.desk_preset()
    cfg.prompt_mode = "csp"
    cfg.alpha = 0.7
    path = cf.save_config(cfg, tmp_path / "exp.cfg")
    back = cf.load_config(path)
    assert back == cfg


def test_load_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\nepochs = 4\n   \n# tail\nalpha = 0.5\n")
    cfg = cf.load_config(path)
    assert cfg.epochs == 4 and cfg.alpha == 0.5
    assert cfg.m1 == cf.ExperimentConfig().m1  # untouched default


def test_load_layering_on_base(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = 4\n")
    cfg = cf.load_config(path, base=cf.desk_preset())
    assert cfg.epochs == 4
    assert cfg.tau == cf.desk_preset().tau


def test_load_rejects_bad_files(tmp_path):
    cases = {
        "dup.cfg": "epochs = 4\nepochs = 5\n",
        "unknown.cfg": "nope = 1\n",
        "syntax.cfg": "epochs 4\n",
        "type.cfg": "epochs = soon\n",
        "retired_key.cfg": "g_loss_mode = nonsat\n",
        "retired_value.cfg": "z_policy = seeded-sample\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(cf.ConfigError):
            cf.load_config(path)


def test_apply_overrides_parses_and_revalidates():
    cfg = cf.apply_overrides(cf.desk_preset(), {"alpha": "0.5", "epochs": 10})
    assert cfg.alpha == 0.5 and cfg.epochs == 10
    assert cf.desk_preset().alpha == 0.2  # original untouched
    with pytest.raises(cf.ConfigError):
        cf.apply_overrides(cf.desk_preset(), {"alpha": "2.0"})
    with pytest.raises(cf.ConfigError):
        cf.apply_overrides(cf.desk_preset(), {"mystery": 1})


def test_validation_ranges():
    bad = {
        "classes": 1, "n_domains": 1, "shots": 0, "shift_strength": 1.5,
        "family": "gamma", "n_clients": 0, "overlap": -0.1,
        "prompt_mode": "full", "d": 1, "d_tok": 1, "tau": 0.0,
        "batch_size": 0, "lr_prompt": -1.0, "weight_decay": -1.0,
        "epochs": 0, "epochs_per_round": 0.25, "alpha": 1.5,
        "z_policy": "warm", "z_samples": 0,
    }
    for key, value in bad.items():
        cfg = cf.desk_preset()
        setattr(cfg, key, value)
        with pytest.raises(cf.ConfigError):
            cf.validate_config(cfg)


def test_non_finite_floats_rejected():
    floats = [f.name for f in dataclasses.fields(cf.ExperimentConfig)
              if f.type == "float"]
    assert "lr_prompt" in floats and "tau" in floats
    for key in floats:
        for raw in ("inf", "-inf", "nan"):
            with pytest.raises(cf.ConfigError, match=key):
                cf.apply_overrides(cf.desk_preset(), {key: raw})


def test_epochs_divisibility_contract():
    cfg = cf.desk_preset()
    cfg.epochs, cfg.epochs_per_round = 3, 2.0
    with pytest.raises(cf.ConfigError, match="divisible"):
        cf.validate_config(cfg)
    cfg.epochs, cfg.epochs_per_round = 3, 0.5
    cf.validate_config(cfg)
    assert cf.n_rounds(cfg) == 6


def test_mode_specific_context_requirements():
    cfg = cf.desk_preset()
    cfg.prompt_mode, cfg.m1, cfg.m2 = "dsp", 0, 0
    with pytest.raises(cf.ConfigError):
        cf.validate_config(cfg)
    cfg.prompt_mode, cfg.m1, cfg.m2 = "csp", 0, 4
    with pytest.raises(cf.ConfigError):
        cf.validate_config(cfg)
    cfg.prompt_mode, cfg.m1, cfg.m2 = "hdp", 0, 0
    cf.validate_config(cfg)  # nothing trainable, nothing required


def test_config_text_is_canonical():
    text = cf.config_text(cf.desk_preset())
    names = [f.name for f in dataclasses.fields(cf.ExperimentConfig)]
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == names
    assert "lr_gan = 0.01" in text


def test_config_hash_frozen_oracles():
    # frozen fingerprints; a change here means every report fingerprint
    # in the wild changes meaning
    assert cf.config_hash(cf.ExperimentConfig()) == "e21b74e3ef1c92e1"
    assert cf.config_hash(cf.desk_preset()) == "8f3c8efbcb239a50"


def test_config_hash_sensitivity():
    base = cf.config_hash(cf.desk_preset())
    for key, value in (("alpha", 0.3), ("seed_noise", 1), ("out_dir", "x")):
        cfg = cf.desk_preset()
        setattr(cfg, key, value)
        assert cf.config_hash(cfg) != base
    again = cf.config_hash(cf.desk_preset())
    assert again == base


def test_example_config_is_the_desk_preset(tmp_path):
    example = Path(__file__).resolve().parent.parent / "docs" / "example.cfg"
    saved = cf.save_config(cf.desk_preset(), tmp_path / "desk.cfg")
    assert example.read_bytes() == saved.read_bytes()
