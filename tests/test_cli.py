"""End-to-end CLI tests over tiny configurations."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdglab import cli
from fdglab import config as cf
from fdglab import datagen as dg
from fdglab.fed import SERVER_SENDER, load_message

TINY = ["--classes", "3", "--domains", "3", "--shots", "4",
        "--feature-dim", "16", "--n-clients", "2", "--m1", "2", "--m2", "2",
        "--d", "8", "--d-tok", "8", "--gan-hidden", "16", "--z-dim", "4",
        "--batch-size", "8", "--epochs", "2", "--seed", "0"]


def run(*argv):
    return cli.main(list(argv))


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    return env


def test_module_entry_runs_without_warnings(tmp_path):
    # an eager import of cli from the package made `-m fdglab.cli` warn,
    # and without __main__.py `-m fdglab` did not run at all
    for module in ("fdglab", "fdglab.cli"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "--help"], cwd=tmp_path, env=src_env(), capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "usage: fdglab" in proc.stdout


FOOTPRINT_SCRIPT = """
import json, sys
from pathlib import Path

from fdglab import cli, datagen as dg

out, tiny = Path(sys.argv[1]), sys.argv[2:]
assert cli.main(["train", *tiny, "--out", str(out), "--holdout", "0"]) == 0
final = next((out / "train").iterdir()) / "final.msg"
assert cli.main(["eval", *tiny, "--checkpoint", str(final),
                 "--holdout", "0", "--out", str(out)]) == 0
lazy = ("jsonschema", "numpy.ma", "concurrent.futures")
loaded = [m for m in lazy if m in sys.modules]
assert not loaded, f"train and eval loaded {loaded}"

root = dg.save_dataset(dg.gen_dataset(3, 3, 4, 16), out / "ds")
assert "jsonschema" not in sys.modules
dg.load_dataset(root)
assert "jsonschema" in sys.modules
manifest = json.loads((root / "manifest.json").read_text())
manifest["feature_dim"] = 0
(root / "manifest.json").write_text(json.dumps(manifest))
try:
    dg.load_dataset(root)
except dg.DatasetSchemaError as exc:
    assert "minimum of 1" in str(exc), exc
else:
    raise AssertionError("a feature_dim of 0 passed the manifest schema")
"""


def test_runs_load_only_the_modules_they_use(tmp_path):
    # a train and an eval --checkpoint validate no saved manifest, start no
    # process pool and call no np.unique, so neither may pay for jsonschema,
    # concurrent.futures or numpy.ma; a saved manifest is still validated
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path), *TINY],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# ---------------------------------------------------------------------------
# config assembly

def test_build_config_layering(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("epochs = 7\ntau = 0.25\n")
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--config", str(cfg_file),
                              "--tau", "0.5"])
    cfg = cli.build_config(args)
    assert cfg.epochs == 7          # file beats profile
    assert cfg.tau == 0.5           # flag beats file
    assert cfg.m1 == 2              # desk preset underneath

    args = parser.parse_args(["train", "--paper-profile"])
    cfg = cli.build_config(args)
    assert (cfg.epochs, cfg.lr_prompt, cfg.m1, cfg.tau) == (100, 1e-5, 4, 0.01)


def test_m1_zero_refused_except_under_hdp():
    parser = cli.build_parser()
    for mode in ("dsp", "csp", "wgm"):
        args = parser.parse_args(["train", "--prompt-mode", mode, "--m1", "0"])
        with pytest.raises(cf.ConfigError, match=f"{mode} needs m1 >= 1"):
            cli.build_config(args)
    args = parser.parse_args(["train", "--prompt-mode", "hdp", "--m1", "0"])
    assert cli.build_config(args).m1 == 0  # hdp ignores m1


def test_seed_flag_fans_out_and_yields():
    parser = cli.build_parser()
    cfg = cli.build_config(parser.parse_args(["train", "--seed", "9"]))
    assert (cfg.seed_data, cfg.seed_model, cfg.seed_noise) == (9, 9, 9)
    cfg = cli.build_config(parser.parse_args(
        ["train", "--seed", "9", "--seed-model", "4"]))
    assert (cfg.seed_data, cfg.seed_model, cfg.seed_noise) == (9, 4, 9)


def test_out_dir_resolution(tmp_path, monkeypatch):
    parser = cli.build_parser()
    cfg = cf.desk_preset()
    args = parser.parse_args(["train"])
    assert cli.resolve_out(args, cfg) == cli.Path(cfg.out_dir)
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "env"))
    assert cli.resolve_out(args, cfg) == tmp_path / "env"
    args = parser.parse_args(["train", "--out", str(tmp_path / "flag")])
    assert cli.resolve_out(args, cfg) == tmp_path / "flag"


def test_bad_config_value_is_fatal(tmp_path, capsys):
    assert run("train", "--tau", "-1", "--out", str(tmp_path)) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_and_guards(tmp_path, capsys):
    out = str(tmp_path)
    assert run("gen-data", *TINY, "--out", out) == 0
    root = next((tmp_path / "datasets").iterdir())
    ds = dg.load_dataset(root)
    assert ds.n_samples == 36
    assert run("gen-data", *TINY, "--out", out) == 1
    assert "--force" in capsys.readouterr().err
    assert run("gen-data", *TINY, "--out", out, "--force") == 0


def test_gen_data_reruns_byte_identical(tmp_path):
    assert run("gen-data", *TINY, "--dest", str(tmp_path / "a")) == 0
    assert run("gen-data", *TINY, "--dest", str(tmp_path / "b")) == 0
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# train

def test_train_run_layout(tmp_path):
    out = str(tmp_path)
    assert run("train", *TINY, "--out", out, "--holdout", "0") == 0
    run_dir = next((tmp_path / "train").iterdir())
    assert run_dir.name.endswith("_h0")
    log = [json.loads(l) for l in (run_dir / "log.jsonl").read_text().splitlines()]
    assert len(log) == 4  # 2 epochs x 2 stages, one round per epoch
    assert [e["stage"] for e in log] == [1, 1, 2, 2]
    assert all("client_losses" in e and "agg_norms" in e for e in log)
    ckpts = sorted((run_dir / "checkpoints").iterdir())
    assert [p.name for p in ckpts] == [
        "s1_r0000.msg", "s1_r0001.msg", "s2_r0002.msg", "s2_r0003.msg"]
    final = load_message(run_dir / "final.msg")
    assert final.sender == SERVER_SENDER
    assert final.round == 3
    assert "v" in final.entries and "G/l0.w" in final.entries
    cfg = cf.load_config(run_dir / "config.txt")
    assert cfg.epochs == 2


def test_train_hdp_has_no_prompt_rounds(tmp_path):
    assert run("train", *TINY, "--prompt-mode", "hdp",
               "--out", str(tmp_path)) == 0
    run_dir = next((tmp_path / "train").iterdir())
    log = [json.loads(l) for l in (run_dir / "log.jsonl").read_text().splitlines()]
    assert {e["stage"] for e in log} == {2}
    assert all(not any(n in ("v",) or n.startswith("u/")
                       for n in e["agg_norms"]) for e in log)


def test_train_epochs_per_round_halves_events(tmp_path):
    assert run("train", *TINY, "--out", str(tmp_path / "a")) == 0
    assert run("train", *TINY, "--epochs-per-round", "2",
               "--out", str(tmp_path / "b")) == 0
    n = len(next((tmp_path / "a" / "train").iterdir())
            .joinpath("log.jsonl").read_text().splitlines())
    half = len(next((tmp_path / "b" / "train").iterdir())
               .joinpath("log.jsonl").read_text().splitlines())
    assert n == 2 * half


def test_train_infeasible_partition_is_fatal(tmp_path, capsys):
    assert run("train", *TINY, "--n-clients", "5", "--out", str(tmp_path)) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

def test_eval_leave_one_out_outputs(tmp_path):
    out = str(tmp_path)
    assert run("eval", *TINY, "--out", out) == 0
    run_dir = next((tmp_path / "eval").iterdir())
    lines = (run_dir / "report.csv").read_text().splitlines()
    assert lines[0].startswith("protocol,target_domain")
    assert len(lines) == 4  # header + one row per domain
    payload = json.loads((run_dir / "report.json").read_text())
    assert len(payload["reports"]) == 3
    first = (run_dir / "report.csv").read_bytes()
    assert run("eval", *TINY, "--out", out) == 1  # refused without --force
    assert run("eval", *TINY, "--out", out, "--force") == 0
    assert (run_dir / "report.csv").read_bytes() == first


def test_eval_cross_dataset_needs_target(tmp_path, capsys):
    assert run("eval", *TINY, "--protocol", "cross-dataset",
               "--out", str(tmp_path)) == 1
    assert "--target" in capsys.readouterr().err


@pytest.mark.parametrize("flags, err", [
    (["--holdout", "0"], "--holdout applies only with --checkpoint"),
    (["--protocol", "cross-dataset", "--holdout", "0", "--target", "t"],
     "--holdout applies only with --checkpoint"),
    (["--target", "t"], "--target applies only with --protocol cross-dataset"),
    (["--checkpoint", "final.msg", "--protocol", "cross-dataset",
      "--target", "t"], "--checkpoint cannot be combined"),
    (["--checkpoint", "final.msg", "--protocol", "leave-one-out"],
     "--checkpoint cannot be combined with --protocol leave-one-out"),
])
def test_eval_refuses_ignored_flags(tmp_path, capsys, flags, err):
    assert run("eval", *TINY, *flags, "--out", str(tmp_path)) == 1
    assert err in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_eval_cross_dataset_runs(tmp_path):
    assert run("gen-data", *TINY, "--seed", "5",
               "--dest", str(tmp_path / "tgt")) == 0
    assert run("eval", *TINY, "--protocol", "cross-dataset",
               "--target", str(tmp_path / "tgt"),
               "--out", str(tmp_path / "out")) == 0
    run_dir = next((tmp_path / "out" / "eval").iterdir())
    lines = (run_dir / "report.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(l.startswith("cross-dataset,") for l in lines[1:])


def test_eval_cross_dataset_warns_without_shared_centroids(tmp_path, capsys):
    for family in ("alpha", "beta"):
        target = tmp_path / family
        assert run("gen-data", *TINY, "--family", family,
                   "--dest", str(target)) == 0
        capsys.readouterr()
        assert run("eval", *TINY, "--protocol", "cross-dataset",
                   "--target", str(target), "--out", str(target / "out")) == 0
        err = capsys.readouterr().err
        if family == "alpha":  # the source's own seed and family
            assert "warning" not in err
        else:
            assert "warning:" in err and "family 'alpha' vs 'beta'" in err
            assert "seed" not in err and "shared class centroids" in err


def test_eval_checkpoint_scores_saved_state(tmp_path):
    out = str(tmp_path)
    assert run("train", *TINY, "--out", out, "--holdout", "0") == 0
    final = next((tmp_path / "train").iterdir()) / "final.msg"
    assert run("eval", *TINY, "--checkpoint", str(final),
               "--holdout", "0", "--out", out) == 0
    run_dir = tmp_path / "eval" / next(
        p.name for p in (tmp_path / "eval").iterdir())
    lines = (run_dir / "report.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("checkpoint,domain_0,")


def test_eval_checkpoint_refuses_other_holdout(tmp_path, capsys):
    # trained without domain 2, so the checkpoint holds v, u/0 and u/1
    out = str(tmp_path)
    assert run("train", *TINY, "--prompt-mode", "wgm", "--out", out,
               "--holdout", "2") == 0
    final = str(next((tmp_path / "train").iterdir()) / "final.msg")
    capsys.readouterr()
    for holdout in ([], ["--holdout", "1"]):
        assert run("eval", *TINY, "--prompt-mode", "wgm", "--checkpoint",
                   final, *holdout, "--out", out) == 1
        err = capsys.readouterr().err
        assert "missing ['u/2']" in err and "--holdout" in err
    assert "unexpected ['u/1']" in err
    assert run("eval", *TINY, "--prompt-mode", "wgm", "--checkpoint", final,
               "--holdout", "2", "--out", out) == 0


# ---------------------------------------------------------------------------
# sweep and report

def test_sweep_unknown_axis_and_bad_value(tmp_path, capsys):
    assert run("sweep", *TINY, "--axis", "bogus", "--values", "1",
               "--out", str(tmp_path)) == 1
    assert "unknown axis" in capsys.readouterr().err
    assert run("sweep", *TINY, "--axis", "alpha", "--values", "0.2,7",
               "--out", str(tmp_path)) == 1
    assert "alpha" in capsys.readouterr().err
    # 0.5 passes the config check, but the trainer refuses a client whose
    # epoch is one batch; that too must stop the sweep before any run
    assert run("sweep", *TINY, "--axis", "epochs-per-round",
               "--values", "1,0.5", "--batch-size", "32",
               "--out", str(tmp_path)) == 1
    assert "two batches per epoch" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()  # validated before any run


def test_sweep_csv_layout_and_parallel_identity(tmp_path):
    argv = ["sweep", *TINY, "--axis", "prompt-mode", "--values", "csp,hdp"]
    assert run(*argv, "--out", str(tmp_path / "a")) == 0
    assert run(*argv, "--out", str(tmp_path / "b"), "--parallel", "2") == 0
    a = next((tmp_path / "a" / "sweep").iterdir()) / "sweep.csv"
    b = next((tmp_path / "b" / "sweep").iterdir()) / "sweep.csv"
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "axis_value,target_domain,accuracy,macro_f1"
    assert len(lines) == 1 + 2 * 3
    assert [l.split(",")[0] for l in lines[1:]] == ["csp"] * 3 + ["hdp"] * 3


def test_report_merges_and_validates(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,y\n1,2\n")
    b.write_text("x,y\n3,4\n")
    merged = tmp_path / "m.csv"
    assert run("report", str(merged), str(a), str(b)) == 0
    assert merged.read_text() == "x,y\n1,2\n3,4\n"
    assert run("report", str(merged), str(a)) == 1  # refuse overwrite
    assert run("report", str(merged), str(a), "--force") == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("p,q\n9,9\n")
    assert run("report", str(tmp_path / "m2.csv"), str(a), str(bad)) == 1
    assert "header" in capsys.readouterr().err
