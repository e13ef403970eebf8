"""The three benchmark workloads and their output checks.

Each workload is a closed loop: one caller runs one operation at a time.
The workload seed sets seed_data, seed_model and seed_noise. Shapes are
the desk preset; ``tiny`` shapes exist only for the benchmark's
self-test.

* lodo_dsp   one leave-one-domain-out fold of the dsp pipeline, in
             process: trainer with domain 0 held out, stage 1, stage 2,
             inference model, evaluate. No disk I/O.
* train_hdp  ``fdglab train --prompt-mode hdp --holdout 0``: no stage 1,
             100 GAN rounds, one checkpoint per round plus final.msg.
* score_ckpt ``fdglab eval --checkpoint`` over all 4 domains, 128 shots,
             8 z draws: forward-only inference plus one checkpoint read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from fdglab import cli, config, evalhub, fed

# the acceptance gate's tiny_cfg shapes (tests/test_acceptance.py)
TINY_SHAPES = dict(classes=3, n_domains=3, shots=4, feature_dim=16,
                   n_clients=2, m1=2, m2=2, d=8, d_tok=8, gan_hidden=16,
                   z_dim=4, batch_size=8, epochs=2)


def _entries_digest(entries: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(entries):
        h.update(name.encode())
        h.update(np.ascontiguousarray(entries[name]).tobytes())
    return h.hexdigest()


def _flag_args(overrides: dict) -> list[str]:
    out = []
    for key, value in overrides.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fdglab {argv[0]} exited with {code}")


class Workload:
    """Base: config from seed and shapes, set-up, one operation, checks.

    ``run`` returns a dict of outputs, to which the caller adds the
    operation's ``trainer``; ``check`` returns a list of problems (empty
    when every output check passes). Checks that compare repeats keep
    the first operation's value as the reference. ``expected`` is the
    fingerprint recorded for this seed in golden.json, if any; every
    operation's fingerprint must then equal it.
    """

    name = ""
    overrides: dict = {}
    holdout: int | None = 0
    phases: tuple[str, ...] = ()  # phase metrics reported for this workload

    def __init__(self, seed: int, shapes: str, work: Path,
                 expected: dict | None = None):
        self.seed = seed
        self.expected = expected
        self.shape_overrides = TINY_SHAPES if shapes == "tiny" else {}
        self.work = work
        self.cfg = config.apply_overrides(config.desk_preset(), {
            "seed_data": seed, "seed_model": seed, "seed_noise": seed,
            **self.overrides, **self.shape_overrides})
        self._reference: dict[str, object] = {}

    def prepare(self) -> None:
        """Untimed fixture work, once per invocation."""

    def setup(self) -> None:
        """Dataset, encoders and trainer construction (timed as setup_s)."""
        ds = evalhub.dataset_from_config(self.cfg)
        fed.FederatedTrainer(self.cfg, ds, target_domain=self.holdout)

    def run(self, op_dir: Path) -> dict:
        raise NotImplementedError

    def fingerprint(self, out: dict) -> dict:
        """Outputs that are exact for a seed: a digest of the server state
        the operation ends with, and its held-out accuracy."""
        return {"server_entries": _entries_digest(out["trainer"].server_entries()),
                "heldout_acc": self.accuracy(out)}

    def check(self, out: dict, fingerprint: dict) -> list[str]:
        problems = self._same_as_first("fingerprint", fingerprint)
        if self.expected is not None and fingerprint != self.expected:
            problems.append(f"fingerprint {fingerprint} differs from the one "
                            f"recorded for seed {self.seed}: {self.expected}")
        return problems

    def accuracy(self, out: dict) -> float | None:
        """Mean held-out accuracy of the operation, if it scores any."""
        return None

    def _same_as_first(self, key: str, value) -> list[str]:
        first = self._reference.setdefault(key, value)
        return [] if first == value else [f"{key} differs from the first repeat"]

    def _cli_flags(self) -> list[str]:
        return ["--seed", str(self.seed)] + _flag_args(
            {**self.overrides, **self.shape_overrides})


class LodoDsp(Workload):
    name = "lodo_dsp"
    overrides = {"prompt_mode": "dsp"}
    phases = ("stage1_s", "stage2_s", "eval_s", "heldout_acc")

    def prepare(self) -> None:
        self.ds = evalhub.dataset_from_config(self.cfg)

    def run(self, op_dir: Path) -> dict:
        trainer = fed.FederatedTrainer(self.cfg, self.ds, target_domain=0)
        trainer.run_stage1()
        trainer.run_stage2()
        model = evalhub.InferenceModel.from_trainer(trainer)
        report = evalhub.evaluate(model, self.ds, 0, protocol="leave-one-out",
                                  seed=self.cfg.seed_data,
                                  fingerprint=config.config_hash(self.cfg))
        return {"report": report}

    def check(self, out: dict, fingerprint: dict) -> list[str]:
        trainer, report = out["trainer"], out["report"]
        problems = super().check(out, fingerprint)
        if trainer.lineage["target_samples"] != 0:
            problems.append("held-out domain leaked into training batches")
        # stage-1 entries hold one loss per client, stage-2 entries (d, g)
        losses = np.hstack([np.asarray(v, dtype=np.float64).ravel()
                            for e in trainer.log
                            for v in e["client_losses"].values()])
        if not np.isfinite(losses).all():
            problems.append("non-finite training loss")
        if len(trainer.log) != 2 * config.n_rounds(self.cfg):
            problems.append(f"{len(trainer.log)} rounds logged")
        want_n = self.cfg.classes * self.cfg.shots
        if [r["n"] for r in report.rows] != [want_n]:
            problems.append(f"report rows {report.rows} != one row of n={want_n}")
        problems += self._same_as_first("report", report.to_dict())
        return problems

    def accuracy(self, out: dict) -> float:
        return out["report"].accuracy


class TrainHdp(Workload):
    name = "train_hdp"
    overrides = {"prompt_mode": "hdp"}
    phases = ("stage2_s", "ckpt_s", "disk_mb")

    def run(self, op_dir: Path) -> dict:
        _run_cli(["train", "--holdout", "0", "--out", str(op_dir)]
                 + self._cli_flags())
        (run_dir,) = (op_dir / "train").iterdir()
        return {"run_dir": run_dir}

    def check(self, out: dict, fingerprint: dict) -> list[str]:
        run_dir = out["run_dir"]
        rounds = config.n_rounds(self.cfg)
        problems = super().check(out, fingerprint)
        lines = (run_dir / "log.jsonl").read_text().splitlines()
        if len(lines) != rounds:
            problems.append(f"{len(lines)} log lines, want {rounds}")
        files = sorted((run_dir / "checkpoints").iterdir()) + [run_dir / "final.msg"]
        if len(files) != rounds + 1:
            problems.append(f"{len(files)} checkpoint files, want {rounds + 1}")
        digests = [hashlib.blake2b(f.read_bytes(), digest_size=16).hexdigest()
                   for f in files]
        if "files" not in self._reference:
            # first repeat: every file must load back with a valid checksum;
            # later repeats must then be byte-identical to it
            for f in files:
                try:
                    fed.load_message(f)
                except fed.FedError as exc:
                    problems.append(f"{f.name}: {exc}")
        problems += self._same_as_first("files", digests)
        return problems


class ScoreCkpt(Workload):
    name = "score_ckpt"
    overrides = {"prompt_mode": "dsp", "shots": 128,
                 "z_policy": "mean-of-samples", "z_samples": 8}
    holdout = None
    phases = ("eval_s", "ckpt_s", "heldout_acc", "disk_mb")

    def prepare(self) -> None:
        # parameter values do not change eval cost: a 2-round training
        # yields a checkpoint of the evaluated shapes
        fixture = self.work / "fixture"
        _run_cli(["train", "--epochs", "2", "--out", str(fixture),
                  "--seed", str(self.seed)]
                 + _flag_args({"prompt_mode": "dsp", **self.shape_overrides}))
        (run_dir,) = (fixture / "train").iterdir()
        self.ckpt = run_dir / "final.msg"

    def run(self, op_dir: Path) -> dict:
        _run_cli(["eval", "--checkpoint", str(self.ckpt), "--out", str(op_dir)]
                 + self._cli_flags())
        (run_dir,) = (op_dir / "eval").iterdir()
        return {"run_dir": run_dir}

    @staticmethod
    def _rows(out: dict) -> list[dict]:
        report = json.loads((out["run_dir"] / "report.json").read_bytes())
        return [row for rep in report["reports"] for row in rep["rows"]]

    def check(self, out: dict, fingerprint: dict) -> list[str]:
        rows = self._rows(out)
        problems = super().check(out, fingerprint)
        want_n = self.cfg.classes * self.cfg.shots
        if [r["n"] for r in rows] != [want_n] * self.cfg.n_domains:
            problems.append(f"report rows n={[r['n'] for r in rows]}, "
                            f"want {self.cfg.n_domains} x {want_n}")
        problems += self._same_as_first(
            "report.json", (out["run_dir"] / "report.json").read_bytes())
        return problems

    def accuracy(self, out: dict) -> float:
        return float(np.mean([r["accuracy"] for r in self._rows(out)]))


WORKLOADS = {w.name: w for w in (LodoDsp, TrainHdp, ScoreCkpt)}
