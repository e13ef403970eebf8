"""Command-line experiment runner.

Subcommands: gen-data (synthesize a dataset to disk), train (one federated
run, checkpoints plus JSONL log), eval (leave-one-domain-out, cross-dataset,
or scoring a saved checkpoint), sweep (one axis, long-format CSV), report
(merge CSVs). Every run is reproducible from its config, so re-running any
command with the same settings rewrites byte-identical outputs.

Settings resolve in three layers: a profile (desk preset, or the reference
recipe under --paper-profile), then values from --config FILE, then
individual flags; later layers win. --seed N sets the data/model/noise
seeds together; the per-seed flags still override it. The output directory
comes from --out, else $FDSPG_OUT, else the config's out_dir.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

from . import config as cf
from . import datagen as dg
from . import evalhub as ev
from .fed import (SERVER_SENDER, FederatedTrainer, FedError, ParamMessage,
                  load_message, save_message)

OUT_ENV = "FDSPG_OUT"

SWEEP_AXES = {
    "alpha": "alpha",
    "epochs-per-round": "epochs_per_round",
    "clients": "n_clients",
    "shots": "shots",
    "overlap": "overlap",
    "prompt-mode": "prompt_mode",
}

SWEEP_COLUMNS = ("axis_value", "target_domain", "accuracy", "macro_f1")

_SEED_FIELDS = ("seed_data", "seed_model", "seed_noise")


class CliError(Exception):
    """Bad invocation or refused overwrite; message is user-facing."""


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value config file")
    parser.add_argument("--paper-profile", action="store_true",
                        help="start from the reference recipe instead of "
                             "the desk preset")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="set seed_data, seed_model, and seed_noise")
    parser.add_argument("--out", metavar="DIR",
                        help=f"output directory (else ${OUT_ENV}, else the "
                             "config's out_dir)")
    group = parser.add_argument_group("config field overrides")
    for f in dataclasses.fields(cf.ExperimentConfig):
        names = [f"--{f.name.replace('_', '-')}"]
        if f.name == "n_domains":
            names.append("--domains")
        group.add_argument(*names, dest=f"cfg_{f.name}", metavar="V",
                           help=argparse.SUPPRESS)


def build_config(args) -> cf.ExperimentConfig:
    cfg = cf.paper_profile() if args.paper_profile else cf.desk_preset()
    if args.config:
        cfg = cf.load_config(args.config, base=cfg)
    overrides = {}
    if args.seed is not None:
        overrides.update({k: args.seed for k in _SEED_FIELDS})
    for f in dataclasses.fields(cf.ExperimentConfig):
        raw = getattr(args, f"cfg_{f.name}", None)
        if raw is not None:
            overrides[f.name] = raw
    return cf.apply_overrides(cfg, overrides) if overrides else cfg


def resolve_out(args, cfg: cf.ExperimentConfig) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(OUT_ENV)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _claim_dir(path: Path, force: bool, marker: str | None = None) -> Path:
    """Create a fresh run directory, refusing to clobber without --force.
    With a ``marker`` file name, --force replaces only a directory that
    holds that file; any other non-empty directory is refused."""
    if path.exists() and any(path.iterdir()):
        if not force:
            raise CliError(f"{path} already exists; pass --force to replace it")
        if marker and not (path / marker).is_file():
            raise CliError(f"{path} is not empty and holds no {marker}; "
                           f"refusing to replace it")
        shutil.rmtree(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _claim_file(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise CliError(f"{path} already exists; pass --force to replace it")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    cfg = build_config(args)
    ds = dg.gen_dataset(cfg.classes, cfg.n_domains, cfg.shots,
                        cfg.feature_dim, cfg.shift_strength,
                        seed=cfg.seed_data, family=cfg.family)
    out = resolve_out(args, cfg) / "datasets" / f"{ds.name}-seed{cfg.seed_data}"
    if args.dest:
        out = Path(args.dest)
    _claim_dir(out, args.force, marker="manifest.json")
    dg.save_dataset(ds, out)
    print(f"wrote {ds.n_samples} samples ({cfg.n_domains} domains x "
          f"{cfg.classes} classes x {cfg.shots} shots) to {out}")
    return 0


def _run_dir_name(cfg: cf.ExperimentConfig, holdout: int | None) -> str:
    name = cf.config_hash(cfg)
    if holdout is not None:
        name += f"_h{holdout}"
    return name


def cmd_train(args) -> int:
    cfg = build_config(args)
    out = resolve_out(args, cfg)
    run_dir = _claim_dir(out / "train" / _run_dir_name(cfg, args.holdout),
                         args.force)
    ds = ev.dataset_from_config(cfg)
    trainer = FederatedTrainer(cfg, ds, target_domain=args.holdout)
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir()

    def checkpoint(tr: FederatedTrainer, dist) -> None:
        entry = tr.log[-1]
        msg = ParamMessage(sender=SERVER_SENDER, round=entry["round"],
                           entries=tr.server_entries())
        save_message(msg, ckpt_dir / f"s{entry['stage']}_r{entry['round']:04d}.msg")

    trainer.run_all(checkpoint)
    cf.save_config(cfg, run_dir / "config.txt")
    with open(run_dir / "log.jsonl", "w") as fh:
        for entry in trainer.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    save_message(ParamMessage(sender=SERVER_SENDER,
                              round=max(trainer.agg_events - 1, 0),
                              entries=trainer.server_entries()),
                 run_dir / "final.msg")
    stages = {e["stage"] for e in trainer.log}
    print(f"trained {cfg.prompt_mode} for {trainer.agg_events} rounds "
          f"(stages {sorted(stages)}) -> {run_dir}")
    return 0


def _eval_reports(args, cfg: cf.ExperimentConfig) -> tuple[str, list[ev.EvalReport]]:
    if args.holdout is not None and not args.checkpoint:
        raise CliError("--holdout applies only with --checkpoint")
    if args.target and args.protocol != "cross-dataset":
        raise CliError("--target applies only with --protocol cross-dataset")
    if args.checkpoint and args.protocol is not None:
        raise CliError(f"--checkpoint cannot be combined with "
                       f"--protocol {args.protocol}")
    if args.checkpoint:
        ds = ev.dataset_from_config(cfg)
        trainer = FederatedTrainer(cfg, ds, target_domain=args.holdout)
        trainer.apply_checkpoint(load_message(args.checkpoint).entries)
        model = ev.InferenceModel.from_trainer(trainer)
        domains = ([args.holdout] if args.holdout is not None
                   else [d for d, _ in ds.domains])
        fingerprint = cf.config_hash(cfg)
        reports = [ev.evaluate(model, ds, d, protocol="checkpoint",
                               seed=cfg.seed_data, fingerprint=fingerprint)
                   for d in domains]
        return "checkpoint", reports
    if args.protocol == "cross-dataset":
        if not args.target:
            raise CliError("cross-dataset needs --target DATASET_DIR")
        target_cfg = dataclasses.replace(cfg, dataset_path=args.target)
        return "cross-dataset", [ev.cross_dataset(cfg, target_cfg)]
    return "leave-one-out", ev.leave_one_domain_out(cfg)


def cmd_eval(args) -> int:
    cfg = build_config(args)
    out = resolve_out(args, cfg)
    protocol, reports = _eval_reports(args, cfg)
    run_dir = _claim_dir(
        out / "eval" / f"{protocol}_{_run_dir_name(cfg, args.holdout)}",
        args.force)
    ev.write_report_csv(reports, run_dir / "report.csv")
    ev.write_report_json(reports, run_dir / "report.json")
    merged = ev.merge_reports(reports)
    print(f"{protocol}: accuracy {merged.accuracy:.4f} "
          f"macro_f1 {merged.macro_f1:.4f} over {len(merged.rows)} target "
          f"domain(s) -> {run_dir}")
    return 0


def _sweep_value(payload) -> list[tuple[str, str, float, float]]:
    cfg_values, field_name, raw = payload
    cfg = cf.apply_overrides(cf.ExperimentConfig(**cfg_values), {field_name: raw})
    shown = cf._format_value(getattr(cfg, field_name))
    reports = ev.leave_one_domain_out(cfg)
    return [(shown, r.rows[0]["target_domain"], r.rows[0]["accuracy"],
             r.rows[0]["macro_f1"]) for r in reports]


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    if args.axis not in SWEEP_AXES:
        raise CliError(f"unknown axis {args.axis!r}; "
                       f"options: {', '.join(SWEEP_AXES)}")
    field_name = SWEEP_AXES[args.axis]
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise CliError("--values must name at least one value")
    for raw in values:  # validate every point before spending any compute
        point = cf.apply_overrides(cfg, {field_name: raw})
        ds = ev.dataset_from_config(point)
        for did, _ in ds.domains:  # the trainer refuses what the config allows
            FederatedTrainer(point, ds, target_domain=did)
    out = resolve_out(args, cfg)
    run_dir = _claim_dir(
        out / "sweep" / f"{args.axis}_{cf.config_hash(cfg)}", args.force)
    cf.save_config(cfg, run_dir / "base_config.txt")
    payloads = [(dataclasses.asdict(cfg), field_name, raw) for raw in values]

    csv_path = run_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        fh.flush()

        def flush_rows(rows):
            for shown, domain, acc, f1 in rows:
                fh.write(f"{shown},{domain},{acc!r},{f1!r}\n")
            fh.flush()

        if args.parallel <= 1:
            for payload in payloads:
                flush_rows(_sweep_value(payload))
        else:
            import concurrent.futures  # only parallel sweeps need a pool

            # flush in submission order, not completion order, so the
            # file bytes never depend on scheduling
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(args.parallel, len(payloads))) as pool:
                futures = [pool.submit(_sweep_value, p) for p in payloads]
                for fut in futures:
                    flush_rows(fut.result())
    print(f"swept {args.axis} over {len(values)} value(s) -> {csv_path}")
    return 0


def cmd_report(args) -> int:
    paths = [Path(p) for p in args.inputs]
    header = None
    rows = []
    for path in paths:
        lines = path.read_text().splitlines()
        if not lines:
            raise CliError(f"{path} is empty")
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            raise CliError(f"{path} has header {lines[0]!r}, "
                           f"expected {header!r}")
        rows.extend(lines[1:])
    out_path = _claim_file(Path(args.dest), args.force)
    out_path.write_text("\n".join([header] + rows) + "\n")
    print(f"merged {len(rows)} row(s) from {len(paths)} file(s) -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdglab",
        description="federated domain-generalization lab: synthetic data, "
                    "soft-prompt + GAN training, evaluation protocols")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset to disk")
    _add_config_flags(p)
    p.add_argument("--dest", metavar="DIR",
                   help="dataset directory (default under <out>/datasets)")
    p.add_argument("--force", action="store_true",
                   help="replace an existing output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run both federated training stages")
    _add_config_flags(p)
    p.add_argument("--holdout", type=int, metavar="D",
                   help="exclude this domain id from training")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    _add_config_flags(p)
    p.add_argument("--protocol", choices=("leave-one-out", "cross-dataset"),
                   help="default leave-one-out; not with --checkpoint")
    p.add_argument("--target", metavar="DIR",
                   help="target dataset directory for cross-dataset")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="score a saved checkpoint instead of training")
    p.add_argument("--holdout", type=int, metavar="D",
                   help="with --checkpoint: the domain the run held out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run one experiment per axis value")
    _add_config_flags(p)
    p.add_argument("--axis", required=True, metavar="AXIS",
                   help=f"one of: {', '.join(SWEEP_AXES)}")
    p.add_argument("--values", required=True, metavar="V1,V2,...")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="run up to N configurations concurrently")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="merge report CSVs")
    p.add_argument("dest", metavar="OUT_CSV")
    p.add_argument("inputs", nargs="+", metavar="CSV")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
