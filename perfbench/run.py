"""fdglab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload lodo_dsp --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src``. BLAS
is pinned to one thread before numpy loads, and the run refuses to start
if that is not possible. After an untimed fixture step, operations run
one at a time until ``--seconds`` would be exceeded (at least one). With
``--trace 0`` the operations carry only boundary probes and give the
end-to-end metrics, and the workload's set-up is timed for 1.5 s before
each of them and in the time left at the end; with ``--trace 1`` untraced and traced operations alternate,
and give the per-layer metrics and the tracing overhead. At the desk
shapes every operation's outputs must also match those recorded for its
seed in ``golden.json`` (made by ``golden.py``), when that file was made
on the same CPU model and numpy/BLAS build.

Standard output holds a table of every metric with its unit, then, as the
last line, one JSON object: correct, attempted, failed and metrics (the
``end_to_end`` metrics of BENCHMARK.json with --trace 0, the ``per_layer``
ones with --trace 1). Environment, phase metrics and, when traced, every
span are written to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# the environment facts a recorded fingerprint is only valid under
GOLDEN_ENV_KEYS = ("cpu", "numpy", "blas")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BATCH_S = 1.5  # set-up time sampled before each untraced operation

# units of the end-to-end metrics printed beside those BENCHMARK.json bounds
PHASE_UNITS = {"stage1_s": "s", "stage2_s": "s", "eval_s": "s", "ckpt_s": "s",
               "heldout_acc": "ratio", "disk_mb": "MB", "error_rate": "ratio"}


def pin_blas_threads() -> None:
    """Set every BLAS thread variable to 1; only works before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before BLAS threads could be pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy; None if not found."""
    import ctypes

    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    """blake2b over the package sources; identifies the code without git."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads: int | None) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads if threads is not None else "unverified",
            "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_revision": _git_revision(), "src_digest": _src_digest()}


def expected_fingerprint(args, env: dict) -> tuple[dict | None, str]:
    """The fingerprint golden.json records for this workload and seed, and
    why there is none when there is none."""
    if args.shapes != "desk":
        return None, "not recorded for these shapes"
    if not GOLDEN.exists():
        return None, "no golden.json"
    golden = json.loads(GOLDEN.read_text())
    if golden["env"] != {k: env[k] for k in GOLDEN_ENV_KEYS}:
        return None, "golden.json was made on another CPU or numpy/BLAS build"
    expected = golden["workloads"].get(args.workload, {}).get(str(args.seed))
    if expected is None:
        return None, f"seed {args.seed} not in golden.json"
    return expected, "checked against golden.json"


class Runner:
    """Runs operations of one workload and keeps their outcomes."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0

    def run_op(self, probes) -> dict | None:
        self.attempted += 1
        op_dir = self.work / f"op{self.attempted}"
        op_dir.mkdir(parents=True)
        first = len(probes.spans)
        probes.trainer = None
        try:
            with probes.installed():
                probes.open("operation")
                t0 = perf_counter()
                out = self.workload.run(op_dir)
                wall = perf_counter() - t0
                probes.close()
            disk = sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file())
            out["trainer"] = probes.trainer
            fingerprint = self.workload.fingerprint(out)
            problems = self.workload.check(out, fingerprint)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        return {"wall_s": wall, "disk_mb": disk / 1e6,
                "heldout_acc": fingerprint["heldout_acc"],
                "fingerprint": fingerprint, **probes.phases(first)}


def loop(cycle, deadline: float) -> None:
    """Closed loop: ``cycle(i)`` once, then again while the median cycle
    still fits before ``deadline``."""
    times: list[float] = []
    while True:
        t0 = perf_counter()
        cycle(len(times))
        times.append(perf_counter() - t0)
        if perf_counter() + statistics.median(times) > deadline:
            return


def _median(records: list[dict], key: str) -> float:
    values = [r[key] for r in records if r[key] is not None]
    return statistics.median(values) if values else 0.0


def bench(args, spec: dict, env: dict, work: Path) -> dict:
    from probes import Probes
    from workloads import WORKLOADS

    units = dict(PHASE_UNITS)
    units.update((m["name"], m["unit"])
                 for m in spec["end_to_end"] + spec["per_layer"])
    expected, golden_status = expected_fingerprint(args, env)
    workload = WORKLOADS[args.workload](args.seed, args.shapes, work, expected)
    t0 = perf_counter()
    workload.prepare()
    fixture_s = perf_counter() - t0

    runner = Runner(workload, work)
    start = perf_counter()
    result = {"workload": args.workload, "seed": args.seed,
              "shapes": args.shapes, "trace": args.trace, "env": env,
              "fixture_s": fixture_s, "golden": golden_status}
    plain = Probes(layers=False)
    records: list[dict] = []
    if not args.trace:
        # set-ups are sampled in batches spread over the run, so they see
        # the same mix of machine load as the operations
        setups = []

        def time_setups(end: float) -> None:
            while perf_counter() < end:
                t0 = perf_counter()
                workload.setup()
                setups.append(perf_counter() - t0)

        def cycle(_):
            time_setups(perf_counter() + SETUP_BATCH_S)
            record = runner.run_op(plain)
            if record is not None:
                records.append(record)

        loop(cycle, start + args.seconds)
        # the time left, too short for another cycle, samples more set-ups
        time_setups(start + args.seconds)
        e2e = {"wall_s": _median(records, "wall_s"),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        for key in workload.phases:
            e2e[key] = _median(records, key)
        e2e["error_rate"] = runner.failed / runner.attempted
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        result.update(end_to_end=e2e, setup_s_samples=setups,
                      wall_s_samples=[r["wall_s"] for r in records])
        table = e2e
    else:
        # gen_dataset per call: the median over a batch of warm set-ups
        workload.setup()
        gen = Probes(layers=True)
        with gen.installed():
            end = perf_counter() + SETUP_BATCH_S
            while perf_counter() < end:
                workload.setup()
        # untraced and traced operations alternate, and swap order every
        # cycle, so both see the same warm-up and machine load
        traced, untraced = Probes(layers=True), []

        def cycle(i):
            for probes in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                record = runner.run_op(probes)
                if record is not None:
                    (records if probes is traced else untraced).append(record)

        loop(cycle, start + args.seconds)
        layers = traced.layer_metrics(max(len(records), 1))
        layers["datagen.gen_dataset.s"] = statistics.median(
            gen.durations("datagen.gen_dataset"))
        layers["trace.overhead_s"] = (_median(records, "wall_s")
                                      - _median(untraced, "wall_s"))
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        result.update(per_layer=layers,
                      untraced_wall_s=[r["wall_s"] for r in untraced],
                      traced_wall_s=[r["wall_s"] for r in records],
                      spans=[dict(zip(("id", "parent", "name", "start", "end"), s))
                             for s in traced.spans],
                      stats=dict(traced.stats))
        table = metrics

    result["fingerprints"] = [r["fingerprint"] for r in records]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={runner.attempted} failed={runner.failed} "
          f"fixture_s={fixture_s:.3f} outputs: {golden_status}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, value in table.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    result["units"] = {name: units[name] for name in table}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result) + "\n")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shapes", choices=("desk", "tiny"), default="desk",
                        help="tiny: the acceptance gate's shapes, for the "
                             "benchmark's self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    try:
        pin_blas_threads()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fdglab").is_dir():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    threads = blas_threads()
    if threads not in (None, 1):
        print(f"perfbench: OpenBLAS runs {threads} threads despite "
              f"{BLAS_THREAD_VARS}=1; refusing to run", file=sys.stderr)
        return 2
    env = environment(threads)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = bench(args, spec, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
