"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/BENCH_baseline.json
    python3 perfbench/sweep.py --seeds 1,1 --trace 1 --out perfbench/BENCH_baseline_trace.json

Runs ``run.py`` once per (workload, seed), one at a time, for the
``run_seconds`` of BENCHMARK.json, and prints for
every metric, with its unit, the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median,
flagging each bounded metric whose spread exceeds a third of its bound or
the bound itself. With
``--trace 0`` the phase metrics written beside each run are summarised
too. The summary, with the environment of the first run, goes to ``--out``
when given; standard output always gets a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def run_one(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary = {"run_seconds": SPEC["run_seconds"], "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in _seeds(args.seeds):
            result, detail = run_one(workload, seed, args.trace)
            summary.setdefault("env", detail["env"])
            units.update(detail["units"])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            if not args.trace:
                metrics.update({k: v for k, v in detail["end_to_end"].items()
                                if k not in metrics})
            for k, v in metrics.items():
                samples.setdefault(k, []).append(v)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={metrics[k]:.4g}" for k in bounds if k in metrics),
                flush=True)
        stats = {k: summarise(v) for k, v in samples.items()}
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "metrics": stats}
        print(f"== {workload}: attempted {attempted}, failed {failed}")
        for k, s in stats.items():
            bound = bounds.get(k)
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] <= bound / 3 else (
                    "WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
            print(f"   {k:36s} median {s['median']:12.6g} {units[k]:6s} "
                  f"spread {s['spread']:7.4f}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
