"""Record the per-seed outputs that run.py checks every operation against.

    python3 perfbench/golden.py --seeds 0-31

For each workload and seed, runs one operation at the desk shapes, in this
one process, and stores its fingerprint (a blake2b digest of the server
state the operation ends with, and its held-out accuracy) in
``perfbench/golden.json``, with the CPU model and the numpy and BLAS
builds it was made on. run.py compares against a recorded fingerprint
only in a matching environment, because another BLAS kernel may round
differently. The file is rewritten from scratch; a change to fdglab that
alters its numerics on purpose needs it remade.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from sweep import SPEC, _seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 3,5,8")
    args = parser.parse_args(argv)

    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    from probes import Probes
    from workloads import WORKLOADS

    env = run.environment(run.blas_threads())
    golden = {"env": {k: env[k] for k in run.GOLDEN_ENV_KEYS},
              "src_digest": env["src_digest"], "workloads": {}}
    work = run.WORK_DIR / "golden"
    try:
        for name in (w["name"] for w in SPEC["workloads"]):
            recorded = golden["workloads"][name] = {}
            for seed in _seeds(args.seeds):
                workload = WORKLOADS[name](seed, "desk", work / str(seed))
                workload.prepare()
                runner = run.Runner(workload, work / str(seed))
                record = runner.run_op(Probes(layers=False))
                if record is None or runner.failed:
                    raise SystemExit(f"{name} seed {seed}: the operation failed")
                recorded[str(seed)] = record["fingerprint"]
                print(f"{name} seed {seed}: {record['fingerprint']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK_DIR.is_dir() and not any(run.WORK_DIR.iterdir()):
            run.WORK_DIR.rmdir()
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
