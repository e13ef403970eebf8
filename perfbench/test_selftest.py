"""Self-test of the benchmark: every workload, untraced and traced, on the
acceptance gate's tiny shapes, must pass its output checks and emit every
metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--shapes", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


# a count each workload must drive above 0, so its repeat is not 0 == 0
RUNS_ON = {"lodo_dsp": "numcore.cosine_sim.calls",
           "train_hdp": "fed.save_message.calls",
           "score_ckpt": "evalhub.text_encodes_per_image"}


@pytest.mark.parametrize("workload", sorted(RUNS_ON))
def test_traced_counts_repeat_exactly(workload):
    counts = [name for name in (m["name"] for m in SPEC["per_layer"])
              if name.endswith(".calls") or name.endswith(".nodes")
              or name.endswith("_per_image") or name.endswith(".bytes")]
    first, second = (_run(workload, 1, seed=3) for _ in range(2))
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"][RUNS_ON[workload]]["value"] > 0
    if workload == "train_hdp":
        assert first["metrics"]["cli.checkpoint.calls"]["value"] > 0
        assert first["metrics"]["fed.serialize_message.bytes"]["value"] > 0


# one tiny lodo_dsp operation checked against the fingerprint in argv[1]
ONE_OP = """
import json, sys
from pathlib import Path
sys.path[:0] = ["perfbench"]
import run
run.pin_blas_threads()
sys.path.insert(0, "src")
from probes import Probes
from workloads import WORKLOADS

work = Path(sys.argv[2])
workload = WORKLOADS["lodo_dsp"](3, "tiny", work, json.loads(sys.argv[1]))
workload.prepare()
runner = run.Runner(workload, work)
record = runner.run_op(Probes(layers=False))
print(json.dumps({"failed": runner.failed, "fingerprint": record["fingerprint"]}))
"""


def _op_against(expected, work) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", ONE_OP, json.dumps(expected), str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_golden_fingerprint_mismatch_fails_the_operation(tmp_path):
    first = _op_against(None, tmp_path / "a")
    assert first["failed"] == 0
    fingerprint = first["fingerprint"]
    assert _op_against(fingerprint, tmp_path / "b")["failed"] == 0
    shifted = dict(fingerprint, heldout_acc=fingerprint["heldout_acc"] + 0.01)
    assert _op_against(shifted, tmp_path / "c")["failed"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lodo_dsp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
