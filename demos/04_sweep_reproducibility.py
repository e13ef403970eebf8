"""Sweeps and determinism, driven through the command-line interface.

A sweep re-runs the full experiment once per axis value with everything
else (including seeds) held constant, flushing a long-format CSV row by
row. Runs are independent, so --parallel N fans them out across
processes; results are still flushed in submission order, which makes
the serial and parallel CSVs byte-identical. The same holds for every
report the tool writes: same config + same seeds = same bytes.
"""

import tempfile
from pathlib import Path

from fdglab import cli

TINY = ["--classes", "3", "--domains", "3", "--shots", "4",
        "--feature-dim", "16", "--n-clients", "2", "--d", "16",
        "--d-tok", "8", "--gan-hidden", "32", "--z-dim", "4",
        "--batch-size", "8", "--epochs", "2", "--seed", "0"]

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    argv = ["sweep", *TINY, "--axis", "alpha", "--values", "0,0.2,1.0"]
    assert cli.main([*argv, "--out", str(work / "serial")]) == 0
    assert cli.main([*argv, "--out", str(work / "parallel"),
                     "--parallel", "3"]) == 0

    serial = next((work / "serial" / "sweep").iterdir()) / "sweep.csv"
    parallel = next((work / "parallel" / "sweep").iterdir()) / "sweep.csv"
    print(serial.read_text())
    print(f"serial == parallel, byte for byte: "
          f"{serial.read_bytes() == parallel.read_bytes()}")

    # the same contract for evaluation reports
    assert cli.main(["eval", *TINY, "--out", str(work / "a")]) == 0
    assert cli.main(["eval", *TINY, "--out", str(work / "b")]) == 0
    ra = next((work / "a" / "eval").iterdir())
    rb = next((work / "b" / "eval").iterdir())
    print(f"eval re-run byte-identical: csv "
          f"{(ra / 'report.csv').read_bytes() == (rb / 'report.csv').read_bytes()}, "
          f"json {(ra / 'report.json').read_bytes() == (rb / 'report.json').read_bytes()}")
