"""Write the seed-0 reference outputs that `workloads.py` compares runs with.

    python3 perfbench/capture_reference.py

Run it on the commit whose outputs are the reference. It runs each workload's
command on the default config and keeps the summary and every STRIDE-th row
of each CSV under `perfbench/reference/<workload>/`.
"""
import csv
import shutil
import sys
from pathlib import Path

from workloads import REFERENCE_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from squidring.cli import main as cli_main

    scratch = ROOT / ".perfbench" / "reference-capture"
    for workload in WORKLOADS.values():
        out = scratch / workload.name
        shutil.rmtree(out, ignore_errors=True)
        if cli_main([workload.command, "--out", str(out)]) != 0:
            return 1
        ref = REFERENCE_DIR / workload.name
        shutil.rmtree(ref, ignore_errors=True)
        ref.mkdir(parents=True)
        shutil.copy(out / "summary.txt", ref / "summary.txt")
        for path in out.glob(workload.pattern):
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            with (ref / path.name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows[:1] + rows[1::workload.stride])
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
