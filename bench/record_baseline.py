"""Store the CSV bodies the correctness gate compares against.

    python3 bench/record_baseline.py [WORKLOAD ...]

Runs one pass of each named workload (default: all) at the baseline seed
and writes each CSV report without its timestamped comment line to
``bench/baseline/<workload>/``. Re-record only when a change is meant to
alter the reports, and say so in that change.
"""

from __future__ import annotations

import shutil
import sys

import gate
from run import WORK, spawn
from workloads import BASELINE_SEED, WORKLOADS


def main(names) -> int:
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        run_dir = WORK / "baseline" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        (run_dir / "workload.cfg").write_text(workload.config_text())
        rec = spawn(workload, BASELINE_SEED, run_dir, "pass0")
        target = gate.BASELINE / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for cmd in workload.commands:
            if rec["runner"][cmd]["rc"] != 0:
                raise SystemExit(f"{name}: {cmd} exited with {rec['runner'][cmd]['rc']}")
            for csv in gate.command_files(cmd, rec["config"]):
                body = gate.read_body(f"{rec['out']}/{csv}")
                (target / csv).write_text("".join(",".join(row) + "\n" for row in body))
        print(f"{name}: stored {sorted(p.name for p in target.iterdir())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
