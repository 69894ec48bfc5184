"""Convert measured intervals into seconds at a nominal vCPU speed.

``probe.py`` samples, on each CPU a pass runs on, how long a fixed kernel
takes. Where the kernel takes ``d`` seconds, one second of wall time is
counted as ``NOMINAL_KERNEL_S / d`` nominal seconds. Integrated over an
interval, this gives the time the interval would have taken at the speed
the kernel has on an otherwise idle vCPU of the machine the benchmark was
tuned on (2-vCPU KVM guest, Intel Xeon, model 207). On a quiet host the
corrected time is close to the wall time; on a busy one the slow stretches
are scaled down by how much slower the kernel ran in them.
"""

from __future__ import annotations

import bisect
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NOMINAL_KERNEL_S = 0.00015  # the probe kernel on an idle vCPU of the tuning machine
PERIOD_S = 0.05  # time between samples
STOP_TIMEOUT_S = 10


class Probe:
    """One CPU's samples: kernel seconds ``d[i]`` at monotonic time ``t[i]``.

    Sample ``i`` stands for the time from the midpoint with its predecessor
    to the midpoint with its successor; the first and last extend without end.
    """

    def __init__(self, samples):
        if not samples:
            raise ValueError("speed probe recorded no samples")
        self.t = [t for t, _ in samples]
        self.d = [d for _, d in samples]
        self.mids = [(a + b) / 2 for a, b in zip(self.t, self.t[1:])]

    def nominal(self, a: float, b: float) -> float:
        """Nominal seconds for the wall interval [a, b]."""
        i = bisect.bisect_right(self.mids, a)
        total, start = 0.0, a
        while start < b:
            end = min(b, self.mids[i]) if i < len(self.mids) else b
            total += (end - start) / self.d[i]
            start, i = end, i + 1
        return total * NOMINAL_KERNEL_S


def nominal(probes, a: float, b: float) -> float:
    """Nominal seconds for [a, b], averaged over the CPUs the interval ran on."""
    return statistics.fmean(p.nominal(a, b) for p in probes)


def start(cpus, work_dir: Path, period: float = PERIOD_S) -> dict:
    """Start one probe process per CPU; returns {cpu: Popen} once all are ready."""
    procs = {}
    try:
        for cpu in cpus:
            procs[cpu] = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), "--cpu", str(cpu),
                 "--period", str(period), "--out", str(work_dir / f"probe{cpu}.json")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        for cpu, proc in procs.items():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"speed probe on CPU {cpu} did not start")
    except BaseException:
        stop(procs)
        raise
    return procs


def stop(procs: dict) -> bool:
    """Stop the probes and wait for each; True if all of them exited cleanly."""
    for proc in procs.values():
        proc.stdin.close()
    for proc in procs.values():
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return all(proc.returncode == 0 for proc in procs.values())


def load(cpus, work_dir: Path) -> dict:
    """{cpu: Probe} from the files the stopped probes wrote."""
    return {
        cpu: Probe(json.loads((work_dir / f"probe{cpu}.json").read_text())["samples"])
        for cpu in cpus
    }
