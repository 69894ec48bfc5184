"""Self-test of the speed correction: interval integration and the probe process."""

import json
import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import speed  # noqa: E402


def test_nominal_integrates_each_samples_share(monkeypatch):
    monkeypatch.setattr(speed, "NOMINAL_KERNEL_S", 1.0)
    # kernel time 1 around t=0 and t=2, 2 (half speed) around t=1
    probe = speed.Probe([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)])
    assert probe.nominal(0.0, 2.0) == pytest.approx(0.5 + 0.5 + 0.5)
    assert probe.nominal(0.2, 0.4) == pytest.approx(0.2)
    assert probe.nominal(0.4, 0.6) == pytest.approx(0.1 + 0.05)
    # the first and last samples extend without end
    assert probe.nominal(-1.0, 3.0) == pytest.approx(3.5)
    assert probe.nominal(5.0, 6.0) == pytest.approx(1.0)


def test_nominal_averages_over_cpus(monkeypatch):
    monkeypatch.setattr(speed, "NOMINAL_KERNEL_S", 1.0)
    fast, slow = speed.Probe([(0.0, 1.0)]), speed.Probe([(0.0, 2.0)])
    assert speed.nominal([fast, slow], 0.0, 4.0) == pytest.approx(3.0)


def test_probe_process_samples_and_stops(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    procs = speed.start([cpu], tmp_path, period=0.01)
    time.sleep(0.2)
    assert speed.stop(procs)
    data = json.loads((tmp_path / f"probe{cpu}.json").read_text())
    assert data["cpu"] == cpu
    assert all(d > 0 for _, d in data["samples"])
    assert speed.load([cpu], tmp_path)[cpu].t == [t for t, _ in data["samples"]]
