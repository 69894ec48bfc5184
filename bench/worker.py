"""One benchmark process: import smap, load the config, run the workload's
commands in order through ``smap.cli.main`` and write a JSON record.

Run by ``bench/run.py`` as a fresh interpreter per workload pass:

    python3 bench/worker.py --workload NAME --seed N --config FILE --out DIR
        --record FILE --cpus N[,N...] [--setup-only] [--spans FILE]

``--cpus`` pins the process, and every thread it starts, to those CPUs
before anything is imported. ``--setup-only`` stops after the config is
loaded. ``--spans`` runs the commands under the span recorder and writes the
spans and the per-layer metrics. The parent passes its
``time.monotonic_ns()`` at spawn in ``BENCH_SPAWN_NS``; set-up time is
measured from there. The record gives the set-up and command intervals on
the monotonic clock too, so that the parent can correct them with the speed
probes (``speed.py``). The benchmark's own modules are imported only after
set-up, so set-up time is smap's alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def host_steal_seconds():
    """CPU time the hypervisor took from this machine's vCPUs, summed (None if unknown).

    On a shared virtual machine this is what stretches ``wall_s`` beyond
    ``cpu_s`` when neighbours are busy; it is reported, not subtracted.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpus", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    # Import the package from this checkout's sources, never an installed copy.
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import smap.cli
    from smap.harness.config import load_config

    if not Path(smap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"smap imported from {smap.__file__}, not from {SRC}")
    config = load_config(args.config, seed=args.seed, out_dir=args.out)
    setup_end = time.monotonic()
    spawn = int(os.environ["BENCH_SPAWN_NS"]) / 1e9

    import gate
    import layers
    import spans
    from workloads import WORKLOADS

    record = {
        "setup_s": setup_end - spawn,
        "setup_interval": [spawn, setup_end],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "config": {
            **{key: getattr(config, key) for key in gate.CONFIG_KEYS},
            "volume": config.grid().volume,
        },
    }
    if not args.setup_only:
        patch = recorder = None
        if args.spans:
            recorder = spans.Recorder()
            patch = spans.install(recorder, layers.MODULES, layers.EXTRA, layers.ANNOTATE)
        runner = {}
        cpu0, steal0 = cpu_seconds(), host_steal_seconds()
        t0 = time.monotonic()
        for cmd in WORKLOADS[args.workload].commands:
            c0 = time.monotonic()
            argv = [cmd, "--config", args.config, "--seed", str(args.seed), "--out", args.out]
            try:
                rc = smap.cli.main(argv)
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = f"{type(exc).__name__}: {exc}"
            runner[cmd] = {
                "rc": rc,
                "s": time.monotonic() - c0,
                "interval": [c0, time.monotonic()],
                "hwm_mb": layers.proc_status("VmHWM") / 1024.0,
                "os_threads": int(layers.proc_status("Threads")),
            }
        t1 = time.monotonic()
        record["wall_s"] = t1 - t0
        record["interval"] = [t0, t1]
        record["cpu_s"] = cpu_seconds() - cpu0
        steal1 = host_steal_seconds()
        record["host_steal_s"] = None if steal0 is None else steal1 - steal0
        record["runner"] = runner
        if recorder is not None:
            patch.restore()
            recorder.dump(args.spans)
            record["layers"] = layers.metrics(recorder.spans, recorder.main_tid)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
