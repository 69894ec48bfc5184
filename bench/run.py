"""Benchmark runner for the smap CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Closed loop, one caller: each workload pass is a fresh Python process
(``bench/worker.py``) that imports smap and calls ``smap.cli.main`` for the
workload's commands in order, with ``SMAP_THREADS`` set to the workload's
``threads`` (the number of usable cores unless the workload says 1; a
single-threaded workload is pinned to one CPU). Every pass runs at the
workload seed, and passes repeat until one more would end farther from
``--seconds`` than stopping now (at least one runs; the default is
``run_seconds`` from ``BENCHMARK.json``). Set-up time is sampled by
``SETUP_PROBES`` extra processes that only import smap and load the config.
Speed probes (``bench/probe.py``) watch the CPUs meanwhile, and the reported
times are medians of the passes' (and set-up processes') times corrected to
a nominal vCPU speed (``bench/speed.py``).

``--trace 1`` runs one untraced pass and one pass under the span recorder
and reports the per-layer metrics instead; ``--seconds`` does not apply.

Every pass goes through the correctness gate (``bench/gate.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a command counts as failed if it
exits non-zero or its outputs fail the gate. Lines before it give a
readable summary and the run manifest. Outputs, spans and logs go to
``.bench_work/`` in the checkout. Exits with code 2 and no result when the
program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import layers
import speed
from workloads import BASELINE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 10
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def smap_threads(workload) -> int:
    return workload.threads or nproc()


def workload_cpus(workload) -> list:
    """CPUs a workload's passes run on: one for a single-threaded workload."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[:1] if workload.threads == 1 else allowed


def spawn(
    workload, seed: int, run_dir: Path, tag: str, cpus, setup_only=False, spans=False
) -> dict:
    """Run one worker process, pinned to ``cpus``, and return its record."""
    out = run_dir / tag
    shutil.rmtree(out, ignore_errors=True)
    record = run_dir / f"{tag}.json"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload.name, "--seed", str(seed),
        "--config", str(run_dir / "workload.cfg"), "--out", str(out), "--record", str(record),
        "--cpus", ",".join(map(str, cpus)),
    ]
    if setup_only:
        argv.append("--setup-only")
    if spans:
        argv += ["--spans", str(run_dir / "spans.json")]
    env = dict(os.environ, SMAP_THREADS=str(smap_threads(workload)))
    log = run_dir / f"{tag}.log"
    with open(log, "w") as fh:
        env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
        try:
            proc = subprocess.run(
                argv, stdout=fh, stderr=subprocess.STDOUT, env=env, timeout=PASS_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} ran over {PASS_TIMEOUT_S} s; log in {log}") from exc
    if proc.returncode != 0:
        tail = "".join(log.read_text().splitlines(keepends=True)[-15:])
        raise BenchError(f"{tag} exited with {proc.returncode}; log {log}:\n{tail}")
    rec = json.loads(record.read_text())
    rec["out"] = str(out)
    rec["seed"] = seed
    rec["cpus"] = list(cpus)
    return rec


def grade(workload, rec: dict):
    """(attempted, failed, problems) for the commands of one pass."""
    failed, problems = 0, []
    for cmd in workload.commands:
        rc = rec["runner"][cmd]["rc"]
        found = [] if rc == 0 else [f"{cmd} exited with {rc}"]
        found += gate.check(
            workload.name, cmd, rec["out"], rec["config"], rec["seed"], BASELINE_SEED
        )
        failed += bool(found)
        problems += [f"{cmd}: {p}" for p in found]
    return len(workload.commands), failed, problems


def measure(workload, seed: int, seconds: float, run_dir: Path, cpus) -> list:
    """Workload passes for about ``seconds``: the pass count nearest to it."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, run_dir, f"pass{len(passes)}", cpus))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 0.5) / len(passes) >= seconds:
            return passes


def cache_sizes() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"L2": "unknown", "L3": "unknown"}
    sizes = {"L2": "unknown", "L3": "unknown"}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            sizes[key.split()[0]] = value.strip()
    return sizes


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None  # the benchmark may run from an export that is not a git repository
    return proc.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(workload, seed: int, rec: dict, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        **rec["versions"],
        "nproc": nproc(),
        "SMAP_THREADS": str(smap_threads(workload)),
        "cpus": rec["cpus"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cache": cache_sizes(),
        "os_threads_after_command": {c: r["os_threads"] for c, r in rec["runner"].items()},
    }


def pass_timings(passes: list) -> list:
    """Raw and corrected seconds of each pass, for reading the spread."""
    keys = ("wall_s", "nominal_wall_s", "cpu_s", "host_steal_s")
    return [{k: p.get(k) if p.get(k) is None else round(p[k], 3) for k in keys} for p in passes]


def timed_run(workload, seed: int, seconds: float, run_dir: Path):
    """Passes and set-up probes under the speed probes; (passes, values, raw)."""
    cpus = workload_cpus(workload)
    procs = speed.start(cpus, run_dir)
    try:
        spawn(workload, seed, run_dir, "warmup", cpus, setup_only=True)
        passes = measure(workload, seed, seconds, run_dir, cpus)
        setups = [
            spawn(workload, seed, run_dir, f"setup{i}", cpus[:1], setup_only=True)
            for i in range(SETUP_PROBES)
        ]
    finally:
        stopped = speed.stop(procs)
    if not stopped:
        raise BenchError(f"a speed probe failed; see {run_dir}")
    try:
        series = speed.load(cpus, run_dir)
    except (OSError, ValueError) as exc:
        raise BenchError(f"speed probe samples unreadable: {exc}") from exc
    for rec in passes:
        rec["nominal_wall_s"] = speed.nominal([series[c] for c in cpus], *rec["interval"])
        rec["nominal_cpu_s"] = rec["cpu_s"] * rec["nominal_wall_s"] / rec["wall_s"]
    for rec in setups:
        rec["nominal_setup_s"] = speed.nominal([series[cpus[0]]], *rec["setup_interval"])
    median = statistics.median
    values = {
        "setup_s": median(r["nominal_setup_s"] for r in setups),
        "wall_s": median(r["nominal_wall_s"] for r in passes),
        "cpu_s": median(r["nominal_cpu_s"] for r in passes),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in passes),
    }
    raw = {
        "setup_s": median(r["setup_s"] for r in setups),
        "wall_s": median(r["wall_s"] for r in passes),
        "cpu_s": median(r["cpu_s"] for r in passes),
    }
    return passes, values, raw


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, attempted, failed, problems, manifest) for one workload."""
    workload = WORKLOADS[name]
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "workload.cfg").write_text(workload.config_text())

    raw = None
    if trace:
        cpus = workload_cpus(workload)
        plain = spawn(workload, seed, run_dir, "untraced", cpus)
        traced = spawn(workload, seed, run_dir, "traced", cpus, spans=True)
        passes = [plain, traced]
        values = {
            **traced["layers"],
            **layers.runner_metrics(plain["runner"]),
            "trace_overhead": traced["wall_s"] / plain["wall_s"] - 1.0,
        }
    else:
        passes, values, raw = timed_run(workload, seed, seconds, run_dir)
    attempted = failed = 0
    problems = []
    for rec in passes:
        a, f, p = grade(workload, rec)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    info = manifest(workload, seed, passes[0], trace)
    info["passes"] = pass_timings(passes)
    if raw is not None:
        info["uncorrected"] = raw
    (run_dir / "result.json").write_text(
        json.dumps({"manifest": info, "metrics": values, "problems": problems, "passes": passes})
    )
    return values, attempted, failed, problems, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (ROOT / "src" / "smap" / "__init__.py").is_file():
        print(f"no smap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            values, attempted, failed, problems, info = run_workload(
                name, args.seed, seconds, bool(args.trace)
            )
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"{name}: metrics not measured: {missing}", file=sys.stderr)
            return 2
        for problem in problems:
            print(f"{name}: FAIL {problem}", file=sys.stderr)
        print("manifest " + json.dumps(info, sort_keys=True))
        summary = " ".join(f"{m['name']}={values[m['name']]:.6g} {m['unit']}" for m in wanted)
        print(
            f"{name} seed={args.seed} passes={len(info['passes'])}: {summary} "
            f"fail_rate={failed}/{attempted}={failed / attempted:.3g}"
        )
        if "uncorrected" in info:
            raw = " ".join(f"{k}={v:.6g} s" for k, v in info["uncorrected"].items())
            print(f"{name} uncorrected wall-clock: {raw}")
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            result["metrics"][prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        result["correct"] = result["correct"] and failed == 0
        result["attempted"] += attempted
        result["failed"] += failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
