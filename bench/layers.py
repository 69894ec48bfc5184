"""Per-layer metrics of a traced run: which calls are wrapped, and how the
recorded spans reduce to the ``per_layer`` metrics of ``BENCHMARK.json``.

Layers are the package's modules. Span names are the module path below
``smap`` plus the function name, e.g. ``solver.duhamel_map`` or
``harness.data.build_lemma_ensemble``; the scipy FFT entry points that
``smap.spectral`` looks up at call time are ``scipy.fft.fftn``/``ifftn``.
"""

from __future__ import annotations

from pathlib import Path

from spans import self_times

MODULES = (
    "smap.grid",
    "smap.spectral",
    "smap.nonlinearity",
    "smap.geometry",
    "smap.solver",
    "smap.spacetime",
    "smap.report",
    "smap.harness.config",
    "smap.harness.data",
    "smap.harness.snapshots",
    "smap.harness.checks",
    "smap.harness.runner",
    "smap.cli",
)

# Calls that are not public module functions but mark a layer boundary:
# the FFT primitive, the dealiasing rule, CSV writes, and the per-member
# diagnostics that run on the pool threads.
EXTRA = (
    ("scipy.fft", "fftn"),
    ("scipy.fft", "ifftn"),
    ("smap.nonlinearity", "DealiasPolicy.apply_values"),
    ("smap.report", "NormReport.write"),
    ("smap.spacetime", "_member_rows"),
)

COMMANDS = ("evolve", "picard", "norms", "verify", "compare")

FFT = ("scipy.fft.fftn", "scipy.fft.ifftn")
# A complex128 FFT reads and writes 16 bytes per point: computed, not measured.
FFT_BYTES_PER_POINT = 32


def proc_status(key: str) -> float:
    """The number on a line of /proc/self/status (``Vm*`` lines are in kB)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(key)


def _fft_points(args, kwargs, result):
    return {"points": int(args[0].size)}


def _steps(args, kwargs, result):
    return {"steps": len(result) - 1}


def _rss(args, kwargs, result):
    return {"rss_mb": proc_status("VmRSS") / 1024.0}


def _file_bytes(position):
    def annotate(args, kwargs, result):
        return {"bytes": Path(args[position]).stat().st_size}

    return annotate


def _mass_cells(args, kwargs, result):
    xk_rows = sum(1 for row in result.rows if row[2] == "Xk" and row[0] != "max")
    members = result.meta["num_members"]
    return {"xk_rows": xk_rows, "cells": members * len(kwargs["shells"])}


ANNOTATE = {
    "scipy.fft.fftn": _fft_points,
    "scipy.fft.ifftn": _fft_points,
    "solver.midpoint_solve": _steps,
    "spacetime.lemma_diagnostics": _mass_cells,
    "harness.data.build_lemma_ensemble": _rss,
    "harness.snapshots.write_snapshot": _file_bytes(0),
    "report.NormReport.write": _file_bytes(1),
}


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(spans, main_tid: int) -> dict:
    """Reduce the spans of one traced pass to the span-based layer metrics.

    A metric of a layer the workload never calls is 0. ``main_tid`` is the
    thread that ran the commands; spans on other threads under
    ``lemma_diagnostics`` are pool work.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    parent_of = {s.sid: s.parent for s in spans}
    name_of = {s.sid: s.name for s in spans}

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def secs(*names):
        return sum((s.duration for n in names for s in by_name.get(n, ())), 0.0)

    def self_s(name):
        return sum((own[s.sid] for s in by_name.get(name, ())), 0.0)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def inside(names, ancestor):
        """Count spans of ``names`` that have an ``ancestor`` span above them."""
        count = 0
        for n in names:
            for s in by_name.get(n, ()):
                p = s.parent
                while p is not None and name_of.get(p) != ancestor:
                    p = parent_of.get(p)
                count += p is not None
        return count

    fft_points = attr(FFT[0], "points") + attr(FFT[1], "points")
    duhamel_maps = calls("solver.duhamel_map")
    midpoint_steps = attr("solver.midpoint_solve", "steps")
    lemma = by_name.get("spacetime.lemma_diagnostics", ())
    pool = [
        s
        for s in spans
        if s.tid != main_tid and name_of.get(s.parent) == "spacetime.lemma_diagnostics"
    ]
    pool_workers = len({s.tid for s in pool})
    ensemble = by_name.get("harness.data.build_lemma_ensemble", ())

    return {
        "spectral.fft_calls": calls(*FFT),
        "spectral.fft_points": fft_points,
        "spectral.fft_s": secs(*FFT),
        "spectral.fft_bytes_computed": FFT_BYTES_PER_POINT * fft_points,
        "nonlinearity.calls": calls("nonlinearity.nonlinearity"),
        "nonlinearity.s": secs("nonlinearity.nonlinearity"),
        "nonlinearity.self_s": self_s("nonlinearity.nonlinearity"),
        "nonlinearity.dealias_calls": calls("nonlinearity.DealiasPolicy.apply_values"),
        "solver.picard_solves": calls("solver.picard_solve"),
        "solver.picard_iters": duhamel_maps,
        "solver.picard_solve_s": secs("solver.picard_solve"),
        "solver.duhamel_map_s": secs("solver.duhamel_map"),
        "solver.duhamel_map_self_s": self_s("solver.duhamel_map"),
        "solver.ffts_per_iter": _ratio(inside(FFT, "solver.duhamel_map"), duhamel_maps),
        "solver.midpoint_solve_s": secs("solver.midpoint_solve"),
        "solver.midpoint_self_s": self_s("solver.midpoint_solve"),
        "solver.midpoint_steps": midpoint_steps,
        "solver.midpoint_rhs_per_step": _ratio(
            inside(("spectral.laplacian_values",), "solver.midpoint_solve"), midpoint_steps
        ),
        "solver.free_trajectory_calls": calls("solver.free_trajectory"),
        "solver.free_trajectory_s": secs("solver.free_trajectory"),
        "solver.gronwall_s": secs("solver.gronwall_diagnostic"),
        "geometry.stereo_lift_calls": calls("geometry.stereo_lift"),
        "geometry.stereo_lift_s": secs("geometry.stereo_lift"),
        "geometry.sobolev_distance_s": secs("geometry.sobolev_distance"),
        "spacetime.transform_calls": calls("spacetime.spacetime_transform"),
        "spacetime.transform_s": secs("spacetime.spacetime_transform"),
        "spacetime.inverse_calls": calls("spacetime.inverse_spacetime"),
        "spacetime.inverse_s": secs("spacetime.inverse_spacetime"),
        "spacetime.xk_norm_calls": calls("spacetime.xk_norm"),
        "spacetime.fsigma_upper_calls": calls("spacetime.fsigma_upper"),
        "spacetime.fsigma_upper_s": secs("spacetime.fsigma_upper"),
        "spacetime.lemma_diagnostics_s": secs("spacetime.lemma_diagnostics"),
        "spacetime.shells_with_mass_frac": _ratio(
            attr("spacetime.lemma_diagnostics", "xk_rows"),
            attr("spacetime.lemma_diagnostics", "cells"),
        ),
        "spacetime.pool_util": _ratio(
            sum(s.duration for s in pool), pool_workers * sum(s.duration for s in lemma)
        ),
        "harness.ensemble_build_s": secs("harness.data.build_lemma_ensemble"),
        "harness.ensemble_rss_mb": max((s.attrs["rss_mb"] for s in ensemble), default=0.0),
        "harness.snapshot_writes": calls("harness.snapshots.write_snapshot"),
        "harness.snapshot_bytes": attr("harness.snapshots.write_snapshot", "bytes"),
        "harness.snapshot_write_s": secs("harness.snapshots.write_snapshot"),
        "report.csv_writes": calls("report.NormReport.write"),
        "report.csv_bytes": attr("report.NormReport.write", "bytes"),
        "report.csv_write_s": secs("report.NormReport.write"),
        "harness.run_checks_s": secs("harness.checks.run_checks"),
    }


def runner_metrics(runner: dict) -> dict:
    """Wall seconds and ``VmHWM`` at the end of each command; 0 if not run."""
    out = {}
    for cmd in COMMANDS:
        record = runner.get(cmd, {})
        out[f"runner.{cmd}_s"] = record.get("s", 0.0)
        out[f"runner.{cmd}_hwm_mb"] = record.get("hwm_mb", 0.0)
    return out
