"""Command implementations behind the CLI.

Every command reads an ExperimentConfig, writes CSV (and snapshot) files
into the output directory, and is deterministic for a fixed config and
seed; timestamps appear only in CSV comment lines.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import MaxIterExceeded, NoContraction, ValidationFailure
from ..geometry import stereo_lift
from ..nonlinearity import DealiasPolicy
from ..report import NormReport
from ..solver import (
    free_trajectory,
    gronwall_diagnostic,
    midpoint_solve,
    picard_solve,
    uniform_times,
)
from ..spacetime import (
    DirectionSet,
    fsigma_upper,
    lemma_diagnostics,
    pooled_max_slope,
    spacetime_transform,
)
from ..spectral import hsigma_norm, to_physical
from .checks import run_checks
from .config import ExperimentConfig
from .data import build_lemma_ensemble, seeded_data, sphere_seeded_data
from .snapshots import write_snapshot

COMMANDS = ("evolve", "picard", "norms", "verify", "compare")


def run(command: str, config: ExperimentConfig) -> int:
    """Execute one harness command; returns 0 on success, raises on failure."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; choose from {COMMANDS}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[command](config, out)


def _directions(config) -> DirectionSet:
    full = DirectionSet.default(config.d)
    if config.directions == "axes":
        axes = [e for e in full if np.sum(np.abs(e) > 1e-12) == 1]
        return DirectionSet(np.array(axes))
    return full


def _cmd_evolve(config, out) -> int:
    grid = config.grid()
    s0 = sphere_seeded_data(config.data_kind, config.amplitudes[0], config.seed, grid, config.sigma0)
    traj = midpoint_solve(s0, config.T, config.dt, inner_tol=config.inner_tol)
    rep = NormReport(
        kind="evolve",
        columns=["m", "t", "norm_defect"],
        meta={**config.meta(), "snapshots": "evolve_*.fld"},
    )
    for m in range(len(traj)):
        defect = float(np.max(np.abs(np.sqrt(np.sum(traj.values[m] ** 2, axis=0)) - 1.0)))
        rep.add(m, float(traj.times[m]), defect)
        if m % config.snapshot_stride == 0 or m == len(traj) - 1:
            write_snapshot(out / f"evolve_{m:06d}.fld", traj.snapshot(m))
    rep.write(out / "evolve.csv")
    return 0


def _cmd_picard(config, out) -> int:
    grid = config.grid()
    policy = DealiasPolicy(config.dealias)
    for i, amplitude in enumerate(config.amplitudes):
        phi = seeded_data(config.data_kind, amplitude, config.seed, grid, config.sigma0)
        csv = out / f"picard_amp{i}.csv"
        try:
            traj, history = picard_solve(
                phi,
                config.T,
                config.dt,
                tol=config.tol,
                max_iter=config.max_iter,
                sigma0=config.sigma0,
                policy=policy,
            )
        except (NoContraction, MaxIterExceeded) as exc:
            # Keep the partial history of the failed solve.
            rep = _picard_report(exc.history, config, amplitude)
            rep.meta["error"] = type(exc).__name__
            rep.write(csv)
            raise
        _picard_report(history, config, amplitude).write(csv)
        write_snapshot(out / f"picard_amp{i}_final.fld", traj.snapshot(len(traj) - 1))
    return 0


def _picard_report(history, config, amplitude) -> NormReport:
    rep = history.to_report()
    rep.meta.update(config.meta())
    rep.meta["amplitude"] = amplitude
    return rep


def _cmd_norms(config, out) -> int:
    grid = config.ensemble_grid()
    wdt = 2.0 * config.t_window / config.ensemble_samples
    wtimes = uniform_times(2 * config.t_window, wdt, t0=-config.t_window)
    ensemble = build_lemma_ensemble(
        grid,
        config.shells,
        wtimes,
        config.seed,
        T=config.T,
        dt=wdt,
        sigma0=config.sigma0,
    )
    rep = lemma_diagnostics(
        ensemble,
        _directions(config),
        shells=config.shells,
        t_window=config.t_window,
        fsigma_sigma=config.sigma0,
    )
    rep.meta.update(config.meta())
    try:
        rep.meta["pooled_max_slope"] = pooled_max_slope(rep)
    except ValueError:
        pass

    # Linear-estimate constants: windowed free evolution vs data norm. The
    # ratio rows join the main report; the richer table goes to its own file.
    lin = NormReport(
        kind="linear_estimate",
        columns=["phi_id", "sigma", "fsigma_upper", "hsigma", "ratio"],
        meta=config.meta(),
    )
    solve_grid = config.grid()
    swin = uniform_times(2 * config.t_window, config.dt, t0=-config.t_window)
    for i in range(10):
        phi = seeded_data("random_bandlimited", 1.0, config.seed + i, solve_grid, config.sigma0)
        traj = free_trajectory(to_physical(phi), swin)
        F = spacetime_transform(traj, config.t_window)
        for sigma in (config.sigma0, config.sigma0 + 1.0):
            fs = fsigma_upper(F, sigma)
            hs = hsigma_norm(phi, sigma)
            lin.add(i, sigma, fs, hs, fs / hs)
            rep.add(f"free_phi{i}", -1, "Fsigma", f"sigma={sigma:g}", fs)
    rep.write(out / "lemma_diagnostics.csv")
    lin.write(out / "linear_estimate.csv")
    return 0


def _cmd_verify(config, out) -> int:
    results = run_checks(config, out)
    rep = NormReport(
        kind="verify",
        columns=["check", "value", "threshold", "passed"],
        meta=config.meta(),
    )
    failures = []
    for r in results:
        rep.add(r.name, r.value, r.threshold, r.passed)
        status = "pass" if r.passed else "FAIL"
        print(f"{status:4s}  {r.name:28s} value={r.value:.3e} threshold={r.threshold:.3e}")
        if not r.passed:
            failures.append(r.name)
    rep.meta["failures"] = len(failures)
    rep.write(out / "verify.csv")
    if failures:
        raise ValidationFailure(f"{len(failures)} invariant(s) failed: {', '.join(failures)}")
    print(f"all {len(results)} invariants passed")
    return 0


def _cmd_compare(config, out) -> int:
    grid = config.grid()
    policy = DealiasPolicy(config.dealias)
    phi = seeded_data(config.data_kind, config.amplitudes[0], config.seed, grid, config.sigma0)
    s0 = stereo_lift(to_physical(phi))
    chart_traj, _ = picard_solve(
        phi, config.T, config.dt, tol=config.tol, max_iter=config.max_iter,
        sigma0=config.sigma0, policy=policy,
    )
    sphere_traj = midpoint_solve(s0, config.T, config.dt, inner_tol=config.inner_tol)
    rep = NormReport(
        kind="compare",
        columns=["m", "t", "h1_distance"],
        meta=config.meta(),
    )
    from ..geometry import sobolev_distance
    from ..solver import SPHERE, Trajectory

    worst = 0.0
    lifted_stack = np.empty_like(sphere_traj.values)
    for m in range(len(chart_traj)):
        lifted = stereo_lift(chart_traj.snapshot(m))
        lifted_stack[m] = lifted.values
        dist = sobolev_distance(lifted, sphere_traj.snapshot(m), 1.0)
        worst = max(worst, dist)
        rep.add(m, float(chart_traj.times[m]), dist)
    rep.meta["sup_h1_distance"] = worst
    rep.write(out / "compare.csv")

    # Same data through both integrators: the difference energy is pure
    # discretization error, and its growth series goes to its own CSV.
    lifted_traj = Trajectory(grid, chart_traj.times.copy(), lifted_stack, SPHERE)
    growth = gronwall_diagnostic(sphere_traj, lifted_traj)
    growth.meta.update(config.meta())
    growth.write(out / "gronwall.csv")
    print(f"sup_t H1 distance between chart and sphere routes: {worst:.6e}")
    return 0


_DISPATCH = {
    "evolve": _cmd_evolve,
    "picard": _cmd_picard,
    "norms": _cmd_norms,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}
