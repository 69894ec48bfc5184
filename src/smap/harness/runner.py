"""Command implementations behind the CLI.

Every command reads an ExperimentConfig, writes CSV (and snapshot) files
into the output directory, and is deterministic for a fixed config and
seed; timestamps appear only in CSV comment lines.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import partial
from itertools import takewhile
from pathlib import Path

import numpy as np

from ..errors import ConfigError, MaxIterExceeded, NoContraction, ValidationFailure
from ..geometry import SphereField, stereo_lift
from ..nonlinearity import DealiasPolicy
from ..report import NormReport
from ..solver import (
    difference_energy,
    gronwall_report,
    midpoint_snapshots,
    picard_solve,
    uniform_times,
)
from ..spacetime import (
    DirectionSet,
    free_cell_power,
    lemma_diagnostics,
    pooled_max_slope,
)
from ..spectral import PHYSICAL, ComplexField, eta_shell, hsigma_norm, to_physical
from .checks import run_checks
from .config import ExperimentConfig
from .data import build_lemma_ensemble, seeded_data, sphere_seeded_data
from .snapshots import write_snapshot

COMMANDS = ("evolve", "picard", "norms", "verify", "compare")


def run(command: str, config: ExperimentConfig) -> int:
    """Execute one harness command; returns 0 on success, raises on failure
    after removing the output directories it made that are still empty."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; choose from {COMMANDS}")
    out = Path(config.out_dir)
    made = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file on the path, or no permission
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    try:
        return _DISPATCH[command](config, out)
    except BaseException:
        with suppress(OSError):  # innermost first, up to one that has files
            for path in made:
                path.rmdir()
        raise


def _cmd_evolve(config, out) -> int:
    grid = config.grid()
    s0 = sphere_seeded_data(config.data_kind, config.amplitudes[0], config.seed, grid, config.sigma0)
    last = uniform_times(config.T, config.dt).size - 1
    rep = NormReport(
        kind="evolve",
        columns=["m", "t", "norm_defect"],
        meta={**config.meta(), "snapshots": "evolve_*.fld"},
    )
    sweeps = []
    steps = midpoint_snapshots(s0, config.T, config.dt, inner_tol=config.inner_tol)
    for m, (t, values, step_sweeps) in enumerate(steps):
        sweeps.append(step_sweeps)
        defect = float(np.max(np.abs(np.sqrt(np.sum(values**2, axis=0)) - 1.0)))
        rep.add(m, t, defect)
        if m % config.snapshot_stride == 0 or m == last:
            write_snapshot(out / f"evolve_{m:06d}.fld", SphereField(grid, t, values))
    rep.meta.update(_sweep_meta(sweeps))
    rep.write(out / "evolve.csv")
    return 0


def _sweep_meta(sweeps) -> dict:
    """Midpoint telemetry for a report's comment line: the inner sweeps of
    the whole solve and the most that one step took."""
    return {"inner_sweeps": sum(sweeps), "inner_sweeps_max": max(sweeps)}


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


def _norms_windows(config) -> int:
    """Check the shells and the two windows `norms` uses; returns the
    linear-estimate rows.

    Checked before any work, because the config validation does not cover
    them (no other command reads these keys): the shells must lie on the
    ensemble grid, the ensemble step must divide T for the members' Picard
    solve, and dt must divide the linear-estimate window. Each window's
    step must also resolve the paraboloid tau = -|xi|^2 of the frequencies
    it analyses: a window of step h samples |tau| < pi / h, and a free mode
    at |xi|^2 beyond that aliases in time and reads a wrong X_k.
    """
    max_shell = config.ensemble_grid().max_shell
    if max(config.shells) > max_shell:
        raise ConfigError(
            f"norms: shells must not exceed {max_shell}, the last shell of the ensemble "
            f"grid (n={config.n}, ensemble_period={config.ensemble_period})"
        )
    wdt = 2.0 * config.t_window / config.ensemble_samples
    span = 2.0 * config.t_window
    for step, total, what in (
        (wdt, config.T, f"ensemble step 2*t_window/ensemble_samples = {wdt:g} must divide T"),
        (config.dt, span, f"dt must divide the linear-estimate window 2*t_window = {span:g}"),
    ):
        try:
            uniform_times(total, step)
        except ValueError as exc:
            raise ConfigError(f"norms: {what} ({exc})") from exc

    shell_top = _top_wavenumber_sq(config.ensemble_grid(), config.shells)
    if shell_top >= math.pi / wdt:
        least = math.floor(2.0 * config.t_window * shell_top / math.pi) + 1
        raise ConfigError(
            f"norms: the ensemble window resolves |xi|^2 < pi*ensemble_samples/(2*t_window) "
            f"= {math.pi / wdt:g}, but shells {','.join(map(str, config.shells))} reach "
            f"|xi|^2 = {shell_top:g} and would alias in time; raise ensemble_samples "
            f"to at least {least}, or drop the top shells"
        )
    solve_top = _top_wavenumber_sq(config.grid())
    if solve_top >= math.pi / config.dt:
        raise ConfigError(
            f"norms: the linear-estimate window resolves |xi|^2 < pi/dt = "
            f"{math.pi / config.dt:g}, but the solve grid reaches |xi|^2 = {solve_top:g} "
            f"and would alias in time; lower dt below {math.pi / solve_top:g}"
        )
    return int(round(span / config.dt))


def _top_wavenumber_sq(grid, shells=None) -> float:
    """Largest |xi|^2 of the grid's modes below the spatial Nyquist index on
    every axis, where one of the shells (if given) has nonzero weight.

    A mode with index n/2 on some axis is left out: the grid cannot tell it
    from its mirror -n/2, so its frequency is ambiguous in space already.
    """
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.d):
        keep &= np.abs(grid.wavenumber_component(axis)) < grid.nyquist
    kappa = grid.wavenumber_sq()
    if shells is not None:
        radius = np.sqrt(kappa)
        keep &= np.any([eta_shell(k, radius) != 0.0 for k in shells], axis=0)
    return float(np.max(kappa[keep], initial=0.0))


def _cmd_norms(config, out) -> int:
    lin_samples = _norms_windows(config)
    # Linear-estimate constants: windowed free evolution vs data norm. The
    # data join the ensemble's pool as bound-only members, whose pooled power
    # comes in closed form (no spectrum is built); their Fsigma rows follow
    # the main report's max rows, and the richer table goes to its own file.
    solve_grid = config.grid()
    sigmas = (config.sigma0, config.sigma0 + 1.0)
    lin_data = [
        seeded_data("random_bandlimited", 1.0, config.seed + i, solve_grid, config.sigma0)
        for i in range(10)
    ]
    bound_members = [
        (f"free_phi{i}",
         partial(free_cell_power, phi, lin_samples, config.t_window), sigmas)
        for i, phi in enumerate(lin_data)
    ]
    ensemble = build_lemma_ensemble(
        config.ensemble_grid(),
        config.shells,
        config.ensemble_samples,
        config.seed,
        T=config.T,
        sigma0=config.sigma0,
        t_window=config.t_window,
        tol=config.tol,
        max_iter=config.max_iter,
        policy=DealiasPolicy(config.dealias),
    )
    rep = lemma_diagnostics(
        ensemble,
        DirectionSet.named(config.directions, config.d),
        shells=config.shells,
        fsigma_sigma=config.sigma0,
        bound_members=bound_members,
    )
    rep.meta.update(config.meta())
    try:
        rep.meta["pooled_max_slope"] = pooled_max_slope(rep)
    except ValueError:
        pass

    lin = NormReport(
        kind="linear_estimate",
        columns=["phi_id", "sigma", "fsigma_upper", "hsigma", "ratio"],
        meta=config.meta(),
    )
    for i, phi in enumerate(lin_data):
        uppers = [row[4] for row in rep.rows if row[0] == f"free_phi{i}"]
        for sigma, fs in zip(sigmas, uppers):
            hs = hsigma_norm(phi, sigma)
            lin.add(i, sigma, fs, hs, fs / hs)
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
    rep = NormReport(
        kind="compare",
        columns=["m", "t", "h1_distance"],
        meta=config.meta(),
    )
    worst = 0.0
    # Same data through both integrators: the difference energy is pure
    # discretization error, and its growth series goes to its own CSV. The
    # sphere route is stepped beside the chart route's stream of physical
    # snapshots and the lift of each, so no sphere, chart or lifted stack
    # is kept.
    energy = []
    sweeps = []
    sphere = midpoint_snapshots(s0, config.T, config.dt, inner_tol=config.inner_tol)
    chart = (row for _, block in chart_traj.sample_blocks() for row in block)
    for m, ((_, values, step_sweeps), row) in enumerate(zip(sphere, chart)):
        sweeps.append(step_sweeps)
        lifted = stereo_lift(ComplexField(grid, float(chart_traj.times[m]), PHYSICAL, row))
        # The H^1 distance is the square root of the same energy.
        energy.append(difference_energy(values, lifted.values, grid))
        dist = math.sqrt(energy[-1])
        worst = max(worst, dist)
        rep.add(m, float(chart_traj.times[m]), dist)
    rep.meta["sup_h1_distance"] = worst
    rep.meta.update(_sweep_meta(sweeps))
    rep.write(out / "compare.csv")

    growth = gronwall_report(chart_traj.times, energy)
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
