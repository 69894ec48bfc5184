"""Invariant suite behind the `verify` command.

Each check runs at a size derived from the config (shrunk where a full-size
run would be slow), returns its measured value and threshold, and the suite
fails if any check fails. Values are reported so regressions are visible in
the CSV even while checks stay green.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy 2 loads its submodules on first use; load these at import, not inside a command.
import numpy.random

from ..geometry import SphereField, sobolev_distance, stereo_lift, stereo_project
from ..grid import GridSpec
from ..nonlinearity import (
    NO_DEALIAS,
    DealiasPolicy,
    _derivative,
    _prefactor,
    nonlinearity_spectrum,
    sphere_rhs,
)
from ..report import NormReport
from ..solver import (
    Trajectory,
    difference_energy,
    duhamel_map,
    free_trajectory,
    gronwall_report,
    midpoint_snapshots,
    picard_solve,
    propagator_stack,
    uniform_times,
)
from ..spacetime import (
    DirectionSet,
    _cell_power,
    _rows,
    _shell_reductions,
    _window,
    fiber_norm,
    free_spectrum,
    lattice_vector,
)
from ..spectral import (
    PHYSICAL,
    PLATEAU,
    SUPPORT,
    ComplexField,
    eta0,
    eta_shell,
    grid_axes,
    hsigma_norm,
    jsigma_weights,
    l2_norm,
    psi,
    to_frequency,
    to_physical,
    unitary_dft,
)
from .data import seeded_data
from .snapshots import read_snapshot, write_snapshot


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


def _random_field(grid, rng, band=None):
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    radius = np.sqrt(grid.wavenumber_sq())
    cut = band if band is not None else 0.95 * np.sqrt(grid.d) * grid.nyquist
    spec *= (radius < cut) / (1.0 + radius)
    return to_physical(ComplexField(grid, 0.0, "frequency", spec))


def _multiplied(values: np.ndarray, grid: GridSpec, *mults) -> np.ndarray:
    """Samples of values with the spectrum multiplied by each multiplier in
    turn, one unitary_dft round trip per multiplier."""
    axes = grid_axes(values, grid)
    for mult in mults:
        spec = unitary_dft(values, axes)
        spec *= mult
        values = unitary_dft(spec, axes, inverse=True, out=spec)
    return values


def _mask_drift(row: np.ndarray, mask: np.ndarray) -> float:
    """Largest change when a 0/1 mask is applied twice instead of once."""
    once = row * mask
    twice = once * mask
    twice -= once
    return float(np.max(np.abs(twice)))


def _sample_gap(a: Trajectory, b: Trajectory) -> float:
    """Largest difference of the physical samples of two trajectories on
    the same times, streamed block by block."""
    return max(
        float(np.max(np.abs(x - y)))
        for (_, x), (_, y) in zip(a.sample_blocks(), b.sample_blocks())
    )


def _csv_body(report: NormReport) -> str:
    """The CSV text below the header comment line."""
    return report.to_csv(timestamp=False).split("\n", 1)[1]


def _spacetime_checks(config, grid, rng, check) -> None:
    """Space-time Plancherel, shell completeness, region-mask idempotence and
    the mixed-norm checks on the spectrum of a windowed free evolution of
    random data (free_spectrum, the one window-sized stack), read from the
    kernels behind norms: _cell_power's pooled cells, and _shell_reductions
    of shell 0, whose 3% of the points keep its gathered columns small. The
    region mask is built after the reductions' temporaries are freed, and
    it and the spectrum are dropped before the fiber norms.
    """
    F = free_spectrum(_random_field(grid, rng, band=4.0), 64, config.t_window)
    table = _window(grid, F.t_window, F.m_t)
    class_power = np.sum(_cell_power(F).cells, axis=0)
    spec_mass = np.sqrt(F.cell_measure * (table.shell_weights[0] @ class_power))
    _, sq_time, row_sq = _shell_reductions(F, F.shell_weights(0), np.ones(F.m_t, bool))
    st_mass = np.sqrt(grid.cell_volume * F.dt * np.sum(row_sq))
    per_point = F.dt * sq_time
    check("spacetime_plancherel", abs(spec_mass - st_mass) / st_mass, 1e-12)
    # The sharp annuli 2^(k-1) < |xi| <= 2^k (|xi| <= 1 at k = 0) of the classes
    annulus = np.searchsorted(2.0 ** np.arange(grid.max_shell + 2), np.sqrt(table.kappa))
    shells = np.sum(np.bincount(annulus, class_power)[: grid.max_shell + 2])
    mag = np.empty(grid.num_points)
    total = sum(np.sum(np.square(np.abs(row, out=mag), out=mag)) for row in _rows(F.values))
    check("shell_completeness", abs(shells - total) / total, 1e-10)
    rows = zip(_rows(F.values), _rows(F.region_mask(2, 3)))
    check("region_mask_idempotent", max(_mask_drift(row, mask) for row, mask in rows), 0.0)
    del rows, F
    worst = 0.0
    extent_ok = True
    for e in DirectionSet.default(grid.d):
        l22 = fiber_norm(per_point, e, grid, 2, 2)
        worst = max(worst, abs(l22 - st_mass) / st_mass)
        l12 = fiber_norm(per_point, e, grid, 1, 2)
        # extent of the fibration along e is n * dr
        extent = grid.n * grid.spacing / np.sqrt(np.count_nonzero(lattice_vector(e, grid.d)))
        if l12 > np.sqrt(extent) * l22 * (1.0 + 1e-10):
            extent_ok = False
    check("lpq_fubini", worst, 1e-12)
    check("lpq_cauchy_schwarz", 0.0 if extent_ok else 1.0, 0.5)


def run_checks(config, tmpdir) -> list:
    """Run the whole invariant battery; returns a list of CheckResult.

    Each section is a function of its own, so the fields a section makes
    are freed before the next one starts. The sections share one random
    stream, drawn in a fixed order.
    """
    rng = np.random.default_rng(config.seed)
    grid = GridSpec(config.d, min(config.n, 32), config.period)
    results = []

    def check(name, value, threshold, passed=None):
        ok = bool(value <= threshold) if passed is None else bool(passed)
        results.append(CheckResult(name, float(value), float(threshold), ok))

    _operator_checks(config, grid, rng, check)
    phi, hist, T, dt = _solver_checks(config, grid, check)
    _spacetime_checks(config, grid, rng, check)
    _format_checks(config, grid, phi, hist, T, dt, tmpdir, check)
    return results


def _operator_checks(config, grid, rng, check) -> None:
    """Transforms, the cutoff family, multiplier algebra, the chart and the
    nonlinearity, on random fields."""
    sigma0 = config.sigma0
    u = _random_field(grid, rng)
    spec = to_frequency(u)
    v = to_physical(spec)
    check("transform_roundtrip", np.max(np.abs(v.values - u.values)), 1e-13)
    check("plancherel", abs(l2_norm(spec) - l2_norm(u)) / l2_norm(u), 1e-12)

    # cutoff family
    radii = rng.uniform(0.0, PLATEAU * 2.0**10, size=1000)
    kmax = 10
    partition = sum(eta_shell(k, radii) for k in range(kmax + 1))
    check("partition_of_unity", np.max(np.abs(partition - 1.0)), 1e-12)
    exact = (
        eta0(1.0) == 1.0
        and eta0(PLATEAU) == 1.0
        and eta0(2.0) == 0.0
        and eta0(SUPPORT) == 0.0
        and psi(0.5) == 1.0
        and psi(1.7) == 0.0
    )
    check("eta_plateau_support", 0.0 if exact else 1.0, 0.5)

    # Smoothness proxy: transition-width-normalized difference quotients of
    # eta0 stay near their analytic limits (the raw order-4 derivative of any
    # admissible bump on this interval is ~1e5, so only the normalized
    # quotients are meaningful).
    width = SUPPORT - PLATEAU
    h = width / 64
    r = np.arange(PLATEAU - 4 * h, SUPPORT + 5 * h, h)
    vals = eta0(r)
    bounds = {1: 3.0, 2: 15.0, 3: 200.0, 4: 4000.0}
    worst = 0.0
    for order in range(1, 5):
        quot = np.max(np.abs(np.diff(vals, n=order))) / h**order * width**order
        worst = max(worst, quot / bounds[order])
    check("eta_smoothness_proxy", worst, 1.0)

    # multiplier algebra, on the multipliers the solver and the norms apply
    k2 = grid.wavenumber_sq()
    derivative = [_derivative(grid.d, grid.n, grid.period, axis) for axis in range(grid.d)]
    shell, bessel = eta_shell(2, np.sqrt(k2)), jsigma_weights(grid, 1.3)
    p21, p34, p55, p37 = propagator_stack(np.array([0.21, 0.34, 0.55, 0.37]), k2)
    a = _multiplied(u.values, grid, derivative[0], shell, bessel, p37)
    b = _multiplied(u.values, grid, shell, p37, bessel, derivative[0])
    check(
        "multiplier_commutation",
        np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-30),
        1e-12,
    )
    g1 = _multiplied(u.values, grid, p21, p34)
    check("propagator_group_law", np.max(np.abs(g1 - _multiplied(u.values, grid, p55))), 1e-12)
    jj = _multiplied(u.values, grid, jsigma_weights(grid, 1.7), jsigma_weights(grid, -1.7))
    check("jsigma_inverse", np.max(np.abs(jj - u.values)), 1e-12)

    # chart
    g = ComplexField(grid, 0.0, PHYSICAL, 0.4 * u.values / np.max(np.abs(u.values)))
    s = stereo_lift(g)
    check("lift_unit_norm", np.max(np.abs(np.sum(s.values**2, axis=0) - 1.0)), 1e-14)
    back = stereo_project(s)
    check("stereo_roundtrip", np.max(np.abs(back.values - g.values)), 1e-12)
    s2 = stereo_lift(ComplexField(grid, 0.0, PHYSICAL, 0.3 * np.roll(g.values, 5)))
    s3 = stereo_lift(ComplexField(grid, 0.0, PHYSICAL, 0.2 * np.roll(g.values, 9)))
    d12, d21 = sobolev_distance(s, s2, sigma0), sobolev_distance(s2, s, sigma0)
    tri = sobolev_distance(s, s3, sigma0) - d12 - sobolev_distance(s2, s3, sigma0)
    check("metric_symmetry", abs(d12 - d21), 1e-12)
    check("metric_triangle", max(tri, 0.0), 1e-12)

    # nonlinearity, on the kernels of the Picard solve and the midpoint sweep
    w = np.full(grid.shape, 2j)
    check("nzero_pointwise", np.max(np.abs(_prefactor(w, grid, NO_DEALIAS) - (-0.8j))), 1e-14)
    rhs = sphere_rhs(s.values, grid)
    check("cross_tangency", np.max(np.abs(np.sum(s.values * rhs, axis=0))), 1e-13)
    policy = DealiasPolicy(config.dealias)
    base = _random_field(grid, rng, band=grid.nyquist / 3.0).values
    axes = grid_axes(base, grid)

    def nl_spectrum(values, rule):
        """nonlinearity_spectrum of one field, as a one-row stack."""
        return nonlinearity_spectrum(unitary_dft(values, axes)[None], grid, rule)[0]

    sizes = {}
    for eps in (1e-2, 1e-3):
        nl = ComplexField(grid, 0.0, "frequency", nl_spectrum(eps * base, policy))
        sizes[eps] = l2_norm(nl) / eps**3
    check("cubic_scaling", abs(sizes[1e-2] / sizes[1e-3] - 1.0), 1e-2)
    conj_a = unitary_dft(nl_spectrum(np.conj(base), NO_DEALIAS), axes, inverse=True)
    grad_sq = sum(_multiplied(base, grid, mult) ** 2 for mult in derivative)
    conj_b = 2.0 * base / (1.0 + np.abs(base) ** 2) * np.conj(grad_sq)
    check("conjugation_symmetry", np.max(np.abs(conj_a - conj_b)), 1e-13)
    if policy.rule == "two_thirds":
        spec_nl = nl_spectrum(base, policy)
        outside = max(np.max(np.abs(spec_nl[slab])) for slab in policy.band(grid).complement)
        check("dealias_support", outside / max(np.max(np.abs(spec_nl)), 1e-300), 1e-14)


def _solver_checks(config, grid, check):
    """The Duhamel map, the Picard solve and the midpoint stream on a reduced
    run; returns its data, Picard history, window and step for the format
    checks."""
    sigma0 = config.sigma0
    policy = DealiasPolicy(config.dealias)
    # solver: a reduced run of at least 8 steps of min(4 dt, 1/64), so its
    # window stays near 0.125 and the midpoint sweeps converge for any
    # configured dt
    dt = min(config.dt * 4, 0.125 / 8)
    T = min(config.T, 0.125)
    steps = max(int(round(T / dt)), 8)
    T = steps * dt
    phi = seeded_data(config.data_kind, config.amplitudes[0], config.seed, grid, sigma0)
    times = uniform_times(T, dt)
    zero = np.zeros(grid.shape, np.complex128)
    image = Trajectory(grid, times, np.zeros((times.size,) + zero.shape, complex), NO_DEALIAS, zero)
    duhamel_map(phi, image, policy, sigma0)
    check("duhamel_zero_prev", _sample_gap(image, free_trajectory(phi, times)), 1e-12)
    traj, hist = picard_solve(
        phi, T, dt, tol=config.tol, max_iter=config.max_iter, sigma0=sigma0, policy=policy
    )
    # A zero-data solve stops before its first map and records no ratio.
    check("picard_contraction", max(hist.ratios, default=0.0), 0.5)
    image = Trajectory(grid, times, traj.values.copy(), traj.dealias, traj.free)
    duhamel_map(phi, image, policy, sigma0)
    res = _sample_gap(image, traj)
    check("picard_fixed_point", res, 2 * config.tol * max(hsigma_norm(phi, sigma0), 1e-30))

    pole = SphereField.constant(grid, (0.0, 0.0, 1.0))
    drift = max(
        np.max(np.abs(values - pole.values))
        for _, values, _ in midpoint_snapshots(pole, T, dt, inner_tol=config.inner_tol)
    )
    check("midpoint_equilibrium", drift, 1e-14)
    dev, energy = 0.0, []
    for _, values, _ in midpoint_snapshots(stereo_lift(phi), T, dt, inner_tol=config.inner_tol):
        dev = max(dev, np.max(np.abs(np.sqrt(np.sum(values**2, axis=0)) - 1.0)))
        energy.append(difference_energy(values, values, grid))
    check("midpoint_sphere_constraint", dev, 10 * config.inner_tol)
    rep = gronwall_report(uniform_times(T, dt), energy)
    check(
        "gronwall_identical_flag",
        0.0 if rep.meta.get("identical_trajectories") else 1.0,
        0.5,
    )
    return phi, hist, T, dt


def _format_checks(config, grid, phi, hist, T, dt, tmpdir, check) -> None:
    """Snapshot round trip, the seeded norm and the determinism of the CSV
    body of an independent Picard solve."""
    sigma0 = config.sigma0
    policy = DealiasPolicy(config.dealias)
    snap_path = tmpdir / "roundtrip.fld"
    write_snapshot(snap_path, phi)
    back_phi = read_snapshot(snap_path)
    first = snap_path.read_bytes()
    write_snapshot(snap_path, back_phi)
    identical = first == snap_path.read_bytes()
    check("snapshot_roundtrip", 0.0 if identical else 1.0, 0.5)
    check(
        "seeded_norm",
        abs(hsigma_norm(phi, sigma0) - config.amplitudes[0]),
        1e-10 * max(config.amplitudes[0], 1e-30),
    )
    # A second, independent Picard solve from freshly regenerated data must
    # write the same CSV body, byte for byte.
    phi_again = seeded_data(config.data_kind, config.amplitudes[0], config.seed, grid, sigma0)
    _, hist_again = picard_solve(
        phi_again, T, dt, tol=config.tol, max_iter=config.max_iter, sigma0=sigma0,
        policy=policy,
    )
    same = _csv_body(hist.to_report()) == _csv_body(hist_again.to_report())
    check("csv_determinism", 0.0 if same else 1.0, 0.5)
