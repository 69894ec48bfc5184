"""Acceptance suite: every criterion at desk scale (d=2, n=64, T=0.5,
dt=1/256 unless stated), one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smap.geometry import SphereField, sobolev_distance, stereo_lift
from smap.grid import GridSpec
from smap.harness.data import build_lemma_ensemble, seeded_data
from smap.nonlinearity import NO_DEALIAS, _derivative, sphere_rhs
from smap.solver import (
    Trajectory,
    duhamel_map,
    free_trajectory,
    midpoint_snapshots,
    picard_solve,
    propagator_stack,
    uniform_times,
)
from smap.spacetime import (
    DirectionSet,
    SpaceTimeSpectrum,
    fiber_norm,
    fsigma_upper,
    lemma_diagnostics,
    pooled_max_slope,
    spacetime_transform,
)
from smap.spectral import (
    FREQUENCY,
    PHYSICAL,
    ComplexField,
    eta_shell,
    hsigma_norm,
    hsigma_norm_spectra,
    l2_norm,
    to_frequency,
    to_physical,
    transform,
)

from conftest import gronwall_of, midpoint_stack, multiplied, nonlinearity_samples, physical_stack
from oracles import (
    chain_rule_pushforward,
    duhamel_constant_mode,
    free_gaussian_quadrature,
    gradient_fd,
    hsigma_quadrature,
    laplacian_c2c,
    lpq_separable_1d,
    mesh,
    moebius,
    plane_wave,
    rotated_spin_wave,
    rotation_about,
    rotation_about_e1,
    spectrum_of,
    time_reduction_direct,
    xk_point_mass,
)

D, N, PERIOD, T, DT = 2, 64, 4.0, 0.5, 1.0 / 256.0
SIGMA0 = 1.6
TOL = 1e-10
SEED = 7


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def grid():
    return GridSpec(D, N, PERIOD)


@pytest.fixture(scope="module")
def phi_small(grid):
    return seeded_data("gaussian_bump", 1e-3, SEED, grid, SIGMA0)


@pytest.fixture(scope="module")
def picard_small(grid, phi_small):
    return picard_solve(phi_small, T, DT, tol=TOL, max_iter=40, sigma0=SIGMA0)


@pytest.fixture(scope="module")
def midpoint_small(grid, phi_small):
    return midpoint_stack(stereo_lift(phi_small), T, DT, inner_tol=1e-12)


def test_criterion_1_picard_contraction(grid):
    details = []
    ok = True
    for amplitude in (1e-3, 1e-2):
        phi = seeded_data("gaussian_bump", amplitude, SEED, grid, SIGMA0)
        _, hist = picard_solve(phi, T, DT, tol=TOL, max_iter=40, sigma0=SIGMA0)
        worst = max(hist.ratios)
        ok &= worst <= 0.5 and len(hist.records) <= 40
        details.append(f"amp={amplitude:.0e}: max ratio {worst:.2e} in {len(hist.records)} iters")
    report(1, "picard contraction", ok, "; ".join(details))


def test_criterion_2_gauge_equivalence(grid, phi_small, picard_small, midpoint_small):
    def sup_h1(chart_traj, sphere_stack):
        worst = 0.0
        for m in range(0, len(chart_traj), 4):
            lifted = stereo_lift(to_physical(chart_traj.snapshot(m)))
            sphere = SphereField(lifted.grid, lifted.time, sphere_stack[m])
            worst = max(worst, sobolev_distance(lifted, sphere, 1.0))
        return worst

    chart, _ = picard_small
    d_base = sup_h1(chart, midpoint_small)

    fine = GridSpec(D, 2 * N, PERIOD)
    phi_fine = seeded_data("gaussian_bump", 1e-3, SEED, fine, SIGMA0)
    chart_fine, _ = picard_solve(phi_fine, T, DT / 2, tol=TOL, sigma0=SIGMA0)
    sphere_fine = midpoint_stack(stereo_lift(phi_fine), T, DT / 2, inner_tol=1e-12)
    d_fine = sup_h1(chart_fine, sphere_fine)

    order = np.log2(d_base / d_fine)
    ok = d_base <= 1e-5 and order >= 1.8
    report(
        2,
        "gauge equivalence",
        ok,
        f"sup_t H1 distance {d_base:.2e} (<= 1e-5), refined {d_fine:.2e}, order {order:.2f}",
    )


def test_criterion_3_sphere_constraint(midpoint_small):
    dev = float(np.max(np.abs(np.sqrt(np.sum(midpoint_small**2, axis=1)) - 1.0)))
    report(3, "sphere constraint", dev <= 1e-10, f"max | |s|-1 | = {dev:.2e} (<= 1e-10)")


def test_criterion_4_uniqueness_gronwall(grid):
    amplitude = 1e-2
    phi = seeded_data("gaussian_bump", amplitude, SEED, grid, SIGMA0)
    s0 = stereo_lift(phi)
    times = uniform_times(T, DT)
    run_a = midpoint_stack(s0, T, DT, inner_tol=1e-12)
    run_b = midpoint_stack(s0, T, DT, inner_tol=1e-13)
    energy = gronwall_of(times, run_a, run_b, grid).column("energy")
    same_ok = max(energy) <= 1e-18

    constants = {}
    direction = seeded_data("mode_sum", 1.0, 99, grid, SIGMA0)
    for delta in (1e-4, 1e-5):
        pert = ComplexField(
            grid, 0.0, PHYSICAL, phi.values + delta * amplitude * direction.values
        )
        other = midpoint_stack(stereo_lift(pert), T, DT, inner_tol=1e-12)
        rep = gronwall_of(times, run_a, other, grid)
        constants[delta] = rep.meta["gronwall_constant"]
    vals = [abs(c) for c in constants.values()]
    stable = np.isfinite(list(constants.values())).all() and max(vals) <= 2.0 * min(vals)
    report(
        4,
        "uniqueness/gronwall",
        same_ok and stable,
        f"same-data max E {max(energy):.2e} (<= 1e-18); "
        f"C_s {constants[1e-4]:.3e} vs {constants[1e-5]:.3e} (factor "
        f"{max(vals) / min(vals):.2f} <= 2)",
    )


def test_criterion_5_lipschitz_flow(grid, phi_small, picard_small):
    base_traj, _ = picard_small
    base = physical_stack(base_traj)
    direction = seeded_data("mode_sum", 1.0, 55, grid, SIGMA0)
    amplitude = 1e-3
    ratios = {0.0: [], 1.0: []}
    for rel in (1e-3, 1e-4, 1e-5):
        pert = ComplexField(
            grid, 0.0, PHYSICAL, phi_small.values + rel * amplitude * direction.values
        )
        traj, _ = picard_solve(pert, T, DT, tol=TOL, sigma0=SIGMA0)
        diff = physical_stack(traj) - base
        for extra in (0.0, 1.0):
            diff_hat = spectrum_of(diff, axes=(1, 2))
            num = float(np.max(hsigma_norm_spectra(diff_hat, grid, SIGMA0 + extra)))
            den = hsigma_norm(
                ComplexField(grid, 0.0, PHYSICAL, pert.values - phi_small.values),
                SIGMA0 + extra,
            )
            ratios[extra].append(num / den)
    ok = True
    details = []
    for extra, vals in ratios.items():
        spread = max(vals) / min(vals)
        ok &= all(np.isfinite(vals)) and spread <= 2.0
        details.append(
            f"sigma'={extra:.0f}: ratios {min(vals):.4f}..{max(vals):.4f} (spread {spread:.3f})"
        )
    report(5, "lipschitz flow", ok, "; ".join(details))


def test_criterion_6_linear_estimate(grid):
    window_times = uniform_times(2.0, DT, t0=-1.0)
    ratios = []
    for i in range(10):
        phi = seeded_data("random_bandlimited", 1.0, SEED + i, grid, SIGMA0)
        traj = free_trajectory(to_physical(phi), window_times)
        F = spacetime_transform(traj, 1.0)
        for sigma in (1.6, 2.6):
            ratios.append(fsigma_upper(F, sigma) / hsigma_norm(phi, sigma))
    spread = max(ratios) / min(ratios)
    ok = all(np.isfinite(ratios)) and spread <= 3.0
    report(
        6,
        "linear estimate",
        ok,
        f"ratios {min(ratios):.3f}..{max(ratios):.3f} over 10 data x 2 sigma "
        f"(spread {spread:.3f} <= 3)",
    )


def test_criterion_7_lemma_ratio_suite():
    shells = range(2, 7)
    egrid = GridSpec(D, N, 1.0)
    ensemble = build_lemma_ensemble(egrid, shells, 1280, seed=SEED, T=T, sigma0=SIGMA0)
    assert len(ensemble) == 20
    rep = lemma_diagnostics(ensemble, DirectionSet.default(D), shells, SIGMA0)

    ratios = [row[4] for row in rep.rows if row[2] in ("R2", "R3", "R4") and row[0] != "max"]
    finite = all(np.isfinite(v) for v in ratios) and len(ratios) > 0
    r4_max = max(row[4] for row in rep.rows if row[0] == "max" and row[2] == "R4")
    slope = pooled_max_slope(rep)
    per_quantity = {q: pooled_max_slope(rep, (q,)) for q in ("R2", "R3", "R4")}
    ok = finite and -0.5 <= slope <= 0.5 and r4_max <= 2.0
    report(
        7,
        "lemma ratio suite",
        ok,
        f"{len(ratios)} finite ratios on 20 members; pooled max-ratio slope "
        f"{slope:+.3f} in [-0.5, 0.5]; max R4 {r4_max:.3f} <= 2; per-quantity slopes "
        + ", ".join(f"{q}: {s:+.3f}" for q, s in per_quantity.items()),
    )


def test_criterion_8_unit_test_oracles():
    checks = []

    def add(name, err, tol):
        checks.append((name, float(err), tol, bool(err <= tol)))

    small = GridSpec(2, 32, 1.0)
    rng = np.random.default_rng(SEED)

    # Sobolev distance against dense-grid quadrature (relative).
    def g_fn(X, Y, flip):
        return 0.05 * np.exp(1j * X) + flip * 0.03j * np.exp(1j * (X + 2 * Y))

    X, Y = mesh(small)
    f1 = stereo_lift(ComplexField(small, 0.0, PHYSICAL, g_fn(X, Y, 1.0)))
    f2 = stereo_lift(ComplexField(small, 0.0, PHYSICAL, g_fn(X, Y, -1.0)))
    measured = sobolev_distance(f1, f2, 1.6)
    total = 0.0
    for comp in range(3):
        def diff_fn(Xf, Yf, comp=comp):
            def lift(vals):
                mod2 = np.abs(vals) ** 2
                return [
                    2 * vals.real / (1 + mod2),
                    2 * vals.imag / (1 + mod2),
                    (1 - mod2) / (1 + mod2),
                ][comp]

            return lift(g_fn(Xf, Yf, 1.0)) - lift(g_fn(Xf, Yf, -1.0))

        total += hsigma_quadrature(diff_fn, 2, 128, 1.0, 1.6) ** 2
    add("sobolev_distance_quadrature", abs(measured - np.sqrt(total)) / np.sqrt(total), 1e-6)

    # Free Gaussian against refined propagator quadrature.
    gg = GridSpec(2, 64, 4.0)
    Xg = mesh(gg)
    phi = ComplexField(gg, 0.0, PHYSICAL, np.exp(-(Xg[0] ** 2 + Xg[1] ** 2) / 2.0) + 0j)
    out = physical_stack(free_trajectory(phi, [0.0, 0.25]))[1]
    x = gg.axis_coordinates()
    o1 = free_gaussian_quadrature([x], 0.25, 1.0, xi_max=12.0, xi_step=1.0 / 16.0)
    add("free_gaussian_quadrature", np.max(np.abs(out - np.multiply.outer(o1, o1))), 1e-8)

    # Gradient against the sixth-order stencil.
    spec = rng.standard_normal(small.shape) + 1j * rng.standard_normal(small.shape)
    radius = np.sqrt(small.wavenumber_sq())
    spec *= (radius < small.nyquist / 3.0) / (1.0 + radius) ** 2
    u = to_physical(ComplexField(small, 0.0, "frequency", spec))
    stencil = gradient_fd(u.values, 0, small.spacing)
    derivative = [_derivative(small.d, small.n, small.period, axis) for axis in (0, 1)]
    spectral = multiplied(u.values, small, derivative[0])
    scale = np.max(np.abs(spectral))
    add(
        "gradient_fd_stencil",
        np.max(np.abs(spectral - stencil)) / scale,
        (small.nyquist / 3.0 * small.spacing) ** 6 / 64.0,
    )

    # Single-mode nonlinearity closed form.
    k0 = np.array([1.0, 2.0])
    eps = 0.05
    um = plane_wave(small, k0, amp=eps)
    nl = nonlinearity_samples(um.values, small, NO_DEALIAS)
    expected = -2.0 * np.sum(k0**2) * eps**3 / (1 + eps**2) * plane_wave(small, k0).values
    add("nonlinearity_single_mode", np.max(np.abs(nl - expected)), 1e-15)

    # Cubic power-series truncation.
    grad_sq = sum(multiplied(u.values, small, mult) ** 2 for mult in derivative)
    cubic = 2.0 * np.conj(u.values) * grad_sq
    rescaled = nonlinearity_samples(1e-2 * u.values, small, NO_DEALIAS) / 1e-6
    add(
        "nonlinearity_series_truncation",
        np.max(np.abs(rescaled - cubic)) / np.max(np.abs(cubic)),
        1e-3,
    )

    # Chart pushforward of the flow field (plane wave: exact on the grid).
    gpw = plane_wave(small, k0, amp=0.3)
    got = sphere_rhs(stereo_lift(gpw).values, small)
    lap = laplacian_c2c(gpw.values, small.d, small.n, small.period)
    nlv = nonlinearity_samples(gpw.values, small, NO_DEALIAS)
    add(
        "cross_rhs_chart_pushforward",
        np.max(np.abs(got - chain_rule_pushforward(gpw.values, 1j * (lap - nlv)))),
        1e-10,
    )

    # Integral map against the refined-quadrature mode oracle.
    lam = float(np.sum(k0**2))
    nu = -2.0 * lam * eps**3 / (1.0 + eps**2)
    times = uniform_times(0.5, 1.0 / 64.0)
    mode_hat = to_frequency(plane_wave(small, k0, amp=eps)).values
    stack = np.broadcast_to(mode_hat, (times.size,) + small.shape).copy()
    prev = Trajectory(small, times, stack, NO_DEALIAS, mode_hat)
    duhamel_map(plane_wave(small, k0, amp=0.02), prev, NO_DEALIAS, SIGMA0)
    unit = plane_wave(small, k0).values
    coef = np.sum(physical_stack(prev) * np.conj(unit), axis=(1, 2)) / small.num_points
    oracle = duhamel_constant_mode(0.02, nu, lam, times, refine=16)
    add("duhamel_refined_quadrature", np.max(np.abs(coef - oracle)), 5e-6)

    # One-point space-time spectrum shell norm.
    vals = np.zeros((64,) + small.shape, dtype=complex)
    F0 = SpaceTimeSpectrum(small, 1.0, vals)
    tau = F0.tau()
    b = int(np.argmin(np.abs(tau - (-lam + 1.0))))
    xi = small.axis_wavenumbers()
    idx = (int(np.argmin(np.abs(xi - k0[0]))), int(np.argmin(np.abs(xi - k0[1]))))
    vals[b, idx[0], idx[1]] = 2.5
    F0 = SpaceTimeSpectrum(small, 1.0, vals)
    oracle_xk = xk_point_mass(
        2.5, tau[b] + lam, eta_shell(1, np.linalg.norm(k0)), F0.cell_measure
    )
    point = lemma_diagnostics([("point", lambda: F0)], DirectionSet.default(2), [1], 1.6)
    (xk,) = [row[4] for row in point.rows if row[0] == "point" and row[2] == "Xk"]
    add("xk_point_mass", abs(xk - oracle_xk), 1e-12)

    # Windowed free mode: paraboloid concentration >= 99%.
    m_t = 256
    wdt = 2.0 / m_t
    wtimes = uniform_times(2.0, wdt, t0=-1.0)
    traj = free_trajectory(plane_wave(small, k0), wtimes)
    Fm = spacetime_transform(traj, 1.0)
    row = Fm.values[:, idx[0], idx[1]]
    inband = np.abs(Fm.tau() + lam) <= 16.0
    frac = np.sum(np.abs(row[inband]) ** 2) / np.sum(np.abs(row) ** 2)
    add("window_concentration", 1.0 - frac, 0.01)

    # Separable mixed norm against 1-d computations.
    i = np.arange(small.n)
    a = 1.0 + np.cos(2 * np.pi * i / small.n)
    b_arr = rng.standard_normal((16, small.n)) + 1j * rng.standard_normal((16, small.n))
    vals_sep = a[None, :, None] * b_arr[:, None, :]
    per_point = time_reduction_direct(vals_sep, 0.125, 2)
    got_l = fiber_norm(per_point, np.array([1.0, 0.0]), small, 1, 2)
    want_l = lpq_separable_1d(a, b_arr, small.spacing, small.spacing, 0.125, 1, 2)
    add("lpq_separable", abs(got_l - want_l) / want_l, 1e-10)

    # Trivial identity battery.
    uu = to_physical(ComplexField(small, 0.0, "frequency", spec))
    hat = transform(uu, "forward")
    add("plancherel", abs(l2_norm(hat) - l2_norm(uu)) / l2_norm(uu), 1e-12)
    radii = rng.uniform(0.0, 1.25 * 2.0**10, size=1000)
    add(
        "partition_of_unity",
        np.max(np.abs(sum(eta_shell(k, radii) for k in range(11)) - 1.0)),
        1e-12,
    )
    p21, p34, p55 = propagator_stack(np.array([0.21, 0.34, 0.55]), small.wavenumber_sq())
    ga = multiplied(multiplied(uu.values, small, p21), small, p34)
    gb = multiplied(uu.values, small, p55)
    add("propagator_group_law", np.max(np.abs(ga - gb)), 1e-12)
    lifted = stereo_lift(ComplexField(small, 0.0, PHYSICAL, 0.4 * u.values / np.max(np.abs(u.values))))
    add("lift_unit_norm", np.max(np.abs(np.sum(lifted.values**2, axis=0) - 1.0)), 1e-14)

    ok = all(c[3] for c in checks)
    lines = "; ".join(f"{name} {err:.1e}<={tol:.0e}" for name, err, tol, _ in checks)
    report(8, "unit-test oracles", ok, lines)


def chart_conservation_drifts(chart):
    """Relative drifts max_t |Q(t) - Q(0)| over every 8th sample of a chart
    trajectory: the Dirichlet energy E = int 4 |grad u|^2 / (1 + |u|^2)^2
    (full-grid spectral gradient) over E(0), and the mean int s dx of
    s = stereo_lift(u) over its largest component at t = 0."""
    grid = chart.grid
    energy, mean = [], []
    for m in range(0, len(chart), 8):
        spec = chart.snapshot(m)
        u = to_physical(spec).values
        grad_sq = 0.0
        for axis in range(grid.d):
            partial = 1j * grid.wavenumber_component(axis) * spec.values
            grad_sq = grad_sq + np.abs(to_physical(ComplexField(grid, 0.0, FREQUENCY, partial)).values) ** 2
        energy.append(grid.cell_volume * np.sum(4.0 * grad_sq / (1.0 + np.abs(u) ** 2) ** 2))
        lifted = stereo_lift(ComplexField(grid, spec.time, PHYSICAL, u)).values
        mean.append(grid.cell_volume * np.sum(lifted, axis=tuple(range(1, grid.d + 1))))
    energy, mean = np.array(energy), np.array(mean)
    return (
        float(np.max(np.abs(energy - energy[0])) / energy[0]),
        float(np.max(np.abs(mean - mean[0])) / np.max(np.abs(mean[0]))),
    )


def test_chart_route_conservation(grid):
    # Criterion 14: the chart route conserves the Schrodinger map's energy
    # and mean, a check of the nonlinearity that needs no sphere oracle.
    # Measured drifts from dt = 1/256 to 1/512 (the trapezoid's second
    # order on the bump):
    #   gaussian_bump 0.3: E 2.52e-9 -> 6.30e-10, int s 2.59e-12 -> 6.48e-13;
    #   gaussian_bump 0.1: E 2.86e-10 -> 7.15e-11, int s 9.64e-14 -> 2.41e-14;
    #   random_bandlimited 0.3, int s only, at dt = 1/256: 4.26e-13 (its E
    #   drift, 8.1e-8, is spatial: the 2/3 rule does not conserve the
    #   full-grid energy).
    # The 0.3 bump keeps its first bounds; the others sit 17-24% above the
    # larger drift of each case. The bump's E must fall at least 3.5x per
    # halving. A nonlinearity coefficient off by 1e-4
    # gives an E drift of 3.5e-8 on the 0.3 bump at either dt; a zeroed one
    # an int s drift of 4.9e-7 there and 1.6e-9 on the broadband data.
    details = []
    ok = True
    for amp, e_bound, s_bound in ((0.3, 5e-9, 1e-11), (0.1, 3.5e-10, 1.2e-13)):
        phi = seeded_data("gaussian_bump", amp, SEED, grid, SIGMA0)
        drifts = []
        for dt in (DT, DT / 2):
            chart, _ = picard_solve(phi, T, dt, tol=1e-12, sigma0=SIGMA0)
            drifts.append(chart_conservation_drifts(chart))
        (e_coarse, s_coarse), (e_fine, s_fine) = drifts
        ok &= max(e_coarse, e_fine) <= e_bound and max(s_coarse, s_fine) <= s_bound
        ok &= e_coarse >= 3.5 * e_fine
        details.append(
            f"bump {amp}: E drift {e_coarse:.2e} -> {e_fine:.2e} (<= {e_bound:.1e}, falls "
            f">= 3.5x per dt halving), int s drift {s_coarse:.2e} -> {s_fine:.2e} "
            f"(<= {s_bound:.1e})"
        )
    phi = seeded_data("random_bandlimited", 0.3, SEED, grid, SIGMA0)
    chart, _ = picard_solve(phi, T, DT, tol=1e-12, sigma0=SIGMA0)
    s_broad = chart_conservation_drifts(chart)[1]
    ok &= s_broad <= 5e-13
    details.append(f"random_bandlimited 0.3: int s drift {s_broad:.2e} (<= 5.0e-13)")
    report(14, "chart-route conservation", ok, "; ".join(details))


# Rotated spin waves: (grid, wavenumber k, T, sigma0). 16(a) and 16(b) run
# on the desk grid; the d = 3 case on the route_d3 grid.
SPIN_D2 = (GridSpec(D, N, PERIOD), np.array([1.0, 2.0]) / PERIOD, T, SIGMA0)
SPIN_D3 = (GridSpec(3, 32, PERIOD), np.array([1.0, 1.0, 1.0]) / PERIOD, 0.25, 2.1)


def spin_wave_error(amp, rot, dt, setup=SPIN_D2):
    """Relative sup-in-time H1 error of the chart route against the rotated
    spin wave, over every 1/32 of time: max_t ||u(t) - u_exact(t)||_H1 over
    max_t ||u_exact(t)||_H1."""
    grid, k, t_end, sigma0 = setup
    phi = rotated_spin_wave(grid, k, amp, rot, 0.0)
    chart, _ = picard_solve(phi, t_end, dt, tol=1e-13, sigma0=sigma0)
    worst = top = 0.0
    for m in range(0, len(chart), round(1.0 / (32.0 * dt))):
        time = float(chart.times[m])
        exact = to_frequency(rotated_spin_wave(grid, k, amp, rot, time))
        gap = ComplexField(grid, time, FREQUENCY, chart.snapshot(m).values - exact.values)
        worst = max(worst, hsigma_norm(gap, 1.0))
        top = max(top, hsigma_norm(exact, 1.0))
    return worst / top


def test_criterion_16a_chart_route_on_rotated_spin_wave():
    # The chart route against an exact solution at finite amplitude: a spin
    # wave with k = (1, 2) / period, rotated by 0.3 about e1, which carries
    # every harmonic of k. Measured errors: A = 0.3 8.88e-8 -> 2.22e-8 and
    # A = 0.6 6.14e-7 -> 1.54e-7 from dt = 1/128 to 1/256, 4.0x per halving
    # (the trapezoid's second order). The bounds sit about 15% above the
    # coarse errors. A nonlinearity coefficient off by 1e-4 reads 3.1e-6 at
    # A = 0.3, at either dt.
    rot = rotation_about_e1(0.3)
    details = []
    ok = True
    for amp, bound in ((0.3, 1.0e-7), (0.6, 7.0e-7)):
        coarse, fine = (spin_wave_error(amp, rot, dt) for dt in (1.0 / 128.0, 1.0 / 256.0))
        ok &= max(coarse, fine) <= bound and coarse >= 3.5 * fine
        details.append(
            f"A={amp}: {coarse:.2e} -> {fine:.2e} (<= {bound:.0e}, falls >= 3.5x per dt halving)"
        )
    report("16(a)", "chart route on a rotated spin wave", ok, "; ".join(details))


def sphere_spin_wave_error(amp, rot, dt, setup=SPIN_D2):
    """Max pointwise error of the sphere route (midpoint_snapshots) against
    the rotated spin wave R s, over every snapshot and component."""
    grid, k, t_end, _ = setup
    s0 = stereo_lift(rotated_spin_wave(grid, k, amp, rot, 0.0))
    worst = 0.0
    for time, values, _ in midpoint_snapshots(s0, t_end, dt):
        exact = stereo_lift(rotated_spin_wave(grid, k, amp, rot, time)).values
        worst = max(worst, float(np.max(np.abs(values - exact))))
    return worst


def test_criterion_16b_sphere_route_on_rotated_spin_wave():
    # The sphere route on 16(a)'s data. Measured errors: A = 0.3 2.48e-8 ->
    # 6.21e-9 and A = 0.6 7.13e-9 -> 1.78e-9 from dt = 1/128 to 1/256, 4.0x
    # per halving (the implicit midpoint's second order). The bounds sit
    # about 15% above the coarse errors. A Laplacian off by 1e-4 in the
    # sweep reads 7.2e-6 and 6.5e-6, at either dt.
    rot = rotation_about_e1(0.3)
    details = []
    ok = True
    for amp, bound in ((0.3, 2.9e-8), (0.6, 8.2e-9)):
        coarse, fine = (sphere_spin_wave_error(amp, rot, dt) for dt in (1.0 / 128.0, 1.0 / 256.0))
        ok &= max(coarse, fine) <= bound and coarse >= 3.5 * fine
        details.append(
            f"A={amp}: {coarse:.2e} -> {fine:.2e} (<= {bound:.1e}, falls >= 3.5x per dt halving)"
        )
    report("16(b)", "sphere route on a rotated spin wave", ok, "; ".join(details))


def test_criterion_16_d3_rotated_spin_wave_on_both_routes():
    # One rotated spin wave on the route_d3 grid (d = 3, n = 32, period 4,
    # sigma0 2.1): k = (1, 1, 1) / period, A = 0.3, rotated by 0.3 about e1,
    # T = 0.25, tol = 1e-13. Measured from dt = 1/64 to 1/128: the chart
    # route's relative sup-in-time H1 error 3.51e-8 -> 8.78e-9, the sphere
    # route's max pointwise error 1.07e-8 -> 2.68e-9, both 4.0x per halving.
    # The bounds sit 12-14% above the coarse errors. k = (1, 2, 1) / period
    # at T = 0.5 does not serve: at n = 32 its chart error is spatial, 6.0e-6
    # at every dt.
    rot = rotation_about_e1(0.3)
    details = []
    ok = True
    for route, error, bound in (
        ("chart", spin_wave_error, 4.0e-8),
        ("sphere", sphere_spin_wave_error, 1.2e-8),
    ):
        coarse, fine = (error(0.3, rot, dt, SPIN_D3) for dt in (1.0 / 64.0, 1.0 / 128.0))
        ok &= max(coarse, fine) <= bound and coarse >= 3.5 * fine
        details.append(
            f"{route}: {coarse:.2e} -> {fine:.2e} (<= {bound:.1e}, falls >= 3.5x per dt halving)"
        )
    report("16 (d = 3)", "both routes on a rotated spin wave", ok, "; ".join(details))


@settings(max_examples=12)
@given(
    z=st.floats(-1.0, 1.0),
    azimuth=st.floats(0.0, 2.0 * math.pi),
    angle=st.floats(0.0, 0.3),
    j=st.sampled_from([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]),
)
def test_chart_route_on_randomly_rotated_spin_waves(z, azimuth, angle, j):
    # The chart route solves every rotated spin wave of amplitude 0.3
    # (d = 2, n = 32, period 4, T = 0.25, dt = 1/64), for a rotation about
    # any axis on the sphere (z and azimuth, uniform) by up to 0.3 and a
    # lattice vector with entries in {-1, 0, 1}. The error is temporal
    # there: over 200 random draws it fell 4.00x per halving of dt in every
    # draw, and n = 64 matched n = 32 to 2e-6 of the error. Over those draws
    # it reached 8.5e-9, and 9.6e-9 on a scan of axes at angle 0.3
    # (k = (1, 1) / period, the axis in the x-y plane); the bound sits 15%
    # above that. Entries up to 2 leave it spatial at n = 32 (n = 64 reads
    # up to 20x less).
    r = math.sqrt(max(0.0, 1.0 - z * z))
    rot = rotation_about((r * math.cos(azimuth), r * math.sin(azimuth), z), angle)
    setup = (GridSpec(2, 32, PERIOD), np.array(j, dtype=float) / PERIOD, 0.25, SIGMA0)
    assert spin_wave_error(0.3, rot, 1.0 / 64.0, setup) <= 1.1e-8


def test_criterion_16c_chart_route_commutes_with_a_target_rotation(grid):
    # A rotation R of the sphere maps solutions to solutions; in the chart it
    # is the Moebius map M_R. Solve from phi and from M_R(phi): the relative
    # sup-in-time H1 distance between M_R(u(t)) and v(t), over every 1/32 of
    # time, measured 8.43e-9 (a spatial defect: 1.0e-4 at n = 32, 3.4e-9 at
    # n = 128). A nonlinearity coefficient off by 1e-4 reads 3.03e-8, and
    # u in place of conj(u) in the prefactor 6.48e-4.
    rot = rotation_about_e1(0.2)
    phi = seeded_data("gaussian_bump", 0.3, SEED, grid, SIGMA0)
    u, _ = picard_solve(phi, T, DT, tol=1e-13, sigma0=SIGMA0)
    v, _ = picard_solve(moebius(rot, phi), T, DT, tol=1e-13, sigma0=SIGMA0)
    worst = top = 0.0
    for m in range(0, len(u), round(1.0 / (32.0 * DT))):
        mapped = to_frequency(moebius(rot, to_physical(u.snapshot(m))))
        image = v.snapshot(m)
        gap = ComplexField(grid, image.time, FREQUENCY, mapped.values - image.values)
        worst = max(worst, hsigma_norm(gap, 1.0))
        top = max(top, hsigma_norm(image, 1.0))
    defect = worst / top
    report(
        "16(c)",
        "chart route commutes with a target rotation",
        defect <= 1e-8,
        f"gaussian_bump 0.3, rotation 0.2 about e1: defect {defect:.2e} (<= 1.0e-08)",
    )
