import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from smap import solver, spacetime, spectral
from smap.errors import (
    EmptyEnsemble,
    NoContraction,
    UnsupportedDirection,
    WindowTooShort,
)
from smap.geometry import stereo_lift
from smap.grid import GridSpec
from smap.nonlinearity import NO_DEALIAS
from smap.solver import (
    Trajectory,
    free_trajectory,
    midpoint_snapshots,
    picard_solve,
    uniform_times,
)
from smap.spacetime import (
    TIME_CUT,
    DirectionSet,
    FreeMember,
    PooledPower,
    SpaceTimeSpectrum,
    fiber_norm,
    free_cell_power,
    free_spectrum,
    fsigma_upper,
    lattice_vector,
    lemma_diagnostics,
    nsigma_upper,
    pooled_max_slope,
    spacetime_transform,
    window_profile,
    windowed_samples,
)
from smap.spectral import (
    FREQUENCY,
    PHYSICAL,
    PLATEAU,
    SUPPORT,
    ComplexField,
    eta_shell,
    laplacian_values,
    stack_empty,
    to_physical,
    transform,
)

from conftest import allow_cpus, random_smooth_field, traced_peak
from oracles import (
    l2_mass_direct,
    lattice_vector_search,
    lpq_separable_1d,
    omega_direct,
    plane_wave,
    region_mask_direct,
    samples_of,
    section_sanity_direct,
    shell_mass_disjoint_direct,
    shell_reductions_oracle,
    shell_samples_oracle,
    sigma_sum_direct,
    spacetime_samples_oracle,
    spacetime_spectrum_oracle,
    time_reduction_direct,
    transform_complex,
    window_dft,
    windowed_complex,
    windowed_samples_fancy,
    xk_direct,
    xk_point_mass,
)


def shell_table_values(F, k):
    """(X_k, R1) of shell k, read from the shell tables as lemma_diagnostics
    reads them."""
    power, diag, overlap = spacetime._shell_tables(spacetime._cell_power(F))
    xk = spacetime._xk_values(power)
    r1 = spacetime._section_sanity(diag, overlap, xk)
    return spacetime._at_shell(xk, k), spacetime._at_shell(r1, k)


def table_xk(F, k):
    return shell_table_values(F, k)[0]


def mixed_norm(values, grid, dt, e, p, q):
    """Mixed norm of a sample stack: its time reduction, then the fiber norm."""
    return fiber_norm(time_reduction_direct(values, dt, q), e, grid, p, q)


def pooled_annulus_masses(F):
    """L2 masses of the sharp annuli 2^(k-1) < |xi| <= 2^k (|xi| <= 1 at
    k = 0), k = 0..max_shell + 1, from the cells of _cell_power, as
    verify's shell_completeness sums them, and the mass of all cells."""
    kappa = np.unique(F.grid.wavenumber_sq())
    class_power = np.sum(spacetime._cell_power(F).cells, axis=0)
    radius = np.sqrt(kappa)
    masses = []
    for k in range(F.grid.max_shell + 2):
        sel = radius <= 1.0 if k == 0 else (radius > 2.0 ** (k - 1)) & (radius <= 2.0**k)
        masses.append(math.sqrt(F.cell_measure * np.sum(class_power[sel])))
    return masses, math.sqrt(F.cell_measure * np.sum(class_power))


def factories(members):
    """(name, spectrum) pairs as lemma_diagnostics takes them: (name, factory)."""
    return [(name, lambda F=F: F) for name, F in members]


def window_grid(t_window=1.0, m_t=64):
    dt = 2.0 * t_window / m_t
    return uniform_times(2 * t_window, dt, t0=-t_window), dt


class TestDirections:
    def test_default_set_d2(self):
        ds = DirectionSet.default(2)
        assert len(ds.vectors) == 8
        for e in ds:
            assert abs(np.linalg.norm(e) - 1.0) < 1e-15
            assert any(np.array_equal(-e, f) for f in ds)

    def test_lattice_vector_axis_and_diagonal(self):
        assert np.array_equal(lattice_vector(np.array([1.0, 0.0]), 2), [1, 0])
        diag = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.array_equal(lattice_vector(diag, 2), [1, -1])

    def test_non_lattice_rejected(self):
        bad = np.array([0.8, 0.6])
        with pytest.raises(UnsupportedDirection):
            lattice_vector(bad, 2)
        for bad in (np.array([np.nan, 1.0]), np.zeros(2), np.ones(3) / np.sqrt(3.0)):
            with pytest.raises(UnsupportedDirection):
                lattice_vector(bad, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_lattice_direction_matches_search(self, d):
        for m in itertools.product((-1, 0, 1), repeat=d):
            if any(m):
                e = np.array(m, dtype=float) / np.sqrt(np.sum(np.square(m)))
                assert np.array_equal(lattice_vector(e, d), lattice_vector_search(e, d))

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d).filter(any),
                st.integers(0, d - 1),
                st.sampled_from([0.0, 1e-14, -5e-13, 2e-12, -1e-9, 1e-3, 0.2, -0.45, 0.7]),
            )
        )
    )
    def test_perturbed_direction_agrees_with_search(self, case):
        m, axis, delta = case
        d = len(m)
        e = np.array(m, dtype=float) / np.sqrt(np.sum(np.square(m)))
        e[axis] += delta
        want = lattice_vector_search(e, d)
        if want is None:
            with pytest.raises(UnsupportedDirection):
                lattice_vector(e, d)
        else:
            assert np.array_equal(lattice_vector(e, d), want)

    def test_direction_set_rejects_non_lattice_at_construction(self):
        # The set is checked when it is made, before any member is analysed.
        with pytest.raises(UnsupportedDirection, match="not lattice-aligned"):
            DirectionSet(np.array([[0.8, 0.6], [-0.8, -0.6]]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_named_sets_keep_default_rows_and_order(self, d):
        # The axes are the rows of default(d) with one nonzero entry; the
        # full set is default(d) itself, in its order and with its bits.
        full = DirectionSet.default(d).vectors
        axes = full[[int(np.sum(np.abs(e) > 1e-12)) == 1 for e in full]]
        for name, want in (("axes", axes), ("axes_diagonals", full)):
            got = DirectionSet.named(name, d).vectors
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="unknown direction set 'diagonals'"):
            DirectionSet.named("diagonals", d)


class TestTransform:
    def test_zero_trajectory(self, grid32):
        times, _ = window_grid()
        zero = np.zeros(grid32.shape, complex)
        values = np.zeros((times.size,) + zero.shape, complex)
        traj = Trajectory(grid32, times, values, NO_DEALIAS, zero)
        F = spacetime_transform(traj, 1.0)
        assert l2_mass_direct(F) == 0.0

    def test_plancherel_and_roundtrip(self, grid32, rng):
        times, dt = window_grid()
        traj = free_trajectory(random_smooth_field(grid32, rng, band=4.0), times)
        F = spacetime_transform(traj, 1.0)
        samples = windowed_samples(traj, 1.0)
        mass = np.sqrt(grid32.cell_volume * dt * np.sum(np.abs(samples) ** 2))
        assert abs(l2_mass_direct(F) - mass) < 1e-12 * mass
        back = spacetime_samples_oracle(F)
        assert np.max(np.abs(back - samples)) < 1e-13

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 16), (3, 8)])
    def test_transform_matches_reference_rounding(self, d, n, rng):
        # The split centring (spatial sign, then time sign times scale) is
        # exact, so the spectrum equals the one-sign-array reference bit for bit.
        grid = GridSpec(d, n, 1.0)
        times, _ = window_grid(1.0, 32)
        traj = free_trajectory(random_smooth_field(grid, rng), times)
        want = spacetime_spectrum_oracle(windowed_samples(traj, 1.0), grid, 1.0)
        assert np.array_equal(spacetime_transform(traj, 1.0).values, want)

    def test_window_slice_matches_fancy_index(self, grid32, rng):
        phi = random_smooth_field(grid32, rng, band=4.0)
        dt = 2.0 / 64.0
        for traj in (
            free_trajectory(phi, uniform_times(2.0, dt, t0=-1.0)),  # covers the window
            free_trajectory(phi, uniform_times(0.5, dt)),  # [0, T]: extends both ways
        ):
            want = windowed_samples_fancy(traj, 1.0)
            assert np.array_equal(windowed_samples(traj, 1.0), want)

    def test_band_trajectory_windows_as_its_full_rows(self, grid32, rng):
        # A Picard fixed point keeps its 2/3 band; its window samples, the
        # rows inside and the free edges on both sides, have the bits of the
        # same rows stored with every mode.
        phi = random_smooth_field(grid32, rng, amp=0.1)
        traj, _ = picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=1.6)
        full = np.stack([traj.snapshot(m).values for m in range(len(traj))])
        stored = Trajectory(grid32, traj.times, full, NO_DEALIAS, traj.free)
        assert np.array_equal(windowed_samples(traj, 1.0), windowed_samples(stored, 1.0))

    @given(
        d=st.sampled_from([1, 2, 3]),
        m_t=st.sampled_from([16, 32]),
        steps=st.integers(1, 7),
        rows=st.integers(1, 32),
        seed=st.integers(0, 2**16),
    )
    def test_streamed_window_matches_free_spectrum(self, d, m_t, steps, rows, seed):
        # A trajectory on [0, T], T < T_w, needs free-evolution rows on both
        # sides; blocks of 1 row up to the whole window stack. Inside rows
        # and edges are rebuilt block by block in their window rows, with
        # the bits of the whole-stack inverses. The trajectory on the
        # window's own rows starts its propagator recurrence at -T_w instead
        # of 0, so it agrees to rounding, and its transform is free_spectrum
        # bit for bit.
        grid = GridSpec(d, {1: 16, 2: 8, 3: 8}[d], 2.0)
        phi = random_smooth_field(grid, np.random.default_rng(seed), band=grid.nyquist)
        dt = 2.0 / m_t
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "BLOCK_BYTES", min(rows, m_t) * 16 * grid.num_points)
            short = free_trajectory(phi, uniform_times(steps * dt, dt))
            got = windowed_samples(short, 1.0)
            assert np.array_equal(got, windowed_samples_fancy(short, 1.0))
            full = free_trajectory(phi, uniform_times(2.0 - dt, dt, t0=-1.0))
            want = windowed_samples(full, 1.0)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            F = free_spectrum(phi, m_t, 1.0)
            assert np.array_equal(spacetime_transform(full, 1.0).values, F.values)

    def test_off_grid_trajectory_rejected(self, grid32, rng):
        # Times half a step off the window grid match no window row, so the
        # rows inside [t0, t_end] would have no sample: rejected, never filled
        # with whatever the buffer held.
        dt = 2.0 / 64.0
        traj = free_trajectory(
            random_smooth_field(grid32, rng), uniform_times(1.0, dt, t0=-0.5 + dt / 2)
        )
        with pytest.raises(ValueError, match="off the window grid"):
            windowed_samples(traj, 1.0)
        with pytest.raises(ValueError, match="off the window grid"):
            spacetime_transform(traj, 1.0)

    def test_transform_holds_one_trajectory_beside_its_samples(self, grid32, rng):
        times, _ = window_grid(1.0, 128)
        traj = free_trajectory(random_smooth_field(grid32, rng), times)
        spacetime_transform(traj, 1.0)  # warm the caches
        with traced_peak() as peak:
            spacetime_transform(traj, 1.0)
        assert peak.bytes < 1.5 * traj.values.nbytes

    def test_free_spectrum_in_one_buffer(self, grid32, rng):
        # Same bits as transforming the free trajectory, with the samples
        # windowed and transformed in the evolution's own buffer.
        times, _ = window_grid(1.0, 128)
        phi = random_smooth_field(grid32, rng)
        want = spacetime_transform(free_trajectory(phi, times), 1.0).values
        assert np.array_equal(free_spectrum(phi, 128, 1.0).values, want)
        with traced_peak() as peak:
            free_spectrum(phi, 128, 1.0)
        trajectory_bytes = 16 * times.size * grid32.num_points
        assert peak.bytes < 1.3 * trajectory_bytes

    @pytest.mark.parametrize("m_t", [640, 1280])
    def test_free_spectrum_bits_off_a_power_of_two(self, m_t, rng):
        # Where 2 T_w / m_t is inexact, times[1] - times[0] differs from it
        # in the last bits; the window profile reads the former, as the
        # transform of the evolved trajectory does.
        grid = GridSpec(1, 16, 1.0)
        phi = random_smooth_field(grid, rng)
        times = uniform_times(2.0, 2.0 / m_t, t0=-1.0)
        want = spacetime_transform(free_trajectory(phi, times), 1.0).values
        assert np.array_equal(free_spectrum(phi, m_t, 1.0).values, want)

    @pytest.mark.parametrize("m_t", [64, 1280])
    def test_windowed_samples_and_free_members_read_the_window_table(self, m_t, monkeypatch):
        # A datum of one zero mode evolves to samples of exactly 1, so the
        # windowed samples are the profile itself. Trajectories and free
        # members read the window table's rows, and the profile at
        # -T_w + s m for their step s: a free member's and a trajectory's
        # from -T_w at h = times[1] - times[0], and a trajectory's on
        # [0, T] (the norms Picard member's shape) at 2 T_w / m_t. At
        # m_t = 1280, where 2 T_w / m_t is inexact, the two steps differ.
        grid = GridSpec(1, 16, 1.0)
        spec = np.zeros(grid.shape, dtype=complex)
        spec[0] = 4.0
        phi = ComplexField(grid, 0.0, FREQUENCY, spec)
        seen = []
        transform_samples = spacetime._transform

        def record(samples, grid, t_window):
            seen.append(samples.copy())
            return transform_samples(samples, grid, t_window)

        monkeypatch.setattr(spacetime, "_transform", record)
        dt = 2.0 / m_t
        times = -1.0 + dt * np.arange(m_t)
        h = times[1] - times[0]
        table = spacetime._window(grid, 1.0, m_t)
        assert np.array_equal(table.times, times)
        assert np.array_equal(table.row_profile, window_profile(times, 1.0))
        assert np.array_equal(table.profile, window_profile(-1.0 + h * np.arange(m_t), 1.0))
        free_spectrum(phi, m_t, 1.0)
        from_window = windowed_samples(free_trajectory(phi, uniform_times(2.0, dt, t0=-1.0)), 1.0)
        from_zero = windowed_samples(free_trajectory(phi, uniform_times(0.25, dt)), 1.0)
        assert np.array_equal(from_window, seen[0])
        assert np.array_equal(from_window, np.broadcast_to(table.profile[:, None], from_window.shape))
        assert np.array_equal(from_zero, np.broadcast_to(table.row_profile[:, None], from_zero.shape))

    def test_transform_leaves_trajectory_unchanged(self, grid32, rng):
        # The caller's samples stay as they are, whether the trajectory
        # covers the window or is extended by free evolution.
        times, _ = window_grid(1.0, 64)
        phi = random_smooth_field(grid32, rng)
        for traj in (
            free_trajectory(phi, times),
            free_trajectory(phi, uniform_times(0.5, 2.0 / 64)),
        ):
            before = traj.values.copy()
            spacetime_transform(traj, 1.0)
            assert np.array_equal(traj.values, before)

    def test_window_too_short(self, grid32, rng):
        traj = free_trajectory(
            random_smooth_field(grid32, rng), uniform_times(2.0, 0.25, t0=-1.0)
        )
        with pytest.raises(WindowTooShort):
            spacetime_transform(traj, 1.0)

    def test_extension_by_free_evolution(self, grid32, rng):
        # A trajectory solved on [0, T] must transform identically to the
        # same free evolution provided on the full window.
        phi = random_smooth_field(grid32, rng, band=4.0)
        dt = 2.0 / 128.0
        short = free_trajectory(phi, uniform_times(0.5, dt))
        full = free_trajectory(phi, uniform_times(2.0, dt, t0=-1.0))
        Fs = spacetime_transform(short, 1.0)
        Ff = spacetime_transform(full, 1.0)
        scale = np.max(np.abs(Ff.values))
        assert np.max(np.abs(Fs.values - Ff.values)) < 1e-11 * scale

    def test_single_mode_concentration_and_window_oracle(self, grid32):
        # Free plane wave: each tau row equals the window transform shifted
        # to the paraboloid; >= 99% of the row mass sits within 16/T_w.
        k0 = np.array([3.0, 1.0])
        lam = float(np.sum(k0**2))
        m_t = 256
        times, dt = window_grid(1.0, m_t)
        traj = free_trajectory(plane_wave(grid32, k0), times)
        F = spacetime_transform(traj, 1.0)

        xi = grid32.axis_wavenumbers()
        idx = (int(np.argmin(np.abs(xi - k0[0]))), int(np.argmin(np.abs(xi - k0[1]))))
        row = F.values[:, idx[0], idx[1]]
        tau = F.tau()
        inband = np.abs(tau + lam) <= 16.0
        frac = np.sum(np.abs(row[inband]) ** 2) / np.sum(np.abs(row) ** 2)
        assert frac > 0.99

        off_row = F.values.copy()
        off_row[:, idx[0], idx[1]] = 0.0
        assert np.max(np.abs(off_row)) < 1e-12 * np.max(np.abs(row))

        # Oracle: raw 1-d DFT of the modulated window samples; the spatial
        # side contributes the plane-wave row coefficient vol / (2 pi)^(d/2).
        wt = times[:m_t]
        w = window_profile(wt, 1.0) * np.exp(-1j * lam * wt)
        got = np.abs(row)
        want = np.abs(window_dft(w, dt, 1.0)) * grid32.volume / (2.0 * np.pi) ** (
            grid32.d / 2.0
        )
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(want)


class TestXkNorm:
    def test_zero_spectrum(self, grid32):
        F = SpaceTimeSpectrum(grid32, 1.0, np.zeros((64,) + grid32.shape, complex))
        assert table_xk(F, 2) == 0.0

    def test_point_mass_oracle(self, grid32):
        k0 = np.array([3.0, 1.0])
        lam = float(np.sum(k0**2))
        vals = np.zeros((64,) + grid32.shape, dtype=complex)
        F = SpaceTimeSpectrum(grid32, 1.0, vals)
        tau = F.tau()
        b = int(np.argmin(np.abs(tau - (-lam + 1.0))))
        xi = grid32.axis_wavenumbers()
        idx = (int(np.argmin(np.abs(xi - k0[0]))), int(np.argmin(np.abs(xi - k0[1]))))
        vals[b, idx[0], idx[1]] = 2.5
        F = SpaceTimeSpectrum(grid32, 1.0, vals)
        omega = tau[b] + lam
        for k in (1, 2, 3):
            oracle = xk_point_mass(2.5, omega, eta_shell(k, np.linalg.norm(k0)), F.cell_measure)
            assert table_xk(F, k) == pytest.approx(oracle, abs=1e-12, rel=1e-12)

    def test_free_evolution_j_structure(self, grid32):
        # Shell norm of a windowed free wave = window shell sum K_w times the
        # spatial shell mass; the j >= 4 share of K_w is ~0.30 for T_w = 1
        # (the window transform decays too slowly for a smaller tail).
        k0 = np.array([3.0, 1.0])
        lam = float(np.sum(k0**2))
        m_t = 256
        times, dt = window_grid(1.0, m_t)
        traj = free_trajectory(plane_wave(grid32, k0), times)
        F = spacetime_transform(traj, 1.0)

        wt = times[:m_t]
        w = window_profile(wt, 1.0) * np.exp(-1j * lam * wt)
        wh = np.abs(window_dft(w, dt, 1.0))
        tau = F.tau()
        dtau = np.pi / 1.0
        terms = []
        for j in range(0, 20):
            weight = eta_shell(j, np.abs(tau + lam))
            terms.append(
                2.0 ** (j / 2.0)
                * np.sqrt(dtau * np.sum(weight**2 * wh**2))
            )
        # Row coefficient vol / (2 pi)^(d/2), then the L2(dxi) weight of a
        # one-point row, sqrt(dxi^d) = 1/period^(d/2) at d = 2.
        oracle = (
            sum(terms)
            * eta_shell(2, np.linalg.norm(k0))
            * grid32.volume
            / (2.0 * np.pi) ** (grid32.d / 2.0)
            / np.sqrt(1.0 / grid32.period**2)
        )
        measured = table_xk(F, 2)
        assert measured == pytest.approx(oracle, rel=1e-10)
        tail = sum(terms[4:]) / sum(terms)
        assert 0.25 < tail < 0.35  # frozen from the window-transform oracle

    def test_section_sanity_bounded_by_one(self, grid32, rng):
        vals = rng.standard_normal((64,) + grid32.shape) + 1j * rng.standard_normal(
            (64,) + grid32.shape
        )
        F = SpaceTimeSpectrum(grid32, 1.0, vals)
        for k in (0, 1, 2, 3):
            assert 0.0 < shell_table_values(F, k)[1] <= 1.0 + 1e-12

    def test_region_mask_idempotent(self, grid32, rng):
        vals = rng.standard_normal((32,) + grid32.shape) + 0j
        F = SpaceTimeSpectrum(grid32, 1.0, vals)
        mask = F.region_mask(2, 3)
        once = F.values * mask
        assert np.array_equal(once * mask, once)

    def test_disjoint_shell_masses_sum_to_total(self, grid32, rng):
        # The pooled cells of the sharp annuli add up to the whole spectrum.
        vals = rng.standard_normal((32,) + grid32.shape) + 1j * rng.standard_normal(
            (32,) + grid32.shape
        )
        F = SpaceTimeSpectrum(grid32, 1.0, vals)
        total2 = l2_mass_direct(F) ** 2
        parts = sum(mass**2 for mass in pooled_annulus_masses(F)[0])
        assert abs(parts - total2) < 1e-10 * total2


# Windows whose tau step puts |tau + |xi|^2| exactly on the bump edges: step
# 1/4 reaches 0 and PLATEAU 2^j, step SUPPORT reaches SUPPORT 2^j at xi = 0.
EDGE_WINDOWS = {"generic": 1.0, "quarter": 4.0 * math.pi, "support": math.pi / SUPPORT}


def random_spectrum(d, n, period, window, m_t, seed, density=1.0):
    grid = GridSpec(d, n, period)
    rng = np.random.default_rng(seed)
    shape = (m_t,) + grid.shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals *= rng.random(shape) < density
    return SpaceTimeSpectrum(grid, EDGE_WINDOWS[window], vals)


@st.composite
def small_spectra(draw):
    return random_spectrum(
        d=draw(st.sampled_from([1, 2])),
        n=draw(st.sampled_from([8, 16])),
        period=draw(st.sampled_from([1.0, 0.5, 3.0])),
        window=draw(st.sampled_from(sorted(EDGE_WINDOWS))),
        m_t=draw(st.sampled_from([16, 32, 64])),
        seed=draw(st.integers(0, 2**32 - 1)),
        density=draw(st.sampled_from([1.0, 0.3, 0.02])),
    )


def assert_matches_oracle(F):
    def close(got, want):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    for k, want in enumerate(xk_direct(F)):
        close(table_xk(F, k), want)
        close(shell_table_values(F, k)[1], section_sanity_direct(F, k))
    for sigma in (0.0, 1.6):
        close(fsigma_upper(F, sigma), sigma_sum_direct(F, sigma))
        close(nsigma_upper(F, sigma), sigma_sum_direct(F, sigma, paraboloid_weight=True))


class TestShellTables:
    @given(small_spectra())
    def test_norms_match_direct_oracle(self, F):
        assert_matches_oracle(F)

    @pytest.mark.parametrize("window", sorted(EDGE_WINDOWS))
    def test_bump_edges(self, window):
        F = random_spectrum(2, 16, 1.0, window, 64, seed=3)
        abs_omega = np.abs(omega_direct(F))
        if window == "quarter":
            edges = [0.0] + [PLATEAU * 2.0**j for j in range(4)]
        elif window == "support":
            edges = [SUPPORT * 2.0**j for j in range(4)]
        else:
            edges = []
        for edge in edges:
            assert np.any(abs_omega == edge), edge
        assert_matches_oracle(F)

    def test_shells_past_the_grid_are_empty(self, grid32, rng):
        vals = rng.standard_normal((32,) + grid32.shape) + 0j
        F = SpaceTimeSpectrum(grid32, 1.0, vals)
        assert table_xk(F, grid32.max_shell - 1) > 0.0
        for k in (grid32.max_shell + 1, 100):
            assert table_xk(F, k) == 0.0
            assert shell_table_values(F, k)[1] == 0.0
        with pytest.raises(ValueError):
            table_xk(F, -1)


class TestLpqNorm:
    def test_constant_field_volume(self, grid32):
        m_t = 32
        dt = 0.0625
        vals = np.ones((m_t,) + grid32.shape, dtype=complex)
        vol = grid32.volume * m_t * dt
        for e in DirectionSet.default(2):
            got = mixed_norm(vals, grid32, dt, e, 2, 2)
            assert got == pytest.approx(np.sqrt(vol), rel=1e-12)

    def test_fubini_for_all_lattice_directions(self, grid32, rng):
        vals = rng.standard_normal((20,) + grid32.shape) + 1j * rng.standard_normal(
            (20,) + grid32.shape
        )
        dt = 0.05
        l2 = np.sqrt(grid32.cell_volume * dt * np.sum(np.abs(vals) ** 2))
        for e in DirectionSet.default(2):
            assert mixed_norm(vals, grid32, dt, e, 2, 2) == pytest.approx(l2, rel=1e-12)

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (np.inf, 2), (2, np.inf)])
    def test_separable_products_factorize(self, grid32, rng, p, q):
        # Oracle: independent 1-d computations of each factor.
        n, m_t, dt = grid32.n, 16, 0.125
        i = np.arange(n)
        a = 1.0 + np.cos(2 * np.pi * i / n)  # function of the offset index
        b = rng.standard_normal((m_t, n)) + 1j * rng.standard_normal((m_t, n))

        # axis direction: f(t, i1, i2) = a(i1) * b(t, i2)
        vals = a[None, :, None] * b[:, None, :]
        e = np.array([1.0, 0.0])
        got = mixed_norm(vals, grid32, dt, e, p, q)
        want = lpq_separable_1d(
            a, b, dr=grid32.spacing, w_perp=grid32.spacing, dt=dt, p=p, q=q
        )
        assert got == pytest.approx(want, rel=1e-10)

        # diagonal direction: f depends on (i1+i2) mod n along e=(1,1)/sqrt(2)
        c = np.mod(i[:, None] + i[None, :], n)
        vals = a[c][None, :, :] * b[:, 0][:, None, None]
        e = np.array([1.0, 1.0]) / np.sqrt(2.0)
        got = mixed_norm(vals, grid32, dt, e, p, q)
        want = lpq_separable_1d(
            a,
            b[:, 0][:, None] * np.ones(n)[None, :],
            dr=grid32.spacing / np.sqrt(2.0),
            w_perp=grid32.spacing * np.sqrt(2.0),
            dt=dt,
            p=p,
            q=q,
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_cauchy_schwarz_nesting(self, grid32, rng):
        vals = rng.standard_normal((16,) + grid32.shape) + 0j
        dt = 0.125
        for e in DirectionSet.default(2):
            l12 = mixed_norm(vals, grid32, dt, e, 1, 2)
            l22 = mixed_norm(vals, grid32, dt, e, 2, 2)
            extent = grid32.n * grid32.spacing / np.sqrt(np.sum(np.abs(e) > 1e-12))
            assert l12 <= np.sqrt(extent) * l22 * (1.0 + 1e-10)

    def test_unsupported_direction(self, grid32, rng):
        vals = np.zeros((16,) + grid32.shape, complex)
        with pytest.raises(UnsupportedDirection):
            mixed_norm(vals, grid32, 0.1, np.array([0.8, 0.6]), 2, 2)

    @pytest.mark.parametrize("p, q", [(3, 2), (0.5, 2), (2, 1), (2, 3), (np.inf, 1)])
    def test_unimplemented_exponents_rejected(self, grid32, p, q):
        # Only p in {1, 2, inf} and q in {2, inf} are implemented; any other
        # value raises instead of returning the inf norm.
        with pytest.raises(ValueError, match="fiber_norm takes"):
            fiber_norm(np.ones(grid32.num_points), np.array([1.0, 0.0]), grid32, p, q)


class TestRowBlockReductions:
    # The pooled cells and the region mask run over blocks or rows of the
    # stack; the oracles form the whole |F| and omega stacks. The d = 2,
    # n = 64 case has 16 rows per block, so 40 rows end in a partial block;
    # the d = 3, n = 32 case has 2.
    CASES = [(1, 32, 64), (2, 64, 40), (3, 32, 6), (3, 8, 17)]

    @pytest.mark.parametrize("d, n, m_t", CASES)
    def test_masses_and_mask_match_whole_stack_formulas(self, d, n, m_t):
        F = spectrum_with_cut_rows(d, n, m_t, 1.0, seed=d * n + m_t)
        annuli, total = pooled_annulus_masses(F)
        want = l2_mass_direct(F)
        assert abs(total - want) <= 1e-15 * want
        for k, mass in enumerate(annuli):
            want = shell_mass_disjoint_direct(F, k)
            assert abs(mass - want) <= 1e-15 * want
        for k, j in ((0, 0), (1, 2), (2, 3), (3, 6)):
            assert np.array_equal(F.region_mask(k, j), region_mask_direct(F, k, j))

    def test_masses_of_a_row_padded_stack(self):
        F = spectrum_with_cut_rows(2, 64, 40, 1.0, seed=3)
        padded = stack_empty(F.m_t, F.grid.shape)
        padded[...] = F.values
        G = SpaceTimeSpectrum(F.grid, F.t_window, padded)
        assert np.array_equal(spacetime._cell_power(G).cells, spacetime._cell_power(F).cells)


def spectrum_with_cut_rows(d, n, m_t, t_window, seed):
    grid = GridSpec(d, n, 1.0)
    rng = np.random.default_rng(seed)
    shape = (m_t,) + grid.shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpaceTimeSpectrum(grid, t_window, vals)


class TestShellReductions:
    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("m_t", [48, 1280])
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_match_reference_rounding(self, d, n, m_t, block_rows, monkeypatch):
        # Equal to the reductions of the whole shell-sample stack, exactly,
        # on every shell up to the grid edge, with rows past TIME_CUT.
        F = spectrum_with_cut_rows(d, n, m_t, 3.0, seed=d * m_t)
        if block_rows is not None:
            monkeypatch.setattr(solver, "BLOCK_BYTES", block_rows * 16 * F.grid.num_points)
        keep = np.abs(-F.t_window + F.dt * np.arange(m_t)) <= TIME_CUT
        assert 0 < keep.sum() < m_t
        for k in range(F.grid.max_shell + 1):
            got = spacetime._shell_reductions(F, F.shell_weights(k), keep)
            want = shell_reductions_oracle(F, k, keep)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), k

    @pytest.mark.parametrize("shape", [(48, 64), (1280, 16, 16), (48, 8, 8, 8), (1280, 4, 4, 4)])
    def test_split_inverse_matches_unitary_inverse(self, shape):
        # The shell reductions rest on this: an unscaled time pass, times
        # 1/sqrt(points) rounded from long double, then unscaled grid passes
        # gives the unitary inverse over all axes bit for bit.
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        part = samples_of(x, axes=(0,), scaled=False)
        factor = spacetime._ortho_factor(x.size)
        part.real *= factor
        part.imag *= factor
        got = samples_of(part, axes=tuple(range(1, x.ndim)), scaled=False)
        assert np.array_equal(got, scipy.fft.ifftn(x, norm="ortho"))

    def test_tables_do_not_depend_on_block_size(self, monkeypatch):
        F = spectrum_with_cut_rows(2, 16, 96, 1.0, seed=5)
        # One block of every row pools |F|^2 over the whole spectrum at once.
        tables = {}
        for rows in (96, 7, 1):
            spacetime._window_table.cache_clear()
            monkeypatch.setattr(solver, "BLOCK_BYTES", rows * 16 * F.grid.num_points)
            P = spacetime._cell_power(F)
            tables[rows] = (spacetime._shell_tables(P), spacetime._shell_tables(P, True))
        spacetime._window_table.cache_clear()
        for rows in (7, 1):
            for got, want in zip(tables[rows], tables[96]):
                assert np.array_equal(got, want)


class TestFloatViews:
    """The passes that multiply a complex stack by a real factor run on a
    float64 view, with the bits of numpy's complex multiply (the oracles'
    complex forms)."""

    @staticmethod
    def padded_samples(d, n, m_t, seed):
        grid = GridSpec(d, n, 2.0)
        rng = np.random.default_rng(seed)
        samples = stack_empty(m_t, grid.shape)
        samples[...] = rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
        return grid, samples

    @pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
    def test_windowed_matches_complex_multiply(self, d, n):
        grid, samples = self.padded_samples(d, n, 48, seed=d)
        window = window_profile(-1.0 + (2.0 / 48) * np.arange(48), 1.0)
        window[[5, 6, 30]] = 0.0
        assert np.count_nonzero(window == 0.0) >= 4
        want = windowed_complex(samples, window)
        got = spacetime._windowed(samples, window)
        assert got is samples and not samples.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
    @pytest.mark.parametrize("m_t", [48, 64])
    def test_transform_matches_complex_centring(self, d, n, m_t):
        grid, samples = self.padded_samples(d, n, m_t, seed=10 * d + m_t)
        window = window_profile(-1.0 + (2.0 / m_t) * np.arange(m_t), 1.0)
        assert window[0] == 0.0
        spacetime._windowed(samples, window)
        want = transform_complex(samples, grid, 1.0)
        assert np.array_equal(spacetime._transform(samples, grid, 1.0).values, want)

    def test_division_by_real_is_multiply_by_rounded_reciprocal(self):
        # _shell_reductions divides by signed_scale as a multiply by the
        # rounded 1 / s on a float view. numpy divides a complex array by
        # s + 0j (also when s comes as a real array) with Smith's method,
        # whose zero ratio leaves exactly that multiply, bit for bit.
        signed = spacetime._window(GridSpec(2, 64, 1.0), 1.0, 1280).signed_scale.ravel()[:2]
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1280, 300)) + 1j * rng.standard_normal((1280, 300))
        for s in (*signed, 0.37, -0.37, 3.0e-3, -1.7e5):
            want = x.view(np.float64) * (1.0 / s)
            for quotient in (x / complex(s, 0.0), x / np.full((1280, 1), s)):
                assert np.array_equal(quotient.view(np.uint64), want.view(np.uint64)), s


class TestFreeCellPower:
    @given(
        d=st.sampled_from([1, 2, 3]),
        n=st.sampled_from([8, 16, 32]),
        period=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        m_t=st.sampled_from([16, 48, 64, 128]),
        t_window=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        kind=st.sampled_from(["bandlimited", "plane_wave", "zero"]),
        seed=st.integers(0, 2**16),
        sigma=st.sampled_from([0.0, 1.6, 2.6]),
    )
    def test_matches_pooled_free_spectrum(self, d, n, period, m_t, t_window, kind, seed, sigma):
        # The closed form pools the same |F|^2 as the free spectrum, to
        # rounding, with the same bits when its phases are formed in a
        # member stack, and a bound-only FreeMember's Fsigma row matches
        # fsigma_upper; a member without mass pools exact zeros and is
        # still reported.
        grid = GridSpec(d, n, period)
        rng = np.random.default_rng(seed)
        if kind == "bandlimited":
            phi = random_smooth_field(grid, rng)
        elif kind == "plane_wave":
            phi = plane_wave(grid, rng.integers(-n // 2 + 1, n // 2, size=d) / period)
        else:
            phi = ComplexField.zeros(grid)
        pooled = free_cell_power(phi, m_t, t_window)
        F = free_spectrum(phi, m_t, t_window)
        want = spacetime._cell_power(F).cells
        assert isinstance(pooled, PooledPower) and pooled.m_t == m_t
        assert pooled.cells.shape == (m_t, np.unique(grid.wavenumber_sq()).size)
        got = pooled.cells
        if kind == "zero":
            assert not np.any(got) and not np.any(want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
        work = stack_empty(m_t, grid.shape)
        assert np.array_equal(free_cell_power(phi, m_t, t_window, out=work).cells, got)
        member = FreeMember(phi, m_t, t_window)
        rows = spacetime._member_rows("free", member, None, (), (sigma,), None)
        assert [row[:4] for row in rows] == [("free", -1, "Fsigma", f"sigma={sigma:g}")]
        bound = fsigma_upper(F, sigma)
        assert abs(rows[0][4] - bound) <= 1e-13 * bound

    @pytest.mark.parametrize("m_t", [1, 2, 8, 15])
    def test_short_window_raises_as_free_spectrum(self, grid32, rng, m_t):
        phi = random_smooth_field(grid32, rng)
        errors = []
        for build in (free_spectrum, free_cell_power):
            with pytest.raises(WindowTooShort) as err:
                build(phi, m_t, 1.0)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_spectrum_in_a_member_stack(self, grid32, rng):
        # free_spectrum formed in a given stack, here the first rows and
        # points of a larger member stack, has the bits of its own array.
        phi = random_smooth_field(grid32, rng)
        stack = stack_empty(80, (2 * grid32.num_points,))
        work = spacetime._laid_in(stack, 64, grid32.shape)
        F = free_spectrum(phi, 64, 1.0, out=work)
        assert np.shares_memory(F.values, stack)
        assert np.array_equal(F.values, free_spectrum(phi, 64, 1.0).values)


class TestSigmaUpper:
    def test_zero(self, grid32):
        F = SpaceTimeSpectrum(grid32, 1.0, np.zeros((64,) + grid32.shape, complex))
        assert fsigma_upper(F, 1.6) == 0.0

    def test_monotone_in_sigma(self, grid32, rng):
        times, _ = window_grid()
        traj = free_trajectory(random_smooth_field(grid32, rng, band=6.0), times)
        F = spacetime_transform(traj, 1.0)
        sigmas = (0.0, 0.8, 1.6, 2.6)
        values = [fsigma_upper(F, s) for s in sigmas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_free_mode_closed_form(self, grid32):
        # For a single wave the sigma = 0 bound is the window shell sum times
        # the L2 mass, computable in closed form from the window transform.
        k0 = np.array([3.0, 1.0])
        lam = float(np.sum(k0**2))
        m_t = 256
        times, dt = window_grid(1.0, m_t)
        traj = free_trajectory(plane_wave(grid32, k0), times)
        F = spacetime_transform(traj, 1.0)
        measured = fsigma_upper(F, 0.0)

        wt = times[:m_t]
        w = window_profile(wt, 1.0) * np.exp(-1j * lam * wt)
        wh = np.abs(window_dft(w, dt, 1.0))
        tau = F.tau()
        dtau = np.pi
        radius = np.linalg.norm(k0)
        total = 0.0
        for k in (1, 2):
            shell_sum = 0.0
            for j in range(0, 20):
                weight = eta_shell(j, np.abs(tau + lam))
                shell_sum += 2.0 ** (j / 2.0) * np.sqrt(
                    dtau * np.sum(weight**2 * wh**2)
                )
            row_coef = grid32.volume / (2 * np.pi) ** (grid32.d / 2) / np.sqrt(1.0 / grid32.period**2)
            total += (eta_shell(k, radius) * shell_sum * row_coef) ** 2
        assert measured == pytest.approx(np.sqrt(total), rel=1e-10)

    def test_nsigma_below_fsigma(self, grid32, rng):
        times, _ = window_grid()
        traj = free_trajectory(random_smooth_field(grid32, rng, band=6.0), times)
        F = spacetime_transform(traj, 1.0)
        assert nsigma_upper(F, 1.6) < fsigma_upper(F, 1.6)


class TestLemmaDiagnostics:
    def build_ensemble(self, grid, rng, m_t=256):
        times, _ = window_grid(1.0, m_t)
        trajectories = [
            ("mode_k2", free_trajectory(plane_wave(grid, np.array([4.0, 1.0])), times)),
            ("mode_k3", free_trajectory(plane_wave(grid, np.array([7.0, 4.0])), times)),
            ("broad", free_trajectory(random_smooth_field(grid, rng, band=10.0), times)),
            ("zero", free_trajectory(ComplexField.zeros(grid), times)),
        ]
        return [(name, spacetime_transform(traj, 1.0)) for name, traj in trajectories]

    def test_shells_read_once(self, grid32, rng):
        # shells may be any iterable: a generator gives the rows and the
        # meta of the same shells in a tuple, for factory and free members.
        members = factories(self.build_ensemble(grid32, rng, m_t=64))
        members.append(("free", FreeMember(plane_wave(grid32, np.array([4.0, 1.0])), 64, 1.0)))
        dirs = DirectionSet.named("axes", 2)
        want = lemma_diagnostics(members, dirs, (2, 3), 1.6)
        got = lemma_diagnostics(members, dirs, (k for k in (2, 3)), 1.6)
        assert [row[2] for row in want.rows].count("Xk") >= 4
        assert got.rows == want.rows
        assert got.meta == want.meta and want.meta["shells"] == "2,3"

    def test_values_match_direct_computation(self, grid32, rng):
        # Oracle: recompute R2, R3, R4 for one member with the public norms.
        members = self.build_ensemble(grid32, rng)
        dirs = DirectionSet.default(2)
        rep = lemma_diagnostics(factories(members), dirs, range(2, 4), 1.6)

        name, F = members[0]
        k = 2
        xk = table_xk(F, k)
        u_k = shell_samples_oracle(F, k)
        keep = np.abs(-1.0 + F.dt * np.arange(F.m_t)) <= 2.0
        r2 = max(
            2.0 ** (k / 2.0) * mixed_norm(u_k, grid32, F.dt, e, np.inf, 2) / xk
            for e in dirs
        )
        r3 = max(
            2.0 ** (-k / 2.0)
            / (k + 1) ** 2
            * mixed_norm(u_k[keep], grid32, F.dt, e, 2, np.inf)
            / xk
            for e in dirs
        )
        slices = np.sqrt(grid32.cell_volume * np.sum(np.abs(u_k) ** 2, axis=(1, 2)))
        r4 = float(np.max(slices)) / xk

        got = {(row[2]): row[4] for row in rep.rows if row[0] == name and row[1] == k}
        assert got["Xk"] == pytest.approx(xk, rel=1e-12)
        assert got["R2"] == r2  # one fibration kernel: same bits
        assert got["R3"] == r3
        assert got["R4"] == pytest.approx(r4, rel=1e-10)
        assert 0.0 < got["R1"] <= 1.0 + 1e-12

    def test_zero_member_flagged_and_ratios_finite(self, grid32, rng):
        rep = lemma_diagnostics(
            factories(self.build_ensemble(grid32, rng)), DirectionSet.default(2), range(2, 4), 1.6
        )
        skipped = [row for row in rep.rows if row[2] == "skipped"]
        assert [row[0] for row in skipped] == ["zero"]
        ratios = [row[4] for row in rep.rows if row[2] in ("R2", "R3", "R4")]
        assert ratios and all(np.isfinite(v) for v in ratios)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EmptyEnsemble):
            lemma_diagnostics([], DirectionSet.default(2), range(2, 4), 1.6)

    def test_trajectory_member_rejected(self, grid32, rng):
        # Members are factories of spectra; a solved trajectory goes through
        # spacetime_transform first.
        times, _ = window_grid()
        traj = free_trajectory(random_smooth_field(grid32, rng), times)
        with pytest.raises(TypeError, match="not a SpaceTimeSpectrum"):
            lemma_diagnostics([("traj", lambda: traj)], DirectionSet.default(2), range(2, 4), 1.6)

    def test_parallel_member_processing_deterministic(self, grid32, rng, monkeypatch):
        spectra = self.build_ensemble(grid32, rng, m_t=64)
        members = factories(spectra)
        # The same members built on call, on whichever thread analyses them.
        lazy = [
            (name, lambda F=F: SpaceTimeSpectrum(F.grid, F.t_window, F.values.copy()))
            for name, F in spectra
        ]
        dirs = DirectionSet.default(2)
        allow_cpus(monkeypatch, 1)
        serial = lemma_diagnostics(members, dirs, range(2, 4), 1.6)
        assert lemma_diagnostics(lazy, dirs, range(2, 4), 1.6).rows == serial.rows
        allow_cpus(monkeypatch, 3)
        threaded = lemma_diagnostics(members, dirs, range(2, 4), 1.6)
        assert serial.rows == threaded.rows
        assert lemma_diagnostics(lazy, dirs, range(2, 4), 1.6).rows == serial.rows

    def test_factory_error_surfaces(self, grid32, rng, monkeypatch):
        members = factories(self.build_ensemble(grid32, rng, m_t=64)[:2])

        def diverging():
            raise NoContraction("iterate grew")

        for threads in (1, 2):
            allow_cpus(monkeypatch, threads)
            with pytest.raises(NoContraction, match="iterate grew"):
                lemma_diagnostics(
                    members + [("bad", diverging)], DirectionSet.default(2), range(2, 4), 1.6
                )

    def test_bound_members_follow_the_max_rows(self, grid32, rng, monkeypatch):
        # Bound-only members report one Fsigma row per sigma, all from one
        # table with fsigma_upper's bits, after the max rows and in their
        # order; one without mass is reported, not skipped.
        members = factories(self.build_ensemble(grid32, rng, m_t=64))
        broad, zero = members[2][1](), members[3][1]()
        bounds = [("free", lambda: broad, (0.0, 1.6)), ("nil", lambda: zero, (1.6,))]
        want = [
            ("free", -1, "Fsigma", "sigma=0", fsigma_upper(broad, 0.0)),
            ("free", -1, "Fsigma", "sigma=1.6", fsigma_upper(broad, 1.6)),
            ("nil", -1, "Fsigma", "sigma=1.6", 0.0),
        ]
        dirs = DirectionSet.default(2)
        for threads in (1, 2):
            allow_cpus(monkeypatch, threads)
            alone = lemma_diagnostics(members, dirs, range(2, 4), 1.6)
            rep = lemma_diagnostics(members, dirs, range(2, 4), 1.6, bound_members=bounds)
            assert rep.rows == alone.rows + want
            assert alone.rows[-1][0] == "max"
            assert rep.meta["num_members"] == len(members)

    def test_bound_member_error_surfaces(self, grid32, rng, monkeypatch):
        members = factories(self.build_ensemble(grid32, rng, m_t=64)[:2])

        def diverging():
            raise NoContraction("datum grew")

        for threads in (1, 2):
            allow_cpus(monkeypatch, threads)
            with pytest.raises(NoContraction, match="datum grew"):
                lemma_diagnostics(
                    members,
                    DirectionSet.default(2),
                    range(2, 4),
                    1.6,
                    bound_members=[("bad", diverging, (1.6,))],
                )

    @pytest.mark.parametrize("threads", [2, 4])
    def test_window_table_built_once_across_threads(self, grid32, rng, monkeypatch, threads):
        # The pool threads ask for the same window table while its first
        # build is still running (also with more threads than cores, and
        # frequent thread switches); it is built once.
        built = []
        build = spacetime._window_table.__wrapped__

        def slow_build(*key):
            built.append(key)
            time.sleep(0.2)
            return build(*key)

        monkeypatch.setattr(spacetime, "_window_table", lru_cache(maxsize=8)(slow_build))
        allow_cpus(monkeypatch, threads)
        members = factories(self.build_ensemble(grid32, rng, m_t=64))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = lemma_diagnostics(members, DirectionSet.default(2), range(2, 4), 1.6)
        finally:
            sys.setswitchinterval(interval)
        assert {row[0] for row in rep.rows if row[2] == "Xk"} == {"mode_k2", "mode_k3", "broad"}
        assert len(built) == 1

    def test_shell_loop_memory_bound(self):
        # The shell loop of one broadband member holds less than one spectrum
        # beside F: the time transform runs on the shell's columns only and
        # the grid transforms on time blocks.
        grid = GridSpec(2, 64, 1.0)
        rng = np.random.default_rng(3)
        spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        F = free_spectrum(ComplexField(grid, 0.0, FREQUENCY, spec), 256, 1.0)
        shells = range(grid.max_shell + 1)
        args = ("broadband", lambda: F, DirectionSet.default(2), shells, (), None)
        spacetime._member_rows(*args)  # warm the caches
        with traced_peak() as peak:
            spacetime._member_rows(*args)
        assert peak.bytes < 1.0 * F.values.nbytes

    def test_rows_do_not_depend_on_row_padding(self, grid32, rng):
        # The same spectrum in a contiguous array and in a row-padded stack
        # gives the same rows, direction labels included.
        shape = (128,) + grid32.shape
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        padded = stack_empty(128, grid32.shape)
        padded[...] = values
        assert values.flags["C_CONTIGUOUS"] and not padded.flags["C_CONTIGUOUS"]
        dirs = DirectionSet.default(2)
        shells = range(grid32.max_shell + 1)
        rows = [
            spacetime._member_rows(
                "m", lambda v=v: SpaceTimeSpectrum(grid32, 1.0, v), dirs, shells, (1.6,), None
            )
            for v in (values, padded)
        ]
        assert [row[2] for row in rows[0]].count("R2") >= 4
        assert rows[0] == rows[1]

    def test_free_member_rows_peak(self, grid32, rng):
        # Beside a free member's spectrum the shell loop holds less than one
        # more: the shell columns are gathered from the row view without
        # copying the spectrum, and each block's grid inverse runs in place
        # on one padded work block.
        F = free_spectrum(random_smooth_field(grid32, rng), 128, 1.0)
        args = ("free", lambda: F, DirectionSet.default(2), range(1, 4), (1.6,), None)
        spacetime._member_rows(*args)  # warm the caches
        with traced_peak() as peak:
            spacetime._member_rows(*args)
        assert peak.bytes < 2.0 * F.values.nbytes

    def free_members(self, rng):
        """Free members on d = 2, n = 32, m_t = 128: plane waves in shells
        1-4, one on the diagonal (so that two axes tie), a three-mode sum
        and broadband data."""
        grid = GridSpec(2, 32, 1.0)
        phis = [plane_wave(grid, np.array(k0)) for k0 in ([2.0, 0.0], [3.0, 3.0], [0.0, 9.0])]
        waves = [plane_wave(grid, np.array(k0)) for k0 in ([1.0, 2.0], [4.0, -3.0], [-12.0, 5.0])]
        coefs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phis.append(ComplexField(grid, 0.0, PHYSICAL, sum(c * w.values for c, w in zip(coefs, waves))))
        phis.append(random_smooth_field(grid, rng, band=12.0))
        return [(f"free{i}", FreeMember(phi, 128, 1.0)) for i, phi in enumerate(phis)]

    def test_free_member_paths_agree(self, rng):
        # FreeMembers and factories of the same spectra give the same rows:
        # X_k and Fsigma from the closed-form cells within 1e-13 of the
        # member's total norm (the square root of its pooled power, which
        # the shells split) and of Fsigma (the square sum of its shell
        # norms), R1-R4 within that error through 1 / X_k, and direction
        # labels equal as axes (e ~ -e).
        members = self.free_members(rng)
        factories = [(name, lambda m=m: free_spectrum(m.phi, m.m_t, m.t_window)) for name, m in members]
        dirs = DirectionSet.default(2)
        closed = lemma_diagnostics(members, dirs, range(1, 5), 1.6).rows
        pooled = lemma_diagnostics(factories, dirs, range(1, 5), 1.6).rows
        assert [row[:3] for row in closed] == [row[:3] for row in pooled]
        totals = {}
        for name, factory in factories:
            P = spacetime._cell_power(factory())
            totals[name] = math.sqrt(P.cell_measure * float(np.sum(P.cells)))
        xks = {(row[0], row[1]): row[4] for row in pooled if row[2] == "Xk"}
        assert {row[0] for row in pooled if row[2] == "Xk"} == set(totals)
        diagonal = 0
        for got, want in zip(closed, pooled):
            name, k, quantity, label, value = want
            if label.startswith("("):
                axes = [np.array(row[3].strip("()").split(), dtype=float) for row in (got, want)]
                assert min(np.abs(axes[0] - s * axes[1]).max() for s in (1, -1)) < 1e-12
            if name == "max":
                # The max rows follow from the member rows.
                continue
            if quantity == "Fsigma":
                err = 1e-13 * value
            else:
                err = 1e-13 * totals[name]
                if quantity != "Xk":
                    err *= (abs(value) + 1.0) / xks[(name, k)]
            assert abs(got[4] - value) <= err, (got, want)
            diagonal += name == "free1" and quantity in ("R2", "R3")
        assert diagonal == 2  # the near-tie labels of the diagonal wave were compared

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_member_stacks_per_worker(self, rng, monkeypatch, cpus):
        # One call makes at most one member-sized stack per pool worker, for
        # the free members' phases and spectra, and none outlives it. With
        # more workers than cores and frequent thread switches, no stack is
        # lent to two members at once: the rows are the serial run's.
        members = self.free_members(rng)
        members += [(name + "_again", member) for name, member in members]
        member_size = (128, members[0][1].phi.grid.num_points)
        made = []
        stack_empty = spacetime.stack_empty

        def counted(rows, shape):
            made.append((rows, math.prod(shape)))
            return stack_empty(rows, shape)

        monkeypatch.setattr(spacetime, "stack_empty", counted)
        dirs = DirectionSet.default(2)
        allow_cpus(monkeypatch, 1)
        serial = lemma_diagnostics(members, dirs, range(1, 5), 1.6).rows  # warms the caches
        allow_cpus(monkeypatch, cpus)
        made.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = lemma_diagnostics(members, dirs, range(1, 5), 1.6).rows
        finally:
            sys.setswitchinterval(interval)
        assert rows == serial
        assert 1 <= made.count(member_size) <= cpus
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lemma_diagnostics(members, dirs, range(1, 5), 1.6)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024  # one member stack is 2 MB

    def test_member_stacks_kept_while_a_member_is_to_start(self, rng):
        # A stack given back is lent again while a member that needs one is
        # still to start, and dropped after the last has started, so the
        # members that follow (the Picard one) run beside no idle stack.
        member = self.free_members(rng)[0][1]
        stacks = spacetime._MemberStacks([member] * 3)
        first = stacks.take()
        assert first.shape == (128, member.phi.grid.num_points)
        stacks.give(first)
        assert stacks.take() is first
        last = stacks.take()
        assert last is not first
        stacks.give(first)
        stacks.give(last)
        assert stacks.spare == []

    def test_single_mode_ratio_uniformity(self):
        # Mirrors the per-shell uniformity study: plane waves across shells
        # 3..5. The time-slice ratio R4 is k-uniform; the local-smoothing
        # ratio R2 grows like 2^(k/2) on the torus (recirculation defeats
        # the hyperplane gain), so its normalized profile is what must stay
        # flat. Values are pinned against the direct-computation oracle in
        # test_values_match_direct_computation.
        grid = GridSpec(2, 64, 1.0)
        m_t = 640
        modes = {3: np.array([8.0, 0.0]), 4: np.array([16.0, 0.0]), 5: np.array([28.0, 7.0])}
        members = [
            (f"k{k}", free_spectrum(plane_wave(grid, k0), m_t, 1.0)) for k, k0 in modes.items()
        ]
        rep = lemma_diagnostics(factories(members), DirectionSet.default(2), range(3, 6), 1.6)
        r4 = {row[1]: row[4] for row in rep.rows if row[0] == "max" and row[2] == "R4"}
        r2 = {row[1]: row[4] for row in rep.rows if row[0] == "max" and row[2] == "R2"}
        assert set(r4) == {3, 4, 5}
        assert max(r4.values()) / min(r4.values()) < 1.5  # k-uniform
        slope_r4 = pooled_max_slope(rep, ("R4",))
        assert abs(slope_r4) < 0.15
        normalized = [r2[k] / 2.0 ** (k / 2.0) for k in sorted(r2)]
        assert max(normalized) / min(normalized) < 1.5


class TestThreadBudget:
    def test_default_counts_the_affinity_mask(self, monkeypatch):
        # The CPUs this process may run on, not all of the machine's: a mask
        # of one CPU runs the tasks on the caller.
        allow_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        caller = threading.get_ident()
        assert spacetime._ordered_map(lambda _: threading.get_ident(), range(3)) == [caller] * 3

    @pytest.mark.parametrize("count, threads", [(None, 1), (1, 1), (2, 2)])
    def test_cpu_count_without_an_affinity_call(self, monkeypatch, count, threads):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        barrier = threading.Barrier(threads, timeout=10)

        def task(_):
            barrier.wait()
            return threading.get_ident()

        seen = set(spacetime._ordered_map(task, range(4)))
        assert len(seen) == threads
        assert (threading.get_ident() in seen) == (threads == 1)


    def test_thread_variable_does_not_size_the_pool(self, monkeypatch):
        # The mask alone sizes the pool: a leftover SMAP_THREADS is not read.
        allow_cpus(monkeypatch, 2)
        monkeypatch.setenv("SMAP_THREADS", "1")
        barrier = threading.Barrier(2, timeout=10)

        def task(_):
            barrier.wait()
            return threading.get_ident()

        seen = set(spacetime._ordered_map(task, range(4)))
        assert len(seen) == 2 and threading.get_ident() not in seen

class TestOrderedMap:
    def test_every_transform_asks_for_one_worker(self, monkeypatch, rng):
        # The affinity mask sizes the norms pool only: every pocketfft binding
        # and scipy.fft call asks for one worker, on the calling thread (a
        # Picard solve, midpoint steps) and on the pool's threads alike.
        asked = []

        def recording(fn, position, keyword, default):
            def call(*args, **kwargs):
                workers = args[position] if len(args) > position else kwargs.get(keyword, default)
                if workers is None:
                    workers = scipy.fft.get_workers()
                asked.append((fn.__name__, threading.get_ident(), workers))
                return fn(*args, **kwargs)

            return call

        binding = spectral.pypocketfft
        recorded = SimpleNamespace(
            c2c=recording(binding.c2c, 5, "nthreads", 1),
            r2c=recording(binding.r2c, 5, "nthreads", 1),
            c2r=recording(binding.c2r, 6, "nthreads", 1),
        )
        monkeypatch.setattr(spectral, "pypocketfft", recorded)
        monkeypatch.setattr(scipy.fft, "fftn", recording(scipy.fft.fftn, 5, "workers", None))
        monkeypatch.setattr(scipy.fft, "ifftn", recording(scipy.fft.ifftn, 5, "workers", None))
        allow_cpus(monkeypatch, 3)

        grid = GridSpec(2, 16, 4.0)
        picard_solve(random_smooth_field(grid, rng, amp=0.1), 0.25, 1.0 / 16.0, sigma0=1.6)
        s0 = stereo_lift(random_smooth_field(grid, rng, amp=0.05))
        list(itertools.islice(midpoint_snapshots(s0, 0.25, 1.0 / 64.0), 3))

        def task(u):
            free_spectrum(u, 16, 1.0)
            transform(transform(u, "forward"), "inverse")
            return laplacian_values(u.values.real, grid)

        fields = [random_smooth_field(grid, rng) for _ in range(6)]
        spacetime._ordered_map(task, fields)
        assert {name for name, _, _ in asked} == {"c2c", "r2c", "c2r", "fftn", "ifftn"}
        assert {tid for _, tid, _ in asked} - {threading.get_ident()}  # pool threads seen
        assert {workers for _, _, workers in asked} == {1}

    @pytest.mark.parametrize("budget, items", [(3, 6), (3, 2), (2, 4)])
    def test_pool_size_is_budget_or_items(self, monkeypatch, budget, items):
        # min(budget, items) threads, none of them the caller: each round of
        # that many tasks meets at a barrier, so no fewer threads can finish.
        allow_cpus(monkeypatch, budget)
        barrier = threading.Barrier(min(budget, items), timeout=10)

        def task(_):
            barrier.wait()
            return threading.get_ident()

        seen = set(spacetime._ordered_map(task, range(items)))
        assert len(seen) == min(budget, items)
        assert threading.get_ident() not in seen

    def test_budget_of_one_runs_on_the_caller(self, monkeypatch):
        allow_cpus(monkeypatch, 1)
        assert spacetime._ordered_map(lambda _: threading.get_ident(), range(3)) == [
            threading.get_ident()
        ] * 3

    def test_results_in_input_order(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        finished = []

        def task(i):
            if i == 0:
                time.sleep(0.3)
            finished.append(i)
            return i * i

        assert spacetime._ordered_map(task, range(5)) == [0, 1, 4, 9, 16]
        assert finished[-1] == 0  # the slowed first task finished last
