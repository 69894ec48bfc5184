import numpy as np
import pytest
import scipy.fft

from smap.errors import GridMismatch, InnerDivergence, NoContraction
from smap.geometry import SphereField, stereo_lift
from smap.grid import GridSpec
from smap.nonlinearity import NO_DEALIAS, nonlinearity
from smap.solver import (
    Trajectory,
    duhamel_map,
    free_trajectory,
    gronwall_diagnostic,
    midpoint_solve,
    picard_solve,
    propagator_stack,
    uniform_times,
)
from smap.spectral import (
    PHYSICAL,
    ComplexField,
    hsigma_norm,
    hsigma_norm_stack,
    samples_of,
    spectrum_of,
    to_frequency,
)

from conftest import random_smooth_field
from oracles import duhamel_constant_mode, mesh, plane_wave

SIGMA0 = 1.6


def small_bump(grid, amp):
    X = mesh(grid)
    vals = np.exp(-sum(x**2 for x in X)) * np.exp(1j * X[0])
    f = ComplexField(grid, 0.0, PHYSICAL, vals)
    f.values *= amp / hsigma_norm(f, SIGMA0)
    return f


class TestDuhamel:
    def test_zero_prev_gives_free_evolution(self, grid32, rng):
        phi = random_smooth_field(grid32, rng, amp=0.1)
        times = uniform_times(0.25, 1.0 / 64.0)
        zero = Trajectory(
            grid32, times, np.zeros((times.size,) + grid32.shape, complex), "complex_chart"
        )
        out = duhamel_map(phi, zero)
        free = free_trajectory(phi, times)
        assert np.max(np.abs(out.values - free.values)) < 1e-12

    def test_zero_data_starts_at_zero(self, grid32, rng):
        prev = free_trajectory(
            random_smooth_field(grid32, rng, amp=1e-2), uniform_times(0.25, 1.0 / 64.0)
        )
        out = duhamel_map(ComplexField.zeros(grid32), prev)
        assert np.max(np.abs(out.values[0])) == 0.0

    def test_grid_mismatch(self, grid32, rng):
        phi = random_smooth_field(GridSpec(2, 16, 1.0), rng)
        prev = free_trajectory(
            random_smooth_field(grid32, rng), uniform_times(0.25, 1.0 / 64.0)
        )
        with pytest.raises(GridMismatch):
            duhamel_map(phi, prev)

    def test_single_mode_matches_refined_quadrature(self, grid32):
        # Constant-in-time single-mode source: the integrand on the mode is
        # oscillatory, the oracle integrates it by trapezoid on a 16x finer
        # grid, and the coarse error must shrink at second order.
        k0 = np.array([1.0, 2.0])
        lam = float(np.sum(k0**2))
        eps = 0.05
        mode = plane_wave(grid32, k0, amp=eps)
        phi = plane_wave(grid32, k0, amp=0.02)
        nu = -2.0 * lam * eps**3 / (1.0 + eps**2)  # closed-form source coefficient
        unit_wave = plane_wave(grid32, k0).values

        errs = {}
        for dt in (1.0 / 32.0, 1.0 / 64.0):
            times = uniform_times(0.5, dt)
            prev = Trajectory(
                grid32,
                times,
                np.broadcast_to(mode.values, (times.size,) + grid32.shape).copy(),
                "complex_chart",
            )
            out = duhamel_map(phi, prev, NO_DEALIAS)
            # project each snapshot onto the sampled plane wave
            coef = np.sum(out.values * np.conj(unit_wave), axis=(1, 2)) / grid32.num_points
            oracle = duhamel_constant_mode(0.02, nu, lam, times, refine=16)
            errs[dt] = np.max(np.abs(coef - oracle))
        assert errs[1.0 / 32.0] < 5e-6
        ratio = errs[1.0 / 32.0] / errs[1.0 / 64.0]
        assert 3.2 < ratio < 4.8


class TestCarriedSpectra:
    @staticmethod
    def free_with_spectra(phi, times):
        spectra = propagator_stack(times, phi.grid.wavenumber_sq()) * to_frequency(phi).values
        axes = tuple(range(1, phi.grid.d + 1))
        return Trajectory(
            phi.grid, times, samples_of(spectra, axes=axes), "complex_chart", spectra=spectra
        )

    def test_duhamel_same_with_and_without_spectra(self, grid32, rng):
        phi = random_smooth_field(grid32, rng, amp=0.3)
        carried = self.free_with_spectra(phi, uniform_times(0.25, 1.0 / 64.0))
        bare = Trajectory(grid32, carried.times, carried.values, "complex_chart")
        with_spec = duhamel_map(phi, carried)
        without = duhamel_map(phi, bare)
        scale = np.max(np.abs(without.values))
        assert np.max(np.abs(with_spec.values - without.values)) <= 1e-14 * scale
        assert np.max(
            np.abs(with_spec.spectra - spectrum_of(with_spec.values, axes=(1, 2)))
        ) <= 1e-14 * scale

    def test_results_do_not_keep_spectra(self, grid32):
        phi = small_bump(grid32, 1e-3)
        times = uniform_times(0.25, 1.0 / 64.0)
        traj, _ = picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=SIGMA0)
        assert traj.spectra is None
        assert free_trajectory(phi, times).spectra is None

    def test_spectra_shape_checked(self, grid32):
        times = uniform_times(0.25, 1.0 / 64.0)
        vals = np.zeros((times.size,) + grid32.shape, complex)
        with pytest.raises(ValueError, match="spectra shape"):
            Trajectory(grid32, times, vals, "complex_chart", spectra=vals[1:])

    @pytest.mark.parametrize("d, n", [(1, 32), (2, 32), (3, 16)])
    def test_one_map_transform_count(self, monkeypatch, rng, d, n):
        grid = GridSpec(d, n, 1.0)
        phi = random_smooth_field(grid, rng, amp=0.1)
        prev = self.free_with_spectra(phi, uniform_times(0.125, 1.0 / 64.0))
        calls = []
        for name in ("fftn", "ifftn"):
            original = getattr(scipy.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args[0].shape)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        duhamel_map(phi, prev)
        assert len(calls) <= d + 7
        assert sum(shape == grid.shape for shape in calls) <= 1  # phi_hat only


class TestPicard:
    def test_zero_data_short_circuits(self, grid32):
        traj, hist = picard_solve(ComplexField.zeros(grid32), 0.25, 1.0 / 64.0)
        assert np.max(np.abs(traj.values)) == 0.0
        assert hist.records == []

    def test_small_data_contracts(self, grid32):
        phi = small_bump(grid32, 1e-3)
        traj, hist = picard_solve(phi, 0.5, 1.0 / 128.0, sigma0=SIGMA0)
        assert len(hist.records) <= 40
        assert all(r.ratio <= 0.5 for r in hist.records)
        assert all(np.isfinite(r.ratio) for r in hist.records)

    def test_fixed_point_residual(self, grid32):
        phi = small_bump(grid32, 1e-3)
        tol = 1e-10
        traj, _ = picard_solve(phi, 0.5, 1.0 / 128.0, tol=tol, sigma0=SIGMA0)
        again = duhamel_map(phi, traj)
        res = float(
            np.max(hsigma_norm_stack(again.values - traj.values, grid32, SIGMA0))
        )
        assert res <= 2.0 * tol * hsigma_norm(phi, SIGMA0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_large_data_raises_no_contraction(self, grid32):
        phi = small_bump(grid32, 10.0)
        with pytest.raises(NoContraction) as err:
            picard_solve(phi, 0.5, 1.0 / 64.0, sigma0=SIGMA0)
        assert err.value.history is not None

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_amplitude_sweep_monotone_degradation(self, grid32):
        worst = []
        for amp in (1e-3, 1e-2, 1e-1, 1.0):
            _, hist = picard_solve(small_bump(grid32, amp), 0.5, 1.0 / 64.0, sigma0=SIGMA0)
            worst.append(max(hist.ratios))
        assert worst == sorted(worst)
        with pytest.raises(NoContraction):
            picard_solve(small_bump(grid32, 10.0), 0.5, 1.0 / 64.0, sigma0=SIGMA0)

    def test_uniform_iterate_bound(self, grid32):
        # One constant must bound sup_t ||u_n|| / ||phi|| across iterates and
        # amplitudes inside the small regime.
        consts = []
        for amp in (1e-3, 1e-2):
            phi = small_bump(grid32, amp)
            _, hist = picard_solve(phi, 0.5, 1.0 / 128.0, sigma0=SIGMA0)
            consts += [r.sup_norm / hsigma_norm(phi, SIGMA0) for r in hist.records]
        assert max(consts) < 1.05

    def test_higher_regularity_persists(self, grid32):
        phi = small_bump(grid32, 1e-3)
        sups = {}
        for dt in (1.0 / 64.0, 1.0 / 128.0):
            traj, _ = picard_solve(phi, 0.5, dt, sigma0=SIGMA0)
            sups[dt] = [traj.sup_hsigma(SIGMA0 + extra) for extra in (1.0, 2.0)]
        for a, b in zip(*sups.values()):
            assert np.isfinite(a) and np.isfinite(b)
            assert abs(a - b) < 0.05 * abs(b)

    def test_rejects_long_window(self, grid32):
        with pytest.raises(ValueError):
            picard_solve(small_bump(grid32, 1e-3), 1.5, 1.0 / 64.0)

    def test_max_iter_exceeded(self, grid32):
        from smap.errors import MaxIterExceeded

        with pytest.raises(MaxIterExceeded) as err:
            picard_solve(
                small_bump(grid32, 1e-3), 0.25, 1.0 / 64.0, tol=1e-30, max_iter=2
            )
        assert len(err.value.history.records) == 2

    def test_non_finite_data_fails_at_once(self, grid32):
        phi = small_bump(grid32, 1e-3)
        phi.values[3, 5] = np.nan
        with pytest.raises(NoContraction, match="initial data") as err:
            picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=SIGMA0)
        assert err.value.history is not None
        assert err.value.history.records == []

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_iterate_fails_at_once(self, grid32):
        with pytest.raises(NoContraction, match="not finite") as err:
            picard_solve(small_bump(grid32, 1e150), 0.5, 1.0 / 64.0, sigma0=SIGMA0)
        records = err.value.history.records
        assert not np.isfinite(records[-1].sup_norm) or not np.isfinite(records[-1].diff_norm)
        assert all(np.isfinite(r.sup_norm) and np.isfinite(r.diff_norm) for r in records[:-1])


class TestMidpoint:
    # Fixed-point sweeps need dt * |Delta| / 2 < 1, hence the wide box.
    def test_north_pole_equilibrium(self):
        grid = GridSpec(2, 32, 4.0)
        s0 = SphereField.constant(grid, (0.0, 0.0, 1.0))
        traj = midpoint_solve(s0, 0.25, 1.0 / 32.0, inner_tol=1e-12)
        assert np.max(np.abs(traj.values - s0.values)) < 1e-13

    def test_norm_preservation(self, rng):
        grid = GridSpec(2, 32, 4.0)
        s0 = stereo_lift(random_smooth_field(grid, rng, amp=0.05))
        inner_tol = 1e-12
        traj = midpoint_solve(s0, 0.25, 1.0 / 64.0, inner_tol=inner_tol)
        dev = np.max(np.abs(np.sqrt(np.sum(traj.values**2, axis=1)) - 1.0))
        assert dev <= 10.0 * inner_tol

    def test_dt_must_divide_t(self):
        grid = GridSpec(2, 32, 4.0)
        s0 = SphereField.constant(grid, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            midpoint_solve(s0, 0.25, 0.107, inner_tol=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_inner_divergence_on_stiff_setup(self, rng):
        # dt * |Delta| / 2 > 1 with rough data defeats the fixed point.
        grid = GridSpec(2, 32, 0.25)  # per-axis wavenumbers up to 64
        vals = rng.standard_normal((3,) + grid.shape)
        s0 = SphereField(grid, 0.0, vals + np.array([0, 0, 2.0]).reshape(3, 1, 1))
        with pytest.raises(InnerDivergence):
            midpoint_solve(s0, 0.125, 1.0 / 8.0, inner_tol=1e-12)

    def test_non_finite_data_fails_at_once(self):
        grid = GridSpec(2, 32, 4.0)
        vals = SphereField.constant(grid, (0.0, 0.0, 1.0)).values.copy()
        vals[:, 4, 7] = np.nan
        with pytest.raises(InnerDivergence, match="non-finite change at step 0"):
            midpoint_solve(SphereField(grid, 0.0, vals), 0.25, 1.0 / 64.0)


class TestGronwall:
    def test_identical_trajectories_flagged(self, rng):
        grid32 = GridSpec(2, 32, 4.0)
        s0 = stereo_lift(random_smooth_field(grid32, rng, amp=0.02))
        traj = midpoint_solve(s0, 0.25, 1.0 / 64.0, inner_tol=1e-12)
        rep = gronwall_diagnostic(traj, traj)
        assert rep.meta["identical_trajectories"] is True
        assert rep.meta["flag"] == "DegenerateInput"

    def test_perturbed_data_growth_and_stability(self, rng):
        grid32 = GridSpec(2, 32, 4.0)
        base = random_smooth_field(grid32, rng, amp=0.05)
        ref = midpoint_solve(stereo_lift(base), 0.25, 1.0 / 64.0, inner_tol=1e-12)
        direction = random_smooth_field(grid32, rng, amp=1.0)
        constants = {}
        for delta in (1e-4, 1e-5):
            pert = ComplexField(
                grid32, 0.0, PHYSICAL, base.values + delta * direction.values
            )
            other = midpoint_solve(stereo_lift(pert), 0.25, 1.0 / 64.0, inner_tol=1e-12)
            rep = gronwall_diagnostic(ref, other)
            c_s = rep.meta["gronwall_constant"]
            energy = np.array(rep.column("energy"))
            times = np.array(rep.column("t"))
            assert np.isfinite(c_s)
            bound = energy[0] * np.exp(np.maximum(c_s, 0.0) * times) * (1 + 1e-6)
            assert np.all(energy <= bound + 1e-30)
            constants[delta] = c_s
        spread = max(abs(c) for c in constants.values()) / max(
            min(abs(c) for c in constants.values()), 1e-300
        )
        assert spread < 10.0  # same linearized flow governs both sizes

    def test_same_data_different_integrator_tolerance(self, rng):
        grid32 = GridSpec(2, 32, 4.0)
        s0 = stereo_lift(random_smooth_field(grid32, rng, amp=0.02))
        a = midpoint_solve(s0, 0.25, 1.0 / 64.0, inner_tol=1e-11)
        b = midpoint_solve(s0, 0.25, 1.0 / 64.0, inner_tol=1e-13)
        rep = gronwall_diagnostic(a, b)
        energy = rep.column("energy")
        assert max(energy) < 1e-18

    def test_same_data_different_integrators_refines(self):
        # Chart route lifted vs sphere route from the same data: the
        # difference energy is pure discretization error and must drop by
        # ~2^4 (squared second-order gap) when dt is halved.
        grid = GridSpec(2, 32, 4.0)
        X = np.meshgrid(*([grid.axis_coordinates()] * 2), indexing="ij")
        vals = 1e-3 * np.exp(-(X[0] ** 2 + X[1] ** 2)) * np.exp(1j * X[0])
        phi = ComplexField(grid, 0.0, PHYSICAL, vals)
        peaks = {}
        for dt in (1.0 / 64.0, 1.0 / 128.0):
            chart, _ = picard_solve(phi, 0.25, dt, sigma0=SIGMA0)
            sphere = midpoint_solve(stereo_lift(phi), 0.25, dt, inner_tol=1e-13)
            lifted = np.stack(
                [stereo_lift(chart.snapshot(m)).values for m in range(len(chart))]
            )
            rep = gronwall_diagnostic(
                sphere, Trajectory(grid, chart.times.copy(), lifted, "sphere")
            )
            peaks[dt] = max(rep.column("energy"))
        assert peaks[1.0 / 128.0] < peaks[1.0 / 64.0] / 8.0

    def test_kind_and_grid_validation(self, rng):
        grid32 = GridSpec(2, 32, 4.0)
        s0 = stereo_lift(random_smooth_field(grid32, rng, amp=0.02))
        traj = midpoint_solve(s0, 0.125, 1.0 / 64.0, inner_tol=1e-12)
        chart = free_trajectory(random_smooth_field(grid32, rng), traj.times)
        with pytest.raises(ValueError):
            gronwall_diagnostic(traj, chart)


class TestTrajectory:
    def test_nonuniform_times_rejected(self, grid32):
        times = np.array([0.0, 0.1, 0.25])
        with pytest.raises(ValueError):
            Trajectory(
                grid32, times, np.zeros((3,) + grid32.shape, complex), "complex_chart"
            )

    def test_snapshot_roundtrip(self, grid32, rng):
        traj = free_trajectory(
            random_smooth_field(grid32, rng), uniform_times(0.25, 1.0 / 32.0)
        )
        snap = traj.snapshot(3)
        assert snap.time == pytest.approx(traj.times[3])
        assert np.array_equal(snap.values, traj.values[3])
