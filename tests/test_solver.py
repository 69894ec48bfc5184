import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smap.errors import GridMismatch, InnerDivergence, NoContraction
from smap.geometry import SphereField, stereo_lift
from smap.grid import GridSpec
from smap.harness.data import DATA_KINDS, seeded_data
from smap.nonlinearity import NO_DEALIAS, TWO_THIRDS, DealiasPolicy, sphere_rhs
from smap import nonlinearity as nonlinearity_module
from smap import solver
from smap.solver import (
    Trajectory,
    duhamel_map,
    free_trajectory,
    midpoint_snapshots,
    picard_solve,
    propagator_stack,
    uniform_times,
)
from smap.spacetime import window_profile, windowed_samples
from smap.spectral import (
    FREQUENCY,
    PHYSICAL,
    ComplexField,
    complex_work,
    hsigma_norm,
    hsigma_norm_spectra,
    real_work,
    to_frequency,
    to_physical,
)

from conftest import gronwall_of, midpoint_stack, physical_stack, random_smooth_field, traced_peak
from oracles import (
    dealias_mask_direct,
    duhamel_constant_mode,
    duhamel_map_unblocked,
    mesh,
    midpoint_direct,
    picard_full_storage,
    plane_wave,
    propagator_longdouble,
    samples_of,
    spectrum_of,
    sup_hsigma,
)

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
        zero = np.zeros(grid32.shape, complex)
        values = np.zeros((times.size,) + zero.shape, complex)
        image = Trajectory(grid32, times, values, NO_DEALIAS, zero)
        duhamel_map(phi, image, TWO_THIRDS, SIGMA0)
        free = free_trajectory(phi, times)
        assert np.max(np.abs(physical_stack(image) - physical_stack(free))) < 1e-12

    def test_zero_data_starts_at_zero(self, grid32, rng):
        prev = free_trajectory(
            random_smooth_field(grid32, rng, amp=1e-2), uniform_times(0.25, 1.0 / 64.0)
        )
        duhamel_map(ComplexField.zeros(grid32), prev, TWO_THIRDS, SIGMA0)
        assert np.max(np.abs(prev.values[0])) == 0.0

    def test_grid_mismatch(self, grid32, rng):
        phi = random_smooth_field(GridSpec(2, 16, 1.0), rng)
        prev = free_trajectory(
            random_smooth_field(grid32, rng), uniform_times(0.25, 1.0 / 64.0)
        )
        with pytest.raises(GridMismatch):
            duhamel_map(phi, prev, TWO_THIRDS, SIGMA0)

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
        mode_hat = to_frequency(mode).values

        errs = {}
        for dt in (1.0 / 32.0, 1.0 / 64.0):
            times = uniform_times(0.5, dt)
            stack = np.broadcast_to(mode_hat, (times.size,) + grid32.shape).copy()
            prev = Trajectory(grid32, times, stack, NO_DEALIAS, mode_hat)
            duhamel_map(phi, prev, NO_DEALIAS, SIGMA0)
            # project each snapshot onto the sampled plane wave
            samples = physical_stack(prev)
            coef = np.sum(samples * np.conj(unit_wave), axis=(1, 2)) / grid32.num_points
            oracle = duhamel_constant_mode(0.02, nu, lam, times, refine=16)
            errs[dt] = np.max(np.abs(coef - oracle))
        assert errs[1.0 / 32.0] < 5e-6
        ratio = errs[1.0 / 32.0] / errs[1.0 / 64.0]
        assert 3.2 < ratio < 4.8


class TestCarriedSpectra:
    @pytest.mark.parametrize(
        "policy, kept", [(TWO_THIRDS, 21), (NO_DEALIAS, 32)], ids=["two_thirds", "none"]
    )
    def test_picard_keeps_only_the_band(self, grid32, policy, kept):
        # The fixed point stores the 2/3 band (21 of 32 modes per axis) and
        # the data's spectrum; free evolution keeps every mode.
        phi = small_bump(grid32, 1e-3)
        times = uniform_times(0.25, 1.0 / 64.0)
        traj, _ = picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=SIGMA0, policy=policy)
        assert traj.dealias == policy
        assert traj.values.shape == (times.size, kept, kept)
        assert np.array_equal(traj.free, to_frequency(phi).values)
        free = free_trajectory(phi, times)
        assert free.dealias == NO_DEALIAS and free.values.shape == (times.size,) + grid32.shape

    def test_spectra_shape_checked(self, grid32):
        times = uniform_times(0.25, 1.0 / 64.0)
        vals = np.zeros((times.size,) + grid32.shape, complex)
        with pytest.raises(ValueError, match="values shape"):
            Trajectory(grid32, times, vals[1:], NO_DEALIAS, vals[0])
        sphere = np.zeros((times.size, 3) + grid32.shape)
        with pytest.raises(ValueError, match="values shape"):
            Trajectory(grid32, times, sphere, NO_DEALIAS, vals[0])
        with pytest.raises(ValueError, match="values shape"):
            Trajectory(grid32, times, vals, TWO_THIRDS, vals[0])  # the full rows, not the band
        for free in (vals[0, :3], vals[:2], None):  # the free spectrum is one grid-shaped row
            with pytest.raises(ValueError, match="free shape"):
                Trajectory(grid32, times, vals, NO_DEALIAS, free)

    def test_physical_only_consumers(self, grid32, rng):
        # Consumers that need physical samples read them from the spectra:
        # the sample stream, one rebuilt row, and the window stack.
        phi = random_smooth_field(grid32, rng, amp=0.3)
        spectral = free_trajectory(phi, uniform_times(2.0, 1.0 / 32.0, t0=-1.0))
        physical = physical_stack(spectral)
        assert np.array_equal(physical, samples_of(spectral.values, axes=(1, 2)))
        snap = spectral.snapshot(5)
        assert snap.representation == FREQUENCY
        assert np.array_equal(to_physical(snap).values, physical[5])
        window = window_profile(spectral.times[:-1], 1.0).reshape(-1, 1, 1)
        assert np.array_equal(windowed_samples(spectral, 1.0), physical[:-1] * window)

    @pytest.mark.parametrize("d, n", [(1, 32), (2, 32), (3, 16)])
    def test_one_map_transform_count(self, monkeypatch, rng, d, n):
        grid = GridSpec(d, n, 1.0)
        phi = random_smooth_field(grid, rng, amp=0.1)
        prev = free_trajectory(phi, uniform_times(0.125, 1.0 / 64.0))
        monkeypatch.setattr(solver, "BLOCK_BYTES", prev.values.nbytes)  # one block
        calls = {}
        # Stack transforms run on spectral.unitary_dft, or on spectral.box_dft
        # where the 2/3 rule drops what they make; single fields go through
        # to_frequency (the ComplexField API). All are counted.
        targets = [(solver, "to_frequency", "field")]
        targets += [(solver, "unitary_dft", "unitary_dft")]
        targets += [(nonlinearity_module, name, name) for name in ("unitary_dft", "box_dft")]
        for owner, name, kind in targets:
            original = getattr(owner, name)

            def counted(x, *args, _original=original, _kind=kind, **kwargs):
                calls[_kind].append(np.shape(getattr(x, "values", x)))
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        rows = (len(prev.times),) + grid.shape
        for policy, boxed in ((TWO_THIRDS, 5), (NO_DEALIAS, 1)):
            calls.update({"field": [], "unitary_dft": [], "box_dft": []})
            image = Trajectory(grid, prev.times, prev.values.copy(), NO_DEALIAS, prev.free)
            duhamel_map(phi, image, policy, SIGMA0)
            assert set(calls["field"]) <= {grid.shape}  # phi_hat only
            assert len(calls["field"]) <= 1
            # The inverse of the rebuilt rows and the d gradient inverses;
            # then the two dealias round trips and the product's forward
            # transform, of which the none rule makes the last.
            assert len(calls["unitary_dft"]) == 1 + d, policy
            assert len(calls["box_dft"]) == boxed, policy
            assert all(shape == rows for kind in ("unitary_dft", "box_dft") for shape in calls[kind])


class TestBlockedMap:
    """The map walks time in blocks; every block size gives the unblocked result."""

    @pytest.mark.parametrize("output", [PHYSICAL, FREQUENCY])
    @pytest.mark.parametrize("policy", [TWO_THIRDS, NO_DEALIAS], ids=["two_thirds", "none"])
    @pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
    @pytest.mark.parametrize("samples", [17, 2])  # no block size divides 17; 2 takes exp per row
    def test_matches_unblocked_oracle(self, monkeypatch, d, n, policy, output, samples):
        # The image's spectra, and its physical samples as sample_blocks
        # streams them, equal the whole-stack reference at every block size.
        grid = GridSpec(d, n, 2.0)
        rng = np.random.default_rng(d * 100 + samples)
        phi = random_smooth_field(grid, rng, amp=0.2)
        times = uniform_times((samples - 1) / 64.0, 1.0 / 64.0)
        prev = free_trajectory(random_smooth_field(grid, rng, amp=0.4), times)
        axes = tuple(range(1, d + 1))
        want = duhamel_map_unblocked(
            to_frequency(phi).values, physical_stack(prev), prev.values, times, grid, policy
        )
        if output == PHYSICAL:
            want = samples_of(want, axes=axes)
        row_bytes = 16 * grid.num_points
        for rows in (1, 3, 7, samples):
            monkeypatch.setattr(solver, "BLOCK_BYTES", rows * row_bytes)
            image = Trajectory(grid, times, prev.values.copy(), NO_DEALIAS, prev.free)
            duhamel_map(phi, image, policy, SIGMA0)
            got = physical_stack(image) if output == PHYSICAL else image.values
            assert np.array_equal(got, want), rows

    def test_picard_peak_below_three_stacks(self, monkeypatch):
        grid = GridSpec(2, 32, 4.0)
        phi = small_bump(grid, 1e-2)
        times = uniform_times(0.5, 1.0 / 128.0)
        stack_bytes = 16 * times.size * grid.num_points
        monkeypatch.setattr(solver, "BLOCK_BYTES", 4 * 16 * grid.num_points)  # 17 blocks
        picard_solve(phi, 0.5, 1.0 / 128.0, sigma0=SIGMA0)  # warm the caches
        with traced_peak() as peak:
            _, hist = picard_solve(phi, 0.5, 1.0 / 128.0, sigma0=SIGMA0)
        assert len(hist.records) >= 2
        assert peak.bytes < 3 * stack_bytes


class TestInPlaceMap:
    """duhamel_map overwrites its trajectory with the image and returns two norms."""

    @pytest.mark.parametrize("policy", [TWO_THIRDS, NO_DEALIAS], ids=["two_thirds", "none"])
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_same_bits_as_allocating_map_and_parent_norms(self, monkeypatch, d, n, policy):
        # The allocating map is the whole-stack reference duhamel_map_unblocked.
        grid = GridSpec(d, n, 2.0)
        rng = np.random.default_rng(10 * d + n)
        phi = random_smooth_field(grid, rng, amp=0.2)
        times = uniform_times(0.25, 1 / 64)
        prev = free_trajectory(random_smooth_field(grid, rng, amp=0.4), times)
        monkeypatch.setattr(solver, "BLOCK_BYTES", 3 * 16 * grid.num_points)  # 17 rows: 6 blocks
        want = duhamel_map_unblocked(
            to_frequency(phi).values, physical_stack(prev), prev.values, times, grid, policy
        )
        # The full-storage norms: whole-stack difference, then sup_hsigma of both stacks.
        want_diff = sup_hsigma(want - prev.values, grid, SIGMA0)
        want_sup = sup_hsigma(want, grid, SIGMA0)
        diff, sup = duhamel_map(phi, prev, policy, SIGMA0)
        assert np.array_equal(prev.values, want)
        assert (diff, sup) == (want_diff, want_sup)

    def test_map_with_a_workspace_allocates_under_a_quarter_block(self, monkeypatch):
        # After a warm-up, a map given the solve's workspace allocates only
        # the carried rows, the per-row norms and numpy's buffers for
        # strided operands (at most 3 x 8192 values, 384 KiB, per call,
        # whatever the block): under a quarter of one 4 MiB block, so a
        # per-block temporary cannot come back unnoticed.
        grid = GridSpec(2, 32, 4.0)
        monkeypatch.setattr(solver, "BLOCK_BYTES", 1 << 22)
        phi = to_frequency(small_bump(grid, 1e-2))
        traj, _ = picard_solve(phi, 0.5, 1.0 / 1024.0, sigma0=SIGMA0)
        rows = solver._block_rows(grid)
        assert rows == 256 and len(traj) > 2 * rows  # three blocks
        work = complex_work((rows,) + grid.shape)
        duhamel_map(phi, traj, TWO_THIRDS, SIGMA0, work)  # warm the caches
        with traced_peak() as peak:
            duhamel_map(phi, traj, TWO_THIRDS, SIGMA0, work)
        assert peak.bytes < 0.25 * 16 * rows * grid.num_points

    def test_picard_peak_below_one_and_a_half_trajectories(self):
        grid = GridSpec(2, 32, 4.0)
        phi = small_bump(grid, 1e-2)
        T, dt = 1.0, 1.0 / 1024.0
        traj_bytes = 16 * uniform_times(T, dt).size * grid.num_points
        picard_solve(phi, T, dt, sigma0=SIGMA0)  # warm the caches
        with traced_peak() as peak:
            _, hist = picard_solve(phi, T, dt, sigma0=SIGMA0)
        assert len(hist.records) >= 2
        assert peak.bytes < 1.5 * traj_bytes


class TestBandStorage:
    """picard_solve stores each iterate's dealias band only; every other mode
    of every iterate is exactly the free flow forward * phi_hat."""

    @given(
        d=st.sampled_from([1, 2, 3]),
        rule=st.sampled_from(["two_thirds", "none"]),
        kind=st.sampled_from(DATA_KINDS),
        samples=st.sampled_from([5, 11, 17]),
        amp=st.floats(1e-3, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_every_iterate_is_free_flow_outside_the_band(self, d, rule, kind, samples, amp, seed):
        # The map computes and stores every mode here (a trajectory of the
        # whole band), so the modes outside the dealias band are the map's
        # own output, compared with the free flow in value and sign bits.
        grid = GridSpec(d, {1: 32, 2: 16, 3: 8}[d], 2.0)
        policy = DealiasPolicy(rule)
        phi = to_frequency(seeded_data(kind, amp, seed, grid, SIGMA0))
        times = uniform_times((samples - 1) / 64.0, 1.0 / 64.0)
        free = propagator_stack(times, grid.wavenumber_sq()) * phi.values
        traj = Trajectory(grid, times, free.copy(), NO_DEALIAS, phi.values)
        outside = ~dealias_mask_direct(d, grid.n, grid.period, rule == "two_thirds")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "BLOCK_BYTES", 3 * 16 * grid.num_points)  # 3-row blocks
            for _ in range(3):
                duhamel_map(phi, traj, policy, SIGMA0)
                got, want = (np.ascontiguousarray(a[:, outside]) for a in (traj.values, free))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "d, n, kind, rule",
        [
            (1, 32, "mode_sum", "two_thirds"),
            (2, 16, "gaussian_bump", "two_thirds"),
            (2, 16, "random_bandlimited", "none"),
            (3, 8, "random_bandlimited", "two_thirds"),
        ],
    )
    def test_matches_full_storage_oracle(self, monkeypatch, d, n, kind, rule):
        grid = GridSpec(d, n, 2.0)
        policy = DealiasPolicy(rule)
        phi = seeded_data(kind, 0.3, 5, grid, SIGMA0)
        monkeypatch.setattr(solver, "BLOCK_BYTES", 3 * 16 * grid.num_points)  # 17 rows: 6 blocks
        traj, hist = picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=SIGMA0, policy=policy)
        records, want = picard_full_storage(phi, 0.25, 1.0 / 64.0, 1e-10, 40, SIGMA0, policy)
        assert [(r.sup_norm, r.diff_norm, r.ratio) for r in hist.records] == records
        assert np.array_equal(physical_stack(traj), want)
        for m in (0, 7, len(traj) - 1):
            assert np.array_equal(to_physical(traj.snapshot(m)).values, want[m])

    def test_band_checks(self, grid32, rng):
        phi = random_smooth_field(grid32, rng, amp=0.1)
        traj, _ = picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=SIGMA0)
        with pytest.raises(ValueError, match="free shape"):
            Trajectory(grid32, traj.times, traj.values, TWO_THIRDS, None)
        with pytest.raises(ValueError, match="two_thirds band"):
            duhamel_map(phi, traj, NO_DEALIAS, SIGMA0)

    def test_picard_peak_below_half_a_trajectory_d3(self, monkeypatch):
        # d = 3, n = 16: the band is 11^3 of the 16^3 modes (32%), and
        # 4-row blocks keep the temporaries small beside it.
        grid = GridSpec(3, 16, 4.0)
        phi = small_bump(grid, 1e-2)
        T, dt = 1.0, 1.0 / 512.0
        traj_bytes = 16 * uniform_times(T, dt).size * grid.num_points
        monkeypatch.setattr(solver, "BLOCK_BYTES", 4 * 16 * grid.num_points)
        picard_solve(phi, T, dt, sigma0=SIGMA0)  # warm the caches
        with traced_peak() as peak:
            _, hist = picard_solve(phi, T, dt, sigma0=SIGMA0)
        assert len(hist.records) >= 2
        assert peak.bytes < 0.5 * traj_bytes


class TestPropagator:
    # (grid, (T, dt, t0), rows, error): the `norms` ensemble window
    # (max |t |xi|^2| = 2048), its Picard member (1024), and the chart_sweep
    # (64) and route_d3 (24) Picard windows, with the recurrence's largest
    # component error against long double.
    CASES = [
        ((2, 64, 1.0), (2.0, 2.0 / 1280.0, -1.0), 1281, 5.7e-11),
        ((2, 64, 1.0), (0.5, 1.0 / 640.0, 0.0), 321, 1.25e-13),
        ((2, 64, 4.0), (0.5, 1.0 / 256.0, 0.0), 129, 7.9e-15),
        ((3, 32, 4.0), (0.5, 1.0 / 256.0, 0.0), 129, 7.2e-15),
    ]

    @staticmethod
    def error(stack, times, k2):
        re, im = propagator_longdouble(times, k2)
        return float(max(np.max(np.abs(stack.real - re)), np.max(np.abs(stack.imag - im))))

    @pytest.mark.parametrize("grid_args, window, rows, bound", CASES)
    def test_recurrence_error_matches_documented_bounds(self, grid_args, window, rows, bound):
        k2 = np.unique(GridSpec(*grid_args).wavenumber_sq())  # the phase depends on |xi|^2 only
        T, dt, t0 = window
        times = uniform_times(T, dt, t0=t0)
        assert times.size == rows
        err = self.error(propagator_stack(times, k2), times, k2)
        assert bound / 2.0 <= err <= 2.0 * bound

    def test_direct_exp_on_norms_window(self):
        k2 = np.unique(GridSpec(2, 64, 1.0).wavenumber_sq())
        times = uniform_times(2.0, 2.0 / 1280.0, t0=-1.0)
        direct = np.exp(-1j * times[:, None] * k2[None, :])
        assert self.error(direct, times, k2) <= 2.0 * 1.1e-13


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
        again = Trajectory(grid32, traj.times, traj.values.copy(), traj.dealias, traj.free)
        duhamel_map(phi, again, TWO_THIRDS, SIGMA0)
        diff_hat = spectrum_of(physical_stack(again) - physical_stack(traj), axes=(1, 2))
        res = float(np.max(hsigma_norm_spectra(diff_hat, grid32, SIGMA0)))
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
            spectra = spectrum_of(physical_stack(traj), axes=(1, 2))
            sups[dt] = [
                np.max(hsigma_norm_spectra(spectra, grid32, SIGMA0 + extra)) for extra in (1.0, 2.0)
            ]
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
        stack = midpoint_stack(s0, 0.25, 1.0 / 32.0, inner_tol=1e-12)
        assert np.max(np.abs(stack - s0.values)) < 1e-13

    def test_norm_preservation(self, rng):
        grid = GridSpec(2, 32, 4.0)
        s0 = stereo_lift(random_smooth_field(grid, rng, amp=0.05))
        inner_tol = 1e-12
        stack = midpoint_stack(s0, 0.25, 1.0 / 64.0, inner_tol=inner_tol)
        dev = np.max(np.abs(np.sqrt(np.sum(stack**2, axis=1)) - 1.0))
        assert dev <= 10.0 * inner_tol

    def test_matches_np_cross_oracle_d3(self, rng):
        grid = GridSpec(3, 16, 2.0)
        s0 = stereo_lift(random_smooth_field(grid, rng, amp=0.3))
        steps = list(midpoint_snapshots(s0, 0.125, 1.0 / 64.0, inner_tol=1e-12))
        stack = np.stack([v for _, v, _ in steps])
        oracle, _ = midpoint_direct(s0.values, 3, 16, 2.0, 0.125, 1.0 / 64.0, 1e-12)
        assert stack.shape == oracle.shape
        assert np.max(np.abs(stack - oracle)) <= 1e-12
        assert np.array_equal([t for t, _, _ in steps], uniform_times(0.125, 1.0 / 64.0))
        sweeps = [n for _, _, n in steps]
        assert sweeps[0] == 0 and all(1 <= n < 100 for n in sweeps[1:])

    def test_fused_sweep_matches_sphere_rhs_path(self, rng):
        # A sweep takes w x ((dt/4) Lap w) for the doubled midpoint w; with a
        # power-of-two dt every scaling is exact, so it equals dt * F(w/2).
        grid = GridSpec(3, 16, 2.0)
        sm = stereo_lift(random_smooth_field(grid, rng, amp=0.3)).values
        v = stereo_lift(random_smooth_field(grid, rng, amp=0.3)).values
        for dt in (1.0 / 64.0, 1.0 / 256.0):
            fused = sphere_rhs(sm + v, grid, scale=0.25 * dt)
            fused += sm
            plain = sphere_rhs(0.5 * (sm + v), grid)
            plain *= dt
            plain += sm
            assert np.array_equal(fused, plain)

    @given(
        d=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        amp=st.floats(1e-3, 0.5),
    )
    def test_stream_keeps_integral_and_constraint(self, d, seed, amp):
        # int s dx is a linear invariant of d_t s = s x Lap s (the flux
        # s x grad s has no mean), which implicit midpoint keeps up to its
        # inner solve; |s| = 1 holds up to the inner tolerance.
        grid = GridSpec(d, {1: 64, 2: 32, 3: 16}[d], 4.0)
        s0 = stereo_lift(random_smooth_field(grid, np.random.default_rng(seed), amp=amp))
        inner_tol = 1e-12
        axes = tuple(range(1, d + 1))
        integral0 = grid.cell_volume * np.sum(s0.values, axis=axes)
        drift = dev = 0.0
        for _, values, _ in midpoint_snapshots(s0, 1.0 / 32.0, 1.0 / 256.0, inner_tol):
            integral = grid.cell_volume * np.sum(values, axis=axes)
            drift = max(drift, np.max(np.abs(integral - integral0)))
            dev = max(dev, np.max(np.abs(np.sqrt(np.sum(values**2, axis=0)) - 1.0)))
        assert drift <= 1e-13 * grid.volume
        assert dev <= 10.0 * inner_tol

    def test_extrapolated_start_cuts_sweeps(self, rng):
        # A well-resolved step (dt |xi|^2 / 4 well below 1, as on the d = 3
        # benchmark run): the start is what the sweeps have to make up. On
        # stiff steps the contraction rate sets the count and the start
        # gains little.
        grid = GridSpec(3, 16, 4.0)
        s0 = stereo_lift(random_smooth_field(grid, rng, amp=0.5))
        dt = 1.0 / 256.0
        sweeps = [n for _, _, n in midpoint_snapshots(s0, 0.125, dt, inner_tol=1e-12)]
        _, former = midpoint_direct(s0.values, 3, 16, 4.0, 0.125, dt, 1e-12, extrapolate=False)
        assert sum(sweeps) <= 0.85 * sum(former)

    def test_stream_steps_in_its_own_buffers(self, rng):
        # The generator's fixed buffers (six sweep buffers and one
        # real_work) plus two snapshots bound the first step. After it, a
        # step allocates only the snapshot it yields, so with each snapshot
        # dropped two are alive, plus numpy's ufunc buffers. Allocating the
        # transforms' outputs and the normalisation's temporaries afresh
        # each sweep and step gave 3.27 snapshots here.
        grid = GridSpec(3, 16, 2.0)
        s0 = stereo_lift(random_smooth_field(grid, rng, amp=0.3))
        dt = 1.0 / 256.0
        snapshot = s0.values.nbytes
        fixed = 6 * snapshot + sum(a.nbytes for a in real_work(s0.values.shape, grid))
        steps = midpoint_snapshots(s0, 16 * dt, dt, inner_tol=1e-12)
        with traced_peak() as first:
            next(steps)
            next(steps)
        with traced_peak() as rest:
            count = sum(1 for _ in steps)
        assert count == 15
        assert first.bytes < fixed + 2 * snapshot
        assert rest.bytes < 2.5 * snapshot

    def test_dt_must_divide_t(self):
        grid = GridSpec(2, 32, 4.0)
        s0 = SphereField.constant(grid, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            midpoint_stack(s0, 0.25, 0.107, inner_tol=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_inner_divergence_on_stiff_setup(self, rng):
        # dt * |Delta| / 2 > 1 with rough data defeats the fixed point.
        grid = GridSpec(2, 32, 0.25)  # per-axis wavenumbers up to 64
        vals = rng.standard_normal((3,) + grid.shape)
        s0 = SphereField(grid, 0.0, vals + np.array([0, 0, 2.0]).reshape(3, 1, 1))
        with pytest.raises(InnerDivergence):
            midpoint_stack(s0, 0.125, 1.0 / 8.0, inner_tol=1e-12)

    def test_non_finite_data_fails_at_once(self):
        grid = GridSpec(2, 32, 4.0)
        vals = SphereField.constant(grid, (0.0, 0.0, 1.0)).values.copy()
        vals[:, 4, 7] = np.nan
        with pytest.raises(InnerDivergence, match="non-finite change at step 0"):
            midpoint_stack(SphereField(grid, 0.0, vals), 0.25, 1.0 / 64.0)


class TestGronwall:
    def test_identical_trajectories_flagged(self, rng):
        grid32 = GridSpec(2, 32, 4.0)
        s0 = stereo_lift(random_smooth_field(grid32, rng, amp=0.02))
        stack = midpoint_stack(s0, 0.25, 1.0 / 64.0, inner_tol=1e-12)
        rep = gronwall_of(uniform_times(0.25, 1.0 / 64.0), stack, stack, grid32)
        assert rep.meta["identical_trajectories"] is True
        assert rep.meta["flag"] == "DegenerateInput"

    def test_perturbed_data_growth_and_stability(self, rng):
        grid32 = GridSpec(2, 32, 4.0)
        base = random_smooth_field(grid32, rng, amp=0.05)
        times = uniform_times(0.25, 1.0 / 64.0)
        ref = midpoint_stack(stereo_lift(base), 0.25, 1.0 / 64.0, inner_tol=1e-12)
        direction = random_smooth_field(grid32, rng, amp=1.0)
        constants = {}
        for delta in (1e-4, 1e-5):
            pert = ComplexField(
                grid32, 0.0, PHYSICAL, base.values + delta * direction.values
            )
            other = midpoint_stack(stereo_lift(pert), 0.25, 1.0 / 64.0, inner_tol=1e-12)
            rep = gronwall_of(times, ref, other, grid32)
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
        a = midpoint_stack(s0, 0.25, 1.0 / 64.0, inner_tol=1e-11)
        b = midpoint_stack(s0, 0.25, 1.0 / 64.0, inner_tol=1e-13)
        rep = gronwall_of(uniform_times(0.25, 1.0 / 64.0), a, b, grid32)
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
            sphere = midpoint_stack(stereo_lift(phi), 0.25, dt, inner_tol=1e-13)
            lifted = np.stack(
                [stereo_lift(to_physical(chart.snapshot(m))).values for m in range(len(chart))]
            )
            rep = gronwall_of(chart.times, sphere, lifted, grid)
            peaks[dt] = max(rep.column("energy"))
        assert peaks[1.0 / 128.0] < peaks[1.0 / 64.0] / 8.0


class TestFreeTrajectory:
    def test_keeps_propagated_spectra(self, rng):
        grid = GridSpec(2, 32, 1.0)
        phi = to_frequency(random_smooth_field(grid, rng))
        times = uniform_times(0.5, 1.0 / 128.0)
        spectra = propagator_stack(times, grid.wavenumber_sq())
        spectra *= phi.values
        free_trajectory(phi, times)  # warm the caches
        with traced_peak() as peak:
            traj = free_trajectory(phi, times)
        assert np.array_equal(traj.values, spectra)
        assert peak.bytes < 1.5 * traj.values.nbytes
        assert np.array_equal(physical_stack(traj), samples_of(spectra, axes=(1, 2)))


class TestTrajectory:
    def test_nonuniform_times_rejected(self, grid32):
        times = np.array([0.0, 0.1, 0.25])
        zero = np.zeros(grid32.shape, complex)
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(grid32, times, np.zeros((3,) + zero.shape, complex), NO_DEALIAS, zero)

    def test_snapshot_roundtrip(self, grid32, rng):
        traj = free_trajectory(
            random_smooth_field(grid32, rng), uniform_times(0.25, 1.0 / 32.0)
        )
        snap = traj.snapshot(3)
        assert snap.time == pytest.approx(traj.times[3])
        assert np.array_equal(snap.values, traj.values[3])

    @pytest.mark.parametrize("rows", [1, 3, 7, 64])
    @pytest.mark.parametrize("policy", [TWO_THIRDS, NO_DEALIAS], ids=["two_thirds", "none"])
    def test_row_range_streams_into_out(self, grid32, rng, monkeypatch, policy, rows):
        # Rows 4..14, rebuilt and inverted in out's own rows or in the
        # stream's buffer, carry the bits of the whole stream at every
        # block size.
        phi = random_smooth_field(grid32, rng, amp=0.1)
        traj, _ = picard_solve(phi, 0.25, 1.0 / 64.0, sigma0=SIGMA0, policy=policy)
        want = physical_stack(traj)[4:15]
        monkeypatch.setattr(solver, "BLOCK_BYTES", rows * 16 * grid32.num_points)
        out = np.empty((11,) + grid32.shape, complex)
        starts = []
        for start, block in traj.sample_blocks(4, 15, out=out):
            assert np.shares_memory(block, out)
            starts.append(start)
        assert starts[0] == 4 and len(starts) == len(range(0, 15, rows)) - 4 // rows
        assert np.array_equal(out, want)
        stream = [block.copy() for _, block in traj.sample_blocks(4, 15)]
        assert np.array_equal(np.concatenate(stream), want)


def random_rotation(seed):
    """A rotation matrix in SO(3) from the QR factors of a Gaussian matrix."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] *= -1.0
    return q


def reflect(values, axis):
    """values(-x) along one grid axis: index j goes to (n - j) mod n, since
    the grid points -pi P + spacing j are symmetric about 0 up to that shift."""
    return np.roll(np.flip(values, axis), 1, axis)


class TestSymmetries:
    """Both routes commute with the symmetries of the flow, to rounding.

    The chart route (picard_solve, whose nonlinearity is
    nonlinearity_spectrum) commutes with the phase rotation u -> e^{i theta} u,
    the rotation about the chart's base point, with grid translations, and
    with axis permutations and reflections; the sphere route
    (midpoint_snapshots on sphere_rhs) with every rotation in SO(3), with
    axis permutations and reflections, and with the reflected time reversal
    s(t) -> diag(1, 1, -1) s(T - t). A converged Picard solve or midpoint
    step may stop one sweep apart from its image, so the bounds sit above
    the solve tolerances; an equivariance defect of the kernels is many
    orders larger.
    """

    @staticmethod
    def chart_data(d, kind, amp, seed):
        grid = GridSpec(d, 16, 2.0)
        return grid, to_physical(seeded_data(kind, amp, seed, grid, SIGMA0))

    @staticmethod
    def solve(phi):
        traj, _ = picard_solve(phi, 0.125, 1.0 / 64.0, sigma0=SIGMA0)
        return physical_stack(traj)

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
        theta=st.floats(0.1, 2.0 * np.pi - 0.1),
    )
    def test_picard_commutes_with_phase_rotation(self, d, kind, amp, seed, theta):
        grid, phi = self.chart_data(d, kind, amp, seed)
        turn = np.exp(1j * theta)
        base = self.solve(phi)
        turned = self.solve(ComplexField(grid, 0.0, PHYSICAL, turn * phi.values))
        assert np.max(np.abs(turned - turn * base)) <= 1e-9 * np.max(np.abs(base))

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
        shift=st.tuples(st.integers(1, 15), st.integers(0, 15)),
    )
    def test_picard_commutes_with_translation(self, d, kind, amp, seed, shift):
        grid, phi = self.chart_data(d, kind, amp, seed)
        axes = tuple(range(d))
        shift = shift[:d]
        base = self.solve(phi)
        moved = self.solve(ComplexField(grid, 0.0, PHYSICAL, np.roll(phi.values, shift, axes)))
        want = np.roll(base, shift, tuple(a + 1 for a in axes))
        assert np.max(np.abs(moved - want)) <= 1e-9 * np.max(np.abs(base))

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
        turn=st.integers(0, 2**16),
    )
    def test_midpoint_commutes_with_rotation(self, d, kind, amp, seed, turn):
        grid, phi = self.chart_data(d, kind, amp, seed)
        s0 = stereo_lift(phi)
        rot = random_rotation(turn)
        base = midpoint_stack(s0, 0.0625, 1.0 / 128.0)
        s0_turned = SphereField(grid, 0.0, np.tensordot(rot, s0.values, 1))
        turned = midpoint_stack(s0_turned, 0.0625, 1.0 / 128.0)
        want = np.einsum("ij,mj...->mi...", rot, base)
        assert np.max(np.abs(turned - want)) <= 1e-10

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
        axis=st.integers(0, 1),
    )
    def test_picard_commutes_with_reflection(self, d, kind, amp, seed, axis):
        # The derivative multiplier is odd, with its Nyquist slot, which
        # reflection maps to itself, zeroed; the data keep their Nyquist modes.
        grid, phi = self.chart_data(d, kind, amp, seed)
        self.assert_reflection_commutes(grid, phi, min(axis, d - 1))

    def test_picard_reflection_with_nyquist_modes(self):
        # gaussian_bump at n = 16, period 2 puts 0.4% of its largest mode at
        # the Nyquist slot; with the multiplier 1j * xi there, the reflected
        # solve differed by 1.3e-4 relative.
        grid, phi = self.chart_data(1, "gaussian_bump", 0.5, 0)
        self.assert_reflection_commutes(grid, phi, 0)

    def assert_reflection_commutes(self, grid, phi, axis):
        base = self.solve(phi)
        mirrored = self.solve(ComplexField(grid, 0.0, PHYSICAL, reflect(phi.values, axis)))
        want = reflect(base, axis + 1)
        assert np.max(np.abs(mirrored - want)) <= 1e-9 * np.max(np.abs(base))

    @given(
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_picard_commutes_with_axis_permutation(self, kind, amp, seed):
        grid, phi = self.chart_data(2, kind, amp, seed)
        base = self.solve(phi)
        swapped = self.solve(ComplexField(grid, 0.0, PHYSICAL, phi.values.T.copy()))
        want = np.swapaxes(base, 1, 2)
        assert np.max(np.abs(swapped - want)) <= 1e-9 * np.max(np.abs(base))

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
        axis=st.integers(0, 1),
    )
    def test_midpoint_commutes_with_reflection(self, d, kind, amp, seed, axis):
        grid, phi = self.chart_data(d, kind, amp, seed)
        axis = min(axis, d - 1)
        s0 = stereo_lift(phi)
        base = midpoint_stack(s0, 0.0625, 1.0 / 128.0)
        s0_mirrored = SphereField(grid, 0.0, reflect(s0.values, axis + 1))
        mirrored = midpoint_stack(s0_mirrored, 0.0625, 1.0 / 128.0)
        assert np.max(np.abs(mirrored - reflect(base, axis + 2))) <= 1e-10

    @given(
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_midpoint_commutes_with_axis_permutation(self, kind, amp, seed):
        grid, phi = self.chart_data(2, kind, amp, seed)
        s0 = stereo_lift(phi)
        base = midpoint_stack(s0, 0.0625, 1.0 / 128.0)
        s0_swapped = SphereField(grid, 0.0, np.swapaxes(s0.values, 1, 2).copy())
        swapped = midpoint_stack(s0_swapped, 0.0625, 1.0 / 128.0)
        assert np.max(np.abs(swapped - np.swapaxes(base, 2, 3))) <= 1e-10

    @given(
        d=st.sampled_from([1, 2]),
        kind=st.sampled_from(DATA_KINDS),
        amp=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_midpoint_reflected_time_reversal(self, d, kind, amp, seed):
        # diag(1, 1, -1) reverses the cross product's sign, so the mirrored
        # end state run forward for T retraces the mirrored run backwards;
        # the implicit midpoint rule is symmetric, so its steps do too.
        grid, phi = self.chart_data(d, kind, amp, seed)
        mirror = np.array([1.0, 1.0, -1.0]).reshape((3,) + (1,) * d)
        base = midpoint_stack(stereo_lift(phi), 0.0625, 1.0 / 128.0)
        back = midpoint_stack(SphereField(grid, 0.0, mirror * base[-1]), 0.0625, 1.0 / 128.0)
        assert np.max(np.abs(back - mirror * base[::-1])) <= 1e-10
