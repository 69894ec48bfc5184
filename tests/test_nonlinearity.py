import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smap import nonlinearity as nonlinearity_module
from smap import spectral as spectral_module
from smap.geometry import stereo_lift
from smap.grid import GridSpec
from smap.nonlinearity import (
    NO_DEALIAS,
    TWO_THIRDS,
    DealiasPolicy,
    _derivative,
    _prefactor,
    _samples_and_gradients,
    nonlinearity_spectrum,
    sphere_rhs,
)
from smap.solver import picard_solve
from smap.spectral import (
    PHYSICAL,
    ComplexField,
    l2_norm,
    laplacian_values,
    to_physical,
    unitary_dft,
)

from conftest import multiplied, nonlinearity_samples, random_smooth_field
from oracles import (
    chain_rule_pushforward,
    dealias_mask_direct,
    laplacian_c2c,
    mesh,
    nonlinearity_spectrum_direct,
    plane_wave,
    samples_of,
    spectrum_of,
)


def const_values(grid, value):
    return np.full(grid.shape, value, dtype=complex)


def grad_sq(u):
    """sum_j (d_j u)^2 of a field, by the kernel's derivative multipliers."""
    grid = u.grid
    return sum(
        multiplied(u.values, grid, _derivative(grid.d, grid.n, grid.period, axis)) ** 2
        for axis in range(grid.d)
    )


class TestNZero:
    # The prefactor 2 conj(u) / (1 + |u|^2) of the nonlinearity kernel.
    def test_zero(self, grid32):
        assert np.max(np.abs(_prefactor(const_values(grid32, 0.0), grid32, NO_DEALIAS))) == 0.0

    def test_one(self, grid32):
        out = _prefactor(const_values(grid32, 1.0), grid32, NO_DEALIAS)
        assert np.max(np.abs(out - 1.0)) < 1e-15

    def test_two_i(self, grid32):
        out = _prefactor(const_values(grid32, 2j), grid32, NO_DEALIAS)
        assert np.max(np.abs(out - (-0.8j))) < 1e-15

    # The prefactor rounds |u| (numpy's complex abs, within 2 ulps), its
    # square, 1 + |u|^2, the reciprocal 2/(1+|u|^2) and the product with
    # each part. Four million random parts with |u| in 1e-150..1e150 were
    # at most 6 ulps from the long-double value; the bound leaves a margin.
    ULPS = 8

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 60, reason="needs an extended long double oracle"
    )
    @given(
        st.lists(
            st.tuples(st.floats(-150.0, 150.0), st.floats(-np.pi, np.pi)),
            min_size=8,
            max_size=8,
        )
    )
    def test_prefactor_matches_long_double_oracle(self, polar):
        # |u| from 1e-150 to 1e150 in every direction: 2 conj(u)/(1+|u|^2)
        # in long double, rounded once, within ULPS of each part (spacing of
        # subnormal parts included). The values are those of numpy's complex
        # division, the former kernel.
        grid = GridSpec(1, 8, 1.0)
        mag = 10.0 ** np.array([e for e, _ in polar])
        angle = np.array([a for _, a in polar])
        u = mag * np.cos(angle) + 1j * (mag * np.sin(angle))
        got = _prefactor(u, grid, NO_DEALIAS)
        re, im = np.longdouble(u.real), np.longdouble(u.imag)
        scale = np.longdouble(2) / (1 + re * re + im * im)
        for part, exact in ((got.real, re * scale), (got.imag, -im * scale)):
            want = exact.astype(np.float64)
            assert np.all(np.abs(part - want) <= self.ULPS * np.spacing(np.abs(want)))
        assert np.array_equal(got, 2.0 * np.conj(u) / (1.0 + np.abs(u) ** 2))

    @pytest.mark.parametrize("value", [1e160, 1e155 + 1e155j, -3e200j, 1.4e308 - 1e300j])
    def test_prefactor_is_zero_where_the_square_overflows(self, value):
        grid = GridSpec(1, 8, 1.0)
        with np.errstate(over="ignore"):
            out = _prefactor(const_values(grid, value), grid, NO_DEALIAS)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize(
        "value", [np.nan, complex(np.inf, 0.0), complex(1.0, np.inf), complex(np.nan, 1.0)]
    )
    def test_non_finite_stays_non_finite(self, value):
        grid = GridSpec(1, 8, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _prefactor(const_values(grid, value), grid, NO_DEALIAS)
        assert not np.any(np.isfinite(out))


class TestNonlinearity:
    # One field at a time: a one-row nonlinearity_spectrum, inverted.
    def test_constant_field_vanishes(self, grid32):
        out = nonlinearity_samples(const_values(grid32, 0.3 + 0.2j), grid32, TWO_THIRDS)
        assert np.max(np.abs(out)) < 1e-14

    @pytest.mark.parametrize("policy", [NO_DEALIAS, TWO_THIRDS])
    def test_single_mode_closed_form(self, grid32, policy):
        # Oracle: pointwise closed form. The squared gradient sits at 2*xi0
        # and the prefactor pulls it back to xi0, with |u| constant in space.
        k0 = np.array([1.0, 2.0])
        eps = 0.05
        u = plane_wave(grid32, k0, amp=eps)
        expected = (
            -2.0 * np.sum(k0**2) * eps**3 / (1.0 + eps**2)
            * np.exp(1j * (k0[0] * mesh(grid32)[0] + k0[1] * mesh(grid32)[1]))
        )
        out = nonlinearity_samples(u.values, grid32, policy)
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_cubic_truncation_oracle(self, grid32, rng):
        # Oracle: the cubic term 2*conj(u)*sum (d_j u)^2 of the power series
        # (1+|eps u|^2)^(-1) = 1 - |eps u|^2 + ...; the truncation error is
        # O(eps^2) relative.
        u = random_smooth_field(grid32, rng, band=4.0)
        cubic = 2.0 * np.conj(u.values) * grad_sq(u)
        errs = {}
        for eps in (1e-2, 1e-3):
            rescaled = nonlinearity_samples(eps * u.values, grid32, NO_DEALIAS) / eps**3
            errs[eps] = np.max(np.abs(rescaled - cubic)) / np.max(np.abs(cubic))
        assert errs[1e-2] < 1e-3
        ratio = errs[1e-3] / errs[1e-2]
        assert 0.5e-2 < ratio < 2e-2  # error drops like eps^2

    def test_cubic_leading_order_invariant(self, grid32, rng):
        u = random_smooth_field(grid32, rng, band=4.0)
        sizes = []
        for eps in (1e-3, 3e-3, 1e-2):
            nl = nonlinearity_samples(eps * u.values, grid32, TWO_THIRDS)
            sizes.append(l2_norm(ComplexField(grid32, 0.0, PHYSICAL, nl)) / eps**3)
        assert max(sizes) / min(sizes) < 1.01

    def test_conjugation_symmetry(self, grid32, rng):
        u = random_smooth_field(grid32, rng, band=4.0)
        out = nonlinearity_samples(np.conj(u.values), grid32, NO_DEALIAS)
        direct = 2.0 * u.values / (1.0 + np.abs(u.values) ** 2) * np.conj(grad_sq(u))
        assert np.max(np.abs(out - direct)) < 1e-13


@st.composite
def bandlimited_stacks(draw):
    """Random stacks of band-limited snapshots on small grids, d = 1, 2, 3."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([8, 16] if d == 3 else [8, 16, 32]))
    period = draw(st.sampled_from([0.5, 1.0, 3.0]))
    snapshots = draw(st.integers(1, 4))
    band = draw(st.sampled_from([0.2, 0.35, 0.5]))  # fraction of the Nyquist radius
    amp = draw(st.sampled_from([1e-3, 0.3, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(d, n, period)
    shape = (snapshots,) + grid.shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec *= np.sqrt(grid.wavenumber_sq()) <= band * grid.nyquist
    vals = np.fft.ifftn(spec, axes=tuple(range(1, d + 1)))
    vals *= amp / max(np.max(np.abs(vals)), 1e-300)
    return grid, vals


class TestNonlinearitySpectrum:
    @given(bandlimited_stacks(), st.sampled_from([TWO_THIRDS, NO_DEALIAS]))
    def test_matches_per_snapshot_oracle(self, case, policy):
        grid, vals = case
        axes = tuple(range(1, grid.d + 1))
        got = nonlinearity_spectrum(spectrum_of(vals, axes=axes), grid, policy)
        oracle = nonlinearity_spectrum_direct(
            vals, grid.d, grid.n, grid.period, policy.rule == "two_thirds"
        )
        assert np.max(np.abs(got - oracle)) <= 1e-13 * max(np.max(np.abs(oracle)), 1e-300)

    @pytest.mark.parametrize("policy", [NO_DEALIAS, TWO_THIRDS])
    def test_stack_rows_are_one_snapshot_stacks(self, grid32, rng, policy):
        u = random_smooth_field(grid32, rng, amp=0.4)
        stack = np.stack([u.values, 0.5 * u.values, np.conj(u.values)])
        nl_hat = nonlinearity_spectrum(spectrum_of(stack, axes=(1, 2)), grid32, policy)
        for m, v in enumerate(stack):
            single = nonlinearity_samples(v, grid32, policy)
            scale = np.max(np.abs(single))
            assert np.max(np.abs(samples_of(nl_hat[m]) - single)) <= 1e-14 * scale


class TestSharedPasses:
    @pytest.mark.parametrize(
        "d, n, rows", [(1, 32, 3), (2, 16, 1), (2, 64, 4), (3, 8, 5), (3, 16, 2)]
    )
    def test_samples_and_first_gradient_have_the_full_inverse_bits(self, d, n, rows):
        # The samples and d_1 u are unitary_dft over every grid axis, bit for
        # bit; d_2 u .. d_d u run the first passes before their multiplier,
        # which moves them by rounding (at most 3.7e-16 of the largest value
        # in these cases).
        grid = GridSpec(d, n, 3.0)
        rng = np.random.default_rng(d * 100 + n)
        shape = (rows,) + grid.shape
        u_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = u_hat.copy()
        axes = tuple(range(1, d + 1))
        samples, g = np.empty(shape, complex), np.empty(shape, complex)
        grads = [grad.copy() for grad in _samples_and_gradients(u_hat, grid, samples, g)]
        want = [
            unitary_dft(u_hat * _derivative(d, n, 3.0, axis), axes, inverse=True)
            for axis in range(d)
        ]
        assert np.array_equal(u_hat, kept)
        assert np.array_equal(samples, unitary_dft(u_hat, axes, inverse=True))
        assert len(grads) == d and np.array_equal(grads[0], want[0])
        for got, ref in zip(grads[1:], want[1:]):
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestCrossRhs:
    def test_north_pole_equilibrium(self, grid32):
        from smap.geometry import SphereField

        s = SphereField.constant(grid32, (0.0, 0.0, 1.0))
        assert np.max(np.abs(sphere_rhs(s.values, grid32))) == 0.0

    def test_tangency(self, grid32, rng):
        s = stereo_lift(random_smooth_field(grid32, rng, amp=0.6))
        dots = np.sum(s.values * sphere_rhs(s.values, grid32), axis=0)
        assert np.max(np.abs(dots)) < 1e-13

    def test_matches_chart_pushforward_single_mode(self):
        # Oracle: chain rule through the chart differential evaluated at 2x
        # resolution; for a plane wave both routes are exact on the grid.
        k0 = np.array([1.0, 2.0])
        for n in (32, 64):
            grid = GridSpec(2, n, 1.0)
            g = plane_wave(grid, k0, amp=0.3)
            got = sphere_rhs(stereo_lift(g).values, grid)
            lap = laplacian_c2c(g.values, grid.d, grid.n, grid.period)
            nl = nonlinearity_samples(g.values, grid, NO_DEALIAS)
            expected = chain_rule_pushforward(g.values, 1j * (lap - nl))
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_chart_pushforward_refines_spectrally(self):
        # Non-band-limited bump: the two routes differ by aliasing, which
        # collapses under refinement for analytic data.
        def bump(grid):
            X = mesh(grid)
            vals = 0.5 * np.exp(-(X[0] ** 2 + 0.8 * X[1] ** 2)) * np.exp(
                1j * (X[0] + 0.5 * X[1])
            )
            return ComplexField(grid, 0.0, PHYSICAL, vals)

        errs = {}
        for n in (16, 32):
            grid = GridSpec(2, n, 2.0)
            g = bump(grid)
            got = sphere_rhs(stereo_lift(g).values, grid)
            lap = laplacian_c2c(g.values, grid.d, grid.n, grid.period)
            nl = nonlinearity_samples(g.values, grid, NO_DEALIAS)
            expected = chain_rule_pushforward(g.values, 1j * (lap - nl))
            errs[n] = np.max(np.abs(got - expected))
        assert errs[32] < errs[16] / 50.0


@st.composite
def sphere_values(draw):
    """Random unit 3-vector fields on small grids, d = 1, 2, 3."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(d, n, draw(st.sampled_from([0.5, 1.0, 3.0])))
    vals = rng.standard_normal((3,) + grid.shape)
    return grid, vals / np.sqrt(np.sum(vals**2, axis=0))


class TestSphereRhs:
    @given(sphere_values())
    def test_bitwise_np_cross_of_the_same_laplacian(self, case):
        grid, vals = case
        expected = np.cross(vals, laplacian_values(vals, grid), axis=0)
        assert np.array_equal(sphere_rhs(vals, grid), expected)
        out = np.full_like(vals, np.nan)
        assert sphere_rhs(vals, grid, out=out) is out
        assert np.array_equal(out, expected)


class TestDealiasPolicy:
    @pytest.mark.parametrize("policy", [NO_DEALIAS, TWO_THIRDS])
    def test_inputs_left_unchanged(self, grid32, rng, policy):
        # The kernel dealiases its own temporaries in place, never its input.
        u = random_smooth_field(grid32, rng, amp=0.4)
        stack_hat = spectrum_of(np.stack([u.values, np.conj(u.values)]), axes=(1, 2))
        kept = stack_hat.copy()
        nonlinearity_spectrum(stack_hat, grid32, policy)
        assert np.array_equal(stack_hat, kept)

    def test_two_thirds_support(self, grid32, rng):
        u = random_smooth_field(grid32, rng, band=grid32.nyquist)
        spec = nonlinearity_spectrum(spectrum_of(u.values[None], axes=(1, 2)), grid32, TWO_THIRDS)
        outside = ~dealias_mask_direct(grid32.d, grid32.n, grid32.period)
        rel = np.max(np.abs(spec[0][outside])) / np.max(np.abs(spec))
        assert rel < 1e-14

    def test_none_rule_keeps_everything(self, grid32, rng, monkeypatch):
        u = random_smooth_field(grid32, rng)
        kept = u.values.copy()

        def no_transform(*args, **kwargs):
            raise AssertionError("the none rule made a transform")

        monkeypatch.setattr(nonlinearity_module, "unitary_dft", no_transform)
        monkeypatch.setattr(spectral_module.pypocketfft, "c2c", no_transform)
        assert NO_DEALIAS.apply_values(u.values, grid32) is u.values
        assert np.array_equal(u.values, kept)

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 10, 16, 24, 32, 64])
    def test_band_corners_and_complement_cover_each_mode_once(self, d, n, rule):
        # The corners (the kept box) and the complement slabs partition the
        # spectrum; the corners are the modes the oracle mask keeps. Zeroing
        # the slabs then equals the product with that 0/1 mask on finite data.
        grid = GridSpec(d, n, 2.0)
        policy = DealiasPolicy(rule)
        band = policy.band(grid)
        count = np.zeros(grid.shape, dtype=np.int64)
        kept = np.zeros(grid.shape, dtype=bool)
        for spectrum_index, _ in band.corners:
            count[spectrum_index] += 1
            kept[spectrum_index] = True
        for slab in band.complement:
            count[slab] += 1
        assert np.all(count == 1)
        assert np.array_equal(kept, dealias_mask_direct(d, n, 2.0, rule == "two_thirds"))
        assert (rule == "none") == (band.complement == ())
        if rule == "none":
            return
        rng = np.random.default_rng(d * 100 + n)
        shape = (2,) + grid.shape
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(1, d + 1))
        spec = spectrum_of(values, axes=axes)
        spec *= dealias_mask_direct(d, n, 2.0)
        want = samples_of(spec, axes=axes)
        assert np.array_equal(policy.band(grid).clear(spectrum_of(values, axes=axes)), spec)
        # In place: the result is the input's own buffer.
        assert policy.apply_values(values, grid) is values
        assert np.array_equal(values, want)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            DealiasPolicy("half")


class TestGaugeConsistency:
    def test_lifted_solution_satisfies_sphere_equation(self):
        # The time derivative of the lifted solution (fourth-order stencil)
        # must match the cross-product right-hand side. The residual has a
        # dt-independent spectral-truncation floor (~1.4e-6 here), so the
        # refinement order is measured on the coarse pair where the time
        # error dominates.
        grid = GridSpec(2, 32, 2.0)
        X = mesh(grid)
        phi_vals = 1e-2 * np.exp(-(X[0] ** 2 + X[1] ** 2)) * np.exp(1j * X[0])
        phi = ComplexField(grid, 0.0, PHYSICAL, phi_vals)

        def residual(dt):
            traj, _ = picard_solve(phi, T=0.25, dt=dt, sigma0=1.6)
            lifted = np.stack(
                [stereo_lift(to_physical(traj.snapshot(m))).values for m in range(len(traj))]
            )
            mid = len(traj) // 2
            dts = (
                -lifted[mid + 2]
                + 8 * lifted[mid + 1]
                - 8 * lifted[mid - 1]
                + lifted[mid - 2]
            ) / (12 * dt)
            mid_values = stereo_lift(to_physical(traj.snapshot(mid))).values
            diff = dts - sphere_rhs(mid_values, grid)
            return float(np.sqrt(grid.cell_volume * np.sum(diff**2)))

        r1, r2 = residual(1.0 / 32.0), residual(1.0 / 64.0)
        assert r2 < 2e-5  # well above the rounding floor, below the coarse error
        assert np.log2(r1 / r2) >= 1.8
