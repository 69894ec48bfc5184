import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smap.geometry import stereo_lift
from smap.grid import GridSpec
from smap.nonlinearity import (
    NO_DEALIAS,
    TWO_THIRDS,
    DealiasPolicy,
    cross_rhs,
    n_zero,
    nonlinearity,
    nonlinearity_spectrum,
)
from smap.solver import picard_solve
from smap.spectral import (
    PHYSICAL,
    ComplexField,
    gradient,
    l2_norm,
    laplacian_values,
    samples_of,
    spectrum_of,
    to_physical,
    transform,
)

from conftest import random_smooth_field
from oracles import (
    chain_rule_pushforward,
    mesh,
    nonlinearity_spectrum_direct,
    plane_wave,
)


def const_field(grid, value):
    return ComplexField(grid, 0.0, PHYSICAL, np.full(grid.shape, value, dtype=complex))


class TestNZero:
    def test_zero(self, grid32):
        assert np.max(np.abs(n_zero(const_field(grid32, 0.0), NO_DEALIAS).values)) == 0.0

    def test_one(self, grid32):
        out = n_zero(const_field(grid32, 1.0), NO_DEALIAS)
        assert np.max(np.abs(out.values - 1.0)) < 1e-15

    def test_two_i(self, grid32):
        out = n_zero(const_field(grid32, 2j), NO_DEALIAS)
        assert np.max(np.abs(out.values - (-0.8j))) < 1e-15


class TestNonlinearity:
    def test_constant_field_vanishes(self, grid32):
        out = nonlinearity(const_field(grid32, 0.3 + 0.2j), TWO_THIRDS)
        assert np.max(np.abs(out.values)) < 1e-14

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
        out = nonlinearity(u, policy)
        assert np.max(np.abs(out.values - expected)) < 1e-15

    def test_cubic_truncation_oracle(self, grid32, rng):
        # Oracle: the cubic term 2*conj(u)*sum (d_j u)^2 of the power series
        # (1+|eps u|^2)^(-1) = 1 - |eps u|^2 + ...; the truncation error is
        # O(eps^2) relative.
        u = random_smooth_field(grid32, rng, band=4.0)
        grad_sq = sum(
            to_physical(gradient(u, ax)).values ** 2 for ax in (1, 2)
        )
        cubic = 2.0 * np.conj(u.values) * grad_sq
        errs = {}
        for eps in (1e-2, 1e-3):
            scaled = ComplexField(grid32, 0.0, PHYSICAL, eps * u.values)
            rescaled = nonlinearity(scaled, NO_DEALIAS).values / eps**3
            errs[eps] = np.max(np.abs(rescaled - cubic)) / np.max(np.abs(cubic))
        assert errs[1e-2] < 1e-3
        ratio = errs[1e-3] / errs[1e-2]
        assert 0.5e-2 < ratio < 2e-2  # error drops like eps^2

    def test_cubic_leading_order_invariant(self, grid32, rng):
        u = random_smooth_field(grid32, rng, band=4.0)
        sizes = []
        for eps in (1e-3, 3e-3, 1e-2):
            scaled = ComplexField(grid32, 0.0, PHYSICAL, eps * u.values)
            sizes.append(l2_norm(nonlinearity(scaled, TWO_THIRDS)) / eps**3)
        assert max(sizes) / min(sizes) < 1.01

    def test_conjugation_symmetry(self, grid32, rng):
        u = random_smooth_field(grid32, rng, band=4.0)
        out = nonlinearity(
            ComplexField(grid32, 0.0, PHYSICAL, np.conj(u.values)), NO_DEALIAS
        )
        grad_sq = sum(to_physical(gradient(u, ax)).values ** 2 for ax in (1, 2))
        direct = 2.0 * u.values / (1.0 + np.abs(u.values) ** 2) * np.conj(grad_sq)
        assert np.max(np.abs(out.values - direct)) < 1e-13


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
        got = nonlinearity_spectrum(vals, spectrum_of(vals, axes=axes), grid, policy)
        oracle = nonlinearity_spectrum_direct(
            vals, grid.d, grid.n, grid.period, policy.rule == "two_thirds"
        )
        assert np.max(np.abs(got - oracle)) <= 1e-13 * max(np.max(np.abs(oracle)), 1e-300)

    @pytest.mark.parametrize("policy", [NO_DEALIAS, TWO_THIRDS])
    def test_wrapper_is_one_snapshot_of_the_kernel(self, grid32, rng, policy):
        u = random_smooth_field(grid32, rng, amp=0.4)
        stack = np.stack([u.values, 0.5 * u.values, np.conj(u.values)])
        nl_hat = nonlinearity_spectrum(stack, spectrum_of(stack, axes=(1, 2)), grid32, policy)
        for m, v in enumerate(stack):
            single = nonlinearity(ComplexField(grid32, 0.0, PHYSICAL, v), policy).values
            scale = np.max(np.abs(single))
            assert np.max(np.abs(samples_of(nl_hat[m]) - single)) <= 1e-14 * scale


class TestCrossRhs:
    def test_north_pole_equilibrium(self, grid32):
        from smap.geometry import SphereField

        s = SphereField.constant(grid32, (0.0, 0.0, 1.0))
        assert np.max(np.abs(cross_rhs(s))) == 0.0

    def test_tangency(self, grid32, rng):
        s = stereo_lift(random_smooth_field(grid32, rng, amp=0.6))
        dots = np.sum(s.values * cross_rhs(s), axis=0)
        assert np.max(np.abs(dots)) < 1e-13

    def test_matches_chart_pushforward_single_mode(self):
        # Oracle: chain rule through the chart differential evaluated at 2x
        # resolution; for a plane wave both routes are exact on the grid.
        k0 = np.array([1.0, 2.0])
        for n in (32, 64):
            grid = GridSpec(2, n, 1.0)
            g = plane_wave(grid, k0, amp=0.3)
            got = cross_rhs(stereo_lift(g))
            lap = laplacian_values(g.values, grid)
            nl = nonlinearity(g, NO_DEALIAS).values
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
            got = cross_rhs(stereo_lift(g))
            lap = laplacian_values(g.values, grid)
            nl = nonlinearity(g, NO_DEALIAS).values
            expected = chain_rule_pushforward(g.values, 1j * (lap - nl))
            errs[n] = np.max(np.abs(got - expected))
        assert errs[32] < errs[16] / 50.0


class TestDealiasPolicy:
    def test_two_thirds_support(self, grid32, rng):
        u = random_smooth_field(grid32, rng, band=grid32.nyquist)
        out = nonlinearity(u, TWO_THIRDS)
        spec = transform(out, "forward").values
        outside = ~TWO_THIRDS.mask(grid32).astype(bool)
        rel = np.max(np.abs(spec[outside])) / np.max(np.abs(spec))
        assert rel < 1e-14

    def test_none_rule_keeps_everything(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        assert np.shares_memory(NO_DEALIAS.apply(u).values, u.values) or np.array_equal(
            NO_DEALIAS.apply(u).values, u.values
        )

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
                [stereo_lift(traj.snapshot(m)).values for m in range(len(traj))]
            )
            mid = len(traj) // 2
            dts = (
                -lifted[mid + 2]
                + 8 * lifted[mid + 1]
                - 8 * lifted[mid - 1]
                + lifted[mid - 2]
            ) / (12 * dt)
            diff = dts - cross_rhs(stereo_lift(traj.snapshot(mid)))
            return float(np.sqrt(grid.cell_volume * np.sum(diff**2)))

        r1, r2 = residual(1.0 / 32.0), residual(1.0 / 64.0)
        assert r2 < 2e-5  # well above the rounding floor, below the coarse error
        assert np.log2(r1 / r2) >= 1.8
