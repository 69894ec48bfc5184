import ast
import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from smap.errors import RepresentationMismatch
from smap.grid import GridSpec
from smap.nonlinearity import DealiasPolicy, _derivative
from smap import spectral
from smap.solver import free_trajectory, propagator_stack
from smap.spectral import (
    FREQUENCY,
    PHYSICAL,
    PLATEAU,
    SUPPORT,
    ComplexField,
    eta0,
    eta_shell,
    hsigma_energy_real,
    hsigma_norm,
    hsigma_norm_spectra,
    jsigma_weights,
    l2_norm,
    laplacian_values,
    psi,
    real_work,
    to_frequency,
    to_physical,
    transform,
)

from conftest import multiplied, physical_stack, random_smooth_field
from oracles import (
    free_gaussian_evolution,
    free_gaussian_quadrature,
    gradient_fd,
    laplacian_c2c,
    mesh,
    plane_wave,
    samples_of,
    sobolev_energy_full,
    spectrum_of,
)


class TestTransform:
    def test_constant_spectrum_at_origin(self, grid32):
        u = ComplexField(grid32, 0.0, PHYSICAL, np.ones(grid32.shape, dtype=complex))
        spec = transform(u, "forward").values
        off = spec.copy()
        off[0, 0] = 0.0
        assert np.max(np.abs(off)) == 0.0
        assert abs(spec[0, 0]) > 0

    def test_roundtrip_identity(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        back = transform(transform(u, "forward"), "inverse")
        assert np.max(np.abs(back.values - u.values)) < 1e-13

    def test_plancherel(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        hat = transform(u, "forward")
        assert abs(l2_norm(hat) - l2_norm(u)) < 1e-12 * l2_norm(u)

    def test_representation_mismatch(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        with pytest.raises(RepresentationMismatch):
            transform(u, "inverse")
        with pytest.raises(RepresentationMismatch):
            transform(transform(u, "forward"), "forward")

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
    def test_conversions_have_the_bits_of_transform(self, rng, d, n):
        # to_frequency and to_physical call unitary_dft, transform calls
        # scipy.fft's public fftn/ifftn; both make the same pocketfft call.
        u = random_smooth_field(GridSpec(d, n, 2.0), rng)
        spec = to_frequency(u)
        assert spec.representation == FREQUENCY and spec.time == u.time
        assert np.array_equal(spec.values, transform(u, "forward").values)
        back = to_physical(spec)
        assert back.representation == PHYSICAL
        assert np.array_equal(back.values, transform(spec, "inverse").values)
        assert to_frequency(spec) is spec and to_physical(u) is u


class TestStackEmpty:
    @pytest.mark.parametrize(
        "rows, shape", [(1280, (64, 64)), (128, (32, 32)), (3, (32, 32, 32)), (7, (16,))]
    )
    def test_rows_padded_and_writable(self, rows, shape):
        # Each row is contiguous, consecutive rows lie a number of bytes
        # apart that is not a power of two, and writes land in the view.
        stack = spectral.stack_empty(rows, shape)
        assert stack.shape == (rows,) + shape and stack.dtype == np.complex128
        assert stack[0].flags["C_CONTIGUOUS"]
        stride = stack.strides[0]
        assert stride == 16 * (int(np.prod(shape)) + spectral.ROW_PAD)
        assert stride & (stride - 1) != 0
        values = np.arange(stack.size).reshape(stack.shape) * (1.0 - 2.0j)
        stack[...] = values
        assert np.array_equal(stack, values)
        row_view = stack.reshape(rows, -1, copy=False)
        row_view[-1] = 7.0
        assert np.all(stack[-1] == 7.0)
        assert np.array_equal(stack[:-1], values[:-1])


class TestCutoffFamily:
    def test_plateau_and_support_values(self):
        assert eta0(1.0) == 1.0
        assert eta0(PLATEAU) == 1.0
        assert eta0(2.0) == 0.0
        assert eta0(SUPPORT) == 0.0
        assert eta0(-1.0) == 1.0  # radial
        mid = eta0(1.4)
        assert 0.0 < mid < 1.0

    def test_shell_sum_telescopes(self):
        r = 37.3
        total = sum(eta_shell(k, r) for k in range(11))
        assert abs(total - 1.0) < 1e-12

    def test_partition_of_unity_random_radii(self, rng):
        radii = rng.uniform(0.0, PLATEAU * 2.0**10, size=1000)
        total = sum(eta_shell(k, radii) for k in range(11))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    @given(st.lists(st.floats(0.0, PLATEAU * 2.0**10), min_size=1, max_size=64))
    def test_partition_of_unity_property(self, radii):
        # The thresholds of verify's partition_of_unity check: shells 0..10
        # sum to 1 within 1e-12 on [0, PLATEAU 2^10].
        total = sum(eta_shell(k, np.array(radii)) for k in range(11))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_shell_values_in_unit_interval(self, rng):
        radii = rng.uniform(0.0, 100.0, size=500)
        for k in range(8):
            vals = eta_shell(k, radii)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_psi_window(self):
        assert psi(0.0) == 1.0
        assert psi(1.0) == 1.0
        assert psi(-1.2) == psi(1.2)
        assert psi(1.7) == 0.0

    def test_smoothness_proxy_quotients(self):
        # Difference quotients normalized by the transition width stay near
        # the analytic derivative sizes of the unit mollifier step (~2, ~10,
        # ~110, ~2.3e3); spikes would indicate a conditioning problem.
        width = SUPPORT - PLATEAU
        h = width / 64
        r = np.arange(PLATEAU - 4 * h, SUPPORT + 5 * h, h)
        v = eta0(r)
        bounds = {1: 3.0, 2: 15.0, 3: 200.0, 4: 4000.0}
        for order, bound in bounds.items():
            quot = np.max(np.abs(np.diff(v, n=order))) / h**order * width**order
            assert np.isfinite(quot)
            assert quot < bound


def shell_weights(grid, k):
    return eta_shell(k, np.sqrt(grid.wavenumber_sq()))


def derivative(grid, axis):
    return _derivative(grid.d, grid.n, grid.period, axis)


def phases(grid, *times):
    return propagator_stack(np.array(times), grid.wavenumber_sq())


def l2(values, grid):
    return l2_norm(ComplexField(grid, 0.0, PHYSICAL, values))


class TestLittlewoodPaley:
    def test_partition_reconstructs_bandlimited(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        total = np.zeros(grid32.shape, dtype=complex)
        for k in range(grid32.max_shell + 1):
            total += multiplied(u.values, grid32, shell_weights(grid32, k))
        assert np.max(np.abs(total - u.values)) < 1e-12

    def test_far_shell_annihilates_single_mode(self, grid32):
        u = plane_wave(grid32, np.array([3.0, 0.0]))  # |xi| = 3 < 2^4 * 5/4
        assert np.max(np.abs(multiplied(u.values, grid32, shell_weights(grid32, 5)))) < 1e-15

    def test_projection_contracts_l2(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        for k in (0, 2, 4):
            projected = multiplied(u.values, grid32, shell_weights(grid32, k))
            assert l2(projected, grid32) <= l2_norm(u) * (1 + 1e-12)


class TestJsigma:
    def test_sigma_zero_is_identity(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        out = multiplied(u.values, grid32, jsigma_weights(grid32, 0.0))
        assert np.max(np.abs(out - u.values)) < 1e-14

    def test_single_mode_weight(self, grid32):
        u = plane_wave(grid32, np.array([2.0, 0.0]))
        out = multiplied(u.values, grid32, jsigma_weights(grid32, 2.0))
        assert np.max(np.abs(out - 5.0 * u.values)) < 1e-11

    def test_negative_sigma_inverts(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        up = multiplied(u.values, grid32, jsigma_weights(grid32, 1.7))
        back = multiplied(up, grid32, jsigma_weights(grid32, -1.7))
        assert np.max(np.abs(back - u.values)) < 1e-12

    def test_sobolev_norm_is_l2_of_weighted_field(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        direct = hsigma_norm(u, 1.6)
        via_l2 = l2(multiplied(u.values, grid32, jsigma_weights(grid32, 1.6)), grid32)
        assert abs(direct - via_l2) < 1e-12 * direct

    def test_norms_keep_their_bits_with_cached_weights(self, grid32, rng):
        spec = np.stack([transform(random_smooth_field(grid32, rng), "forward").values] * 3)
        spec[1] *= 0.5
        w2 = jsigma_weights(grid32, 1.6) ** 2
        power = np.square(spec.real)
        power += np.square(spec.imag)
        power *= w2
        want = np.sqrt(grid32.cell_volume * np.sum(power, axis=(1, 2)))
        assert np.array_equal(hsigma_norm_spectra(spec, grid32, 1.6), want)
        single = float(np.sqrt(grid32.cell_volume * np.sum(w2 * np.abs(spec[0]) ** 2)))
        assert hsigma_norm(ComplexField(grid32, 0.0, FREQUENCY, spec[0]), 1.6) == single
        assert not spectral._jsigma_sq(grid32.d, grid32.n, grid32.period, 1.6).flags.writeable


    def test_norms_with_a_workspace_keep_their_bits(self, grid32, rng):
        # With a workspace the squares go into work.tmp (in place when the
        # spectra are work.tmp) and the power into work.real: same bits.
        spec = np.stack([transform(random_smooth_field(grid32, rng), "forward").values] * 3)
        spec[2] *= -0.25
        want = hsigma_norm_spectra(spec, grid32, 1.6)
        work = spectral.complex_work((4,) + grid32.shape)
        assert np.array_equal(hsigma_norm_spectra(spec, grid32, 1.6, work), want)
        work.tmp[:3] = spec
        assert np.array_equal(hsigma_norm_spectra(work.tmp[:3], grid32, 1.6, work), want)


class TestFreePropagate:
    # The free group as the commands apply it: the propagator_stack phases,
    # and free_trajectory's rows.
    def test_time_zero_identity(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        out = physical_stack(free_trajectory(u, [0.0]))[0]
        assert np.max(np.abs(out - u.values)) < 1e-13

    def test_single_mode_phase(self, grid32):
        k0 = np.array([2.0, 1.0])
        u = plane_wave(grid32, k0)
        out = physical_stack(free_trajectory(u, [0.4]))[0]
        expected = np.exp(-1j * 0.4 * np.sum(k0**2)) * u.values
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_sobolev_isometry(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        before = hsigma_norm(u, 1.7)
        after = hsigma_norm_spectra(free_trajectory(u, [0.3]).values, grid32, 1.7)[0]
        assert abs(after - before) < 1e-12 * before

    def test_group_law(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        p21, p34, p55 = phases(grid32, 0.21, 0.34, 0.55)
        a = multiplied(multiplied(u.values, grid32, p21), grid32, p34)
        b = multiplied(u.values, grid32, p55)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_gaussian_against_refined_quadrature(self):
        # Oracle: direct numerical integration of the propagator integral on
        # a 4x-refined frequency grid, done per axis by separability.
        grid = GridSpec(2, 64, 4.0)
        width, t = 1.0, 0.25
        X = mesh(grid)
        phi = ComplexField(
            grid, 0.0, PHYSICAL, np.exp(-(X[0] ** 2 + X[1] ** 2) / (2 * width**2)) + 0j
        )
        out = physical_stack(free_trajectory(phi, [0.0, t]))[1]

        x = grid.axis_coordinates()
        oracle_1d = free_gaussian_quadrature(
            [x], t, width, xi_max=12.0, xi_step=1.0 / (4.0 * grid.period)
        )
        oracle = np.multiply.outer(oracle_1d, oracle_1d)
        assert np.max(np.abs(out - oracle)) < 1e-8
        closed = np.multiply.outer(
            free_gaussian_evolution([x], t, width),
            free_gaussian_evolution([x], t, width),
        )
        assert np.max(np.abs(oracle - closed)) < 1e-10  # oracle self-check


class TestGradient:
    # The derivative multipliers of the nonlinearity kernel; axis is 0-based.
    def test_constant_has_zero_gradient(self, grid32):
        u = ComplexField(grid32, 0.0, PHYSICAL, np.full(grid32.shape, 2.3 + 1j))
        assert np.max(np.abs(multiplied(u.values, grid32, derivative(grid32, 0)))) < 1e-14

    def test_single_mode(self, grid32):
        k0 = np.array([2.0, -3.0])
        u = plane_wave(grid32, k0)
        for axis in (0, 1):
            out = multiplied(u.values, grid32, derivative(grid32, axis))
            assert np.max(np.abs(out - 1j * k0[axis] * u.values)) < 1e-11

    def test_matches_sixth_order_differences(self, rng):
        # Band-limited data; the stencil error scales like (xi h)^6 and must
        # drop by ~2^6 when the grid is refined at fixed physical band.
        errs = {}
        for n in (32, 64):
            grid = GridSpec(2, n, 1.0)
            u = random_smooth_field(grid, rng, band=16.0 / 3.0)
            spectral = multiplied(u.values, grid, derivative(grid, 0))
            stencil = gradient_fd(u.values, 0, grid.spacing)
            scale = np.max(np.abs(spectral))
            errs[n] = np.max(np.abs(spectral - stencil)) / scale
        band, h32 = 16.0 / 3.0, GridSpec(2, 32, 1.0).spacing
        assert errs[32] < (band * h32) ** 6 / 64.0
        assert errs[32] / errs[64] > 40.0


class TestMultiplierAlgebra:
    def test_operators_commute(self, grid32, rng):
        u = random_smooth_field(grid32, rng)
        d1, p2 = derivative(grid32, 0), shell_weights(grid32, 2)
        j, w = jsigma_weights(grid32, 1.3), phases(grid32, 0.37)[0]
        a = b = u.values
        for first, second in ((d1, p2), (p2, w), (j, j), (w, d1)):
            a = multiplied(a, grid32, first)
            b = multiplied(b, grid32, second)
        scale = max(np.max(np.abs(a)), 1e-30)
        assert np.max(np.abs(a - b)) / scale < 1e-12


@st.composite
def real_stacks(draw):
    """Random real arrays whose trailing d axes are a grid, d = 1, 2, 3."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([8, 16] if d == 3 else [8, 16, 32]))
    period = draw(st.sampled_from([0.5, 1.0, 3.0]))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(d, n, period)
    return grid, rng.standard_normal(lead + grid.shape)


class TestRealPath:
    @given(real_stacks())
    def test_laplacian_matches_c2c_oracle(self, case):
        grid, vals = case
        got = laplacian_values(vals, grid)
        oracle = laplacian_c2c(vals, grid.d, grid.n, grid.period)
        assert got.dtype == np.float64 and got.shape == vals.shape
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @given(real_stacks(), st.sampled_from([0.0, 1.0, 1.6, -0.7]))
    def test_half_spectrum_energy_matches_full_spectrum(self, case, sigma):
        grid, vals = case
        got = hsigma_energy_real(vals, grid, sigma)
        oracle = sobolev_energy_full(vals, grid.d, grid.n, grid.period, sigma)
        assert got.shape == vals.shape[: vals.ndim - grid.d]
        assert np.all(np.abs(got - oracle) <= 1e-13 * oracle)


class TestRealLaplacianKernel:
    @pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
    @pytest.mark.parametrize("scale", [1.0, 0.25 / 256.0])
    def test_bits_of_the_scipy_round_trip(self, d, n, scale):
        # The kernel calls pocketfft's binding instead of scipy.fft, to write
        # into its workspace; a scipy whose binding rounds differently fails
        # here instead of moving the midpoint snapshots. Scale 1 is cross_rhs,
        # dt/4 the midpoint sweep.
        grid = GridSpec(d, n, 2.0)
        x = np.random.default_rng(d).standard_normal((3,) + grid.shape)
        axes = tuple(range(1, d + 1))
        mult = grid.half_wavenumber_sq() * -scale
        spec = scipy.fft.rfftn(x, axes=axes, norm="ortho") * mult
        want = scipy.fft.irfftn(spec, s=grid.shape, axes=axes, norm="ortho")
        given = x.copy()
        work = real_work(x.shape, grid)
        got = laplacian_values(x, grid, scale=scale, work=work)
        assert got is work.lap
        assert np.array_equal(got, want)
        assert np.array_equal(x, given)
        # Without a workspace: the same kernel into new arrays, also unbatched.
        assert np.array_equal(laplacian_values(x, grid, scale=scale), want)
        alone = scipy.fft.irfftn(
            scipy.fft.rfftn(x[1], norm="ortho") * mult, s=grid.shape, norm="ortho"
        )
        assert np.array_equal(laplacian_values(x[1], grid, scale=scale), alone)

    def test_workspace_reused_across_calls(self, rng):
        grid = GridSpec(2, 16, 1.0)
        work = real_work((3,) + grid.shape, grid)
        for _ in range(2):
            x = rng.standard_normal((3,) + grid.shape)
            assert np.array_equal(laplacian_values(x, grid, work=work), laplacian_values(x, grid))

    def test_energy_weights_cached_read_only(self, rng):
        # hsigma_energy_real reads cached weights with the bits of the former
        # per-call (1 + |xi|^2)^sigma and column doubling.
        grid = GridSpec(3, 16, 2.0)
        weight = spectral._half_energy_weight(3, 16, 2.0, 1.0)
        assert weight is spectral._half_energy_weight(3, 16, 2.0, 1.0)
        assert not weight.flags.writeable
        want = (1.0 + grid.half_wavenumber_sq()) ** 1.0
        want[..., 1:8] *= 2.0
        assert np.array_equal(weight, want)
        x = rng.standard_normal((3,) + grid.shape)
        spec = scipy.fft.rfftn(x, axes=(1, 2, 3), norm="ortho")
        power = np.square(spec.real) + np.square(spec.imag)
        energy = grid.cell_volume * np.sum(power * want, axis=(1, 2, 3))
        assert np.array_equal(hsigma_energy_real(x, grid, 1.0), energy)


def public_dft(x, axes, inverse, scaled=True):
    """scipy.fft's public call for spectral.unitary_dft(x, axes, inverse, scaled=scaled)."""
    if inverse:
        return scipy.fft.ifftn(x, axes=axes, norm="ortho" if scaled else "forward")
    return scipy.fft.fftn(x, axes=axes, norm="ortho" if scaled else "backward")


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBindingCalls:
    """Every direct call of the pocketfft binding in spectral gives the bits
    of scipy.fft's public functions, in place and out of place, and on the
    layouts the package transforms, so a scipy whose private binding
    changes fails here rather than moving the outputs."""

    CASES = [(1, 64), (2, 32), (3, 16)]

    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("d, n", CASES)
    def test_complex_dft(self, d, n, inverse, scaled):
        grid = GridSpec(d, n, 2.0)
        x = complex_normal(np.random.default_rng(10 * d + inverse), (3,) + grid.shape)
        axes = tuple(range(1, d + 1))
        want = public_dft(x, axes, inverse, scaled)
        given = x.copy()
        assert np.array_equal(spectral.unitary_dft(x, axes, inverse, scaled=scaled), want)
        out = np.empty_like(x)
        assert spectral.unitary_dft(x, axes, inverse, out=out, scaled=scaled) is out
        assert np.array_equal(out, want)
        assert np.array_equal(x, given)
        assert spectral.unitary_dft(x, axes, inverse, out=x, scaled=scaled) is x  # in place
        assert np.array_equal(x, want)
        alone = spectral.unitary_dft(given[1], tuple(range(-d, 0)), inverse, scaled=scaled)
        assert np.array_equal(alone, public_dft(given[1], None, inverse, scaled))

    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("d, n", CASES)
    def test_row_padded_stack_in_place(self, d, n, inverse, scaled):
        # The space-time layer transforms stack_empty stacks in their own
        # rows, over all d + 1 axes and over the grid axes; the pads between
        # the rows are never written.
        grid = GridSpec(d, n, 2.0)
        x = complex_normal(np.random.default_rng(20 * d + inverse), (12,) + grid.shape)
        for axes in (tuple(range(d + 1)), tuple(range(1, d + 1))):
            stack = spectral.stack_empty(len(x), grid.shape)
            pads = stack.base[:, grid.num_points :]
            pads[...] = np.nan
            stack[...] = x
            got = spectral.unitary_dft(stack, axes, inverse, out=stack, scaled=scaled)
            assert got is stack
            assert np.array_equal(stack, public_dft(x, axes, inverse, scaled)), axes
            assert np.all(np.isnan(pads))

    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_time_axis_of_gathered_columns(self, inverse, scaled):
        # The shell reductions gather the support columns of a row-padded
        # spectrum by a fancy index, (m_t, cols) with time running fastest in
        # memory order of part.T, and transform along axis 0 in that buffer.
        rng = np.random.default_rng(30 + inverse)
        grid = GridSpec(2, 16, 2.0)
        stack = spectral.stack_empty(48, grid.shape)
        stack[...] = complex_normal(rng, stack.shape)
        cols = np.flatnonzero(rng.random(grid.num_points) < 0.3)
        part = stack.reshape(len(stack), grid.num_points, copy=False)[:, cols]
        want = public_dft(part, (0,), inverse, scaled)
        assert spectral.unitary_dft(part, (0,), inverse, out=part, scaled=scaled) is part
        assert np.array_equal(part, want)

    @pytest.mark.parametrize("d, n", CASES)
    def test_half_spectrum_and_inverse(self, d, n):
        grid = GridSpec(d, n, 2.0)
        x = np.random.default_rng(d).standard_normal((3,) + grid.shape)
        axes = tuple(range(1, d + 1))
        want = scipy.fft.rfftn(x, axes=axes, norm="ortho")
        assert np.array_equal(spectral._half_spectrum(x, axes), want)
        out = np.empty_like(want)
        assert spectral._half_spectrum(x, axes, out=out) is out
        assert np.array_equal(out, want)
        back = scipy.fft.irfftn(want, s=grid.shape, axes=axes, norm="ortho")
        assert np.array_equal(spectral._half_inverse(want.copy(), x.shape, axes), back)
        out = np.empty_like(x)
        assert spectral._half_inverse(want.copy(), x.shape, axes, out=out) is out
        assert np.array_equal(out, back)


BOX_CASES = [(d, n) for d in (1, 2, 3) for n in (8, 10, 16, 24, 32, 64) if d < 3 or n <= 32]


class TestBoxDft:
    """The pruned transform gives the bits of scipy.fft's public fftn/ifftn
    ("ortho") wherever it defines values: the forward inside the dealias box
    (what Band.clear keeps), the inverse of a spectrum zero outside it. It
    depends on pocketfft's pass order and on where pocketfft applies the
    unitary factor, so a scipy that changes either fails here."""

    @staticmethod
    def check(values, grid, rule, padded):
        band = DealiasPolicy(rule).band(grid)
        axes = tuple(range(1, grid.d + 1))
        want = band.clear(spectrum_of(values, axes=axes))
        stack = values.copy()
        if padded:
            stack = spectral.stack_empty(len(values), grid.shape)
            pads = stack.base[:, grid.num_points :]
            pads[...] = np.nan
            stack[...] = values
        assert spectral.box_dft(stack, band.runs, grid.d) is stack
        assert np.array_equal(band.clear(stack), want)
        back = samples_of(want, axes=axes)
        assert spectral.box_dft(stack, band.runs, grid.d, inverse=True) is stack
        assert np.array_equal(stack, back)
        if padded:
            assert np.all(np.isnan(pads))  # no pass writes between the rows

    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("d, n", BOX_CASES)
    def test_bits_of_fftn_and_ifftn(self, d, n, rule):
        grid = GridSpec(d, n, 2.0)
        rng = np.random.default_rng(1000 * d + n)
        for rows in (1, 2, 16):
            values = complex_normal(rng, (rows,) + grid.shape)
            for padded in (False, True):
                self.check(values, grid, rule, padded)

    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.integers(-300, 300),
        period=st.floats(0.25, 16.0),
        case=st.sampled_from([(1, 16), (2, 10), (2, 16), (3, 8), (3, 10)]),
        rule=st.sampled_from(["two_thirds", "none"]),
    )
    def test_bits_property(self, seed, scale, period, case, rule):
        d, n = case
        grid = GridSpec(d, n, period)
        values = complex_normal(np.random.default_rng(seed), (2,) + grid.shape) * 2.0**scale
        self.check(values, grid, rule, padded=seed % 2 == 1)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("rule", ["two_thirds", "none"])
    @pytest.mark.parametrize("d, n", [(1, 64), (2, 64), (3, 32)])
    def test_lines_transformed(self, monkeypatch, d, n, rule, inverse):
        # One unscaled unitary_dft along one axis per run product, over
        # kept^j n^(d-1-j) lines per row in pass j: at d = 3, n = 32 (21 of
        # 32 kept) 2137 lines per row against fftn's 3072. d = 1 and the
        # none rule are one plain unitary_dft over every grid axis.
        grid = GridSpec(d, n, 4.0)
        band = DealiasPolicy(rule).band(grid)
        kept = band.shape[0]
        calls = []
        original = spectral.unitary_dft

        def recorded(values, axes, inverse=False, out=None, scaled=True):
            calls.append((values.shape, tuple(axes), scaled))
            return original(values, axes, inverse, out, scaled)

        monkeypatch.setattr(spectral, "unitary_dft", recorded)
        rows = 2
        values = complex_normal(np.random.default_rng(d), (rows,) + grid.shape)
        if inverse:
            band.clear(values)
        spectral.box_dft(values, band.runs, d, inverse)
        if d == 1 or rule == "none":
            assert calls == [((rows,) + grid.shape, tuple(range(1, d + 1)), True)]
            return
        assert all(len(axes) == 1 and not scaled for _, axes, scaled in calls)
        assert len(calls) == sum(len(band.runs) ** j for j in range(d))
        lines = sum(math.prod(shape) // shape[axes[0]] for shape, axes, _ in calls)
        assert lines == rows * sum(kept**j * n ** (d - 1 - j) for j in range(d))
        if (d, n) == (3, 32):
            assert kept == 21 and lines == rows * 2137
        if (d, n) == (2, 64):
            assert kept == 43 and lines == rows * 107


def _calls_by_function(path: Path):
    """(innermost enclosing function or None, dotted callee) of every call in a source file."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.scope = [None]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            found.append((self.scope[-1], ast.unparse(node.func)))
            self.generic_visit(node)

    Visitor().visit(ast.parse(path.read_text()))
    return found


class TestOneTransformPath:
    """The package's transforms, read off its source: one complex DFT of raw
    arrays (unitary_dft), one real-input pair, and scipy.fft's public
    functions only behind the ComplexField API."""

    SOURCES = sorted(Path(spectral.__file__).parent.rglob("*.py"))

    def test_backend_call_sites(self):
        binding, public, numpy_fft = set(), set(), set()
        for path in self.SOURCES:
            for function, callee in _calls_by_function(path):
                site = (path.name, function, callee)
                if "pypocketfft" in callee:
                    binding.add(site)
                elif callee.startswith("scipy.fft"):
                    public.add(site)
                elif callee.startswith(("np.fft.", "numpy.fft.")):
                    numpy_fft.add(callee)
        assert binding == {
            ("spectral.py", "unitary_dft", "pypocketfft.c2c"),
            ("spectral.py", "_half_spectrum", "pypocketfft.r2c"),
            ("spectral.py", "_half_inverse", "pypocketfft.c2r"),
        }
        assert public == {
            ("spectral.py", "transform", "scipy.fft.fftn"),
            ("spectral.py", "transform", "scipy.fft.ifftn"),
        }
        assert numpy_fft <= {"np.fft.fftfreq", "np.fft.rfftfreq"}  # frequencies, no transforms

    def test_backends_imported_by_spectral_only(self):
        for path in self.SOURCES:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.startswith("scipy.fft") for name in names):
                    assert path.name == "spectral.py", (path, names)

    def test_reference_transforms_left_the_package(self):
        assert not hasattr(spectral, "spectrum_of")
        assert not hasattr(spectral, "samples_of")


class TestOneWindowTable:
    """The geometry of a space-time window, read off the source: the |xi|^2
    classes, the tau frequencies and the time profile are built in the
    window table's builder only, and verify's checks read that table."""

    WINDOW_CALLS = {"np.unique", "np.fft.fftfreq", "window_profile"}

    def test_window_geometry_built_in_the_table_builder_only(self):
        root = Path(spectral.__file__).parent
        sites = [
            (function, callee)
            for function, callee in _calls_by_function(root / "spacetime.py")
            if callee in self.WINDOW_CALLS
        ]
        assert {function for function, _ in sites} == {"_window_table"}
        assert {callee for _, callee in sites} == self.WINDOW_CALLS
        checks = _calls_by_function(root / "harness" / "checks.py")
        assert [callee for _, callee in checks if callee in self.WINDOW_CALLS] == []


class TestOneFreeFlowBuilder:
    """The propagated rows, read off the source: the phase recurrence
    (solver._Phases) is built only by the free-flow builder, the band's
    phases and propagator_stack; no module asks it to hold a row, and the
    chart workspace has no phase buffer."""

    def test_phases_built_in_the_builders_only(self):
        sites, holds = set(), []
        for path in TestOneTransformPath.SOURCES:
            for function, callee in _calls_by_function(path):
                if callee.split(".")[-1] == "_Phases":
                    sites.add((path.name, function))
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "attr", getattr(node, "name", None))
                if name == "hold" and isinstance(node, (ast.Attribute, ast.FunctionDef)):
                    holds.append((path.name, node.lineno))
        assert sites == {
            ("solver.py", "_free_flow"),
            ("solver.py", "_band_phases"),
            ("solver.py", "propagator_stack"),
        }
        assert holds == []
        assert "phases" not in spectral.ComplexWork._fields


class TestNoEnvironmentReads:
    """A run is fixed by its config file, its CLI flags and the CPUs it may
    run on: no module of the package reads the environment."""

    NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}

    def test_no_module_reads_the_environment(self):
        reads = []
        for path in TestOneTransformPath.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in self.NAMES:
                    reads.append((path.name, node.lineno, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {alias.name for alias in node.names}
                    reads += [(path.name, node.lineno, name) for name in names & self.NAMES]
        assert reads == []


# Run in a fresh interpreter: import the CLI, run picard at the default
# config and build one space-time window table (its np.unique returns before
# numpy.ma is needed), then check what the run loaded, and only then import
# scipy.fft.
STARTUP_GUARD = """
import sys

import numpy as np

import smap.cli
from smap import spacetime, spectral
from smap.grid import GridSpec

assert smap.cli.main(["picard", "--out", sys.argv[1]]) == 0
spacetime._window_table(GridSpec(2, 8, 2.0), 1.0, 16)
loaded = {"scipy.fft", "scipy.special", "scipy.linalg", "numpy.ma", spectral.pypocketfft.__name__}
assert not loaded & set(sys.modules), sorted(loaded & set(sys.modules))

import scipy.fft

rng = np.random.default_rng(3)
x = rng.standard_normal((2, 16, 16)) + 1j * rng.standard_normal((2, 16, 16))
got = spectral.pypocketfft.c2c(x, [0, 1, 2], True, 1, None, 1)
assert np.array_equal(got, scipy.fft.fftn(x, norm="ortho"))
"""


class TestStartUp:
    """smap loads scipy's pocketfft binding from its file: no command runs
    scipy.fft's package init, which imports scipy.special and scipy's own
    OpenBLAS."""

    def test_commands_never_import_scipy_fft(self, tmp_path):
        src = str(Path(spectral.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_GUARD, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "picard_amp0.csv").is_file()

    def test_missing_binding_names_its_directory(self, monkeypatch):
        folder = Path(importlib.util.find_spec("scipy").origin).parent / "fft" / "_pocketfft"
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=re.escape(str(folder))):
            spectral._load_pocketfft()

    def test_binding_is_the_one_scipy_fft_calls(self):
        assert spectral.pypocketfft.__name__ == "scipy.fft._pocketfft.pypocketfft"
        assert spectral.pypocketfft is scipy.fft._pocketfft.pypocketfft
