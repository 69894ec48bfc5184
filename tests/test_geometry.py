import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smap.errors import ChartViolation, GridMismatch
from smap.geometry import SphereField, sobolev_distance, stereo_lift, stereo_project
from smap.grid import GridSpec
from smap.spectral import PHYSICAL, ComplexField

from conftest import random_smooth_field
from oracles import hsigma_quadrature, mesh


def complex_const(grid, value):
    return ComplexField(grid, 0.0, PHYSICAL, np.full(grid.shape, value, dtype=complex))


class TestStereoProject:
    def test_north_pole_maps_to_origin(self, grid32):
        s = SphereField.constant(grid32, (0.0, 0.0, 1.0))
        assert np.max(np.abs(stereo_project(s).values)) == 0.0

    def test_equator_point(self, grid32):
        s = SphereField.constant(grid32, (1.0, 0.0, 0.0))
        assert np.max(np.abs(stereo_project(s).values - 1.0)) < 1e-15

    def test_roundtrip_recovers_chart_field(self, grid32, rng):
        g = random_smooth_field(grid32, rng, amp=0.4)
        back = stereo_project(stereo_lift(g))
        assert np.max(np.abs(back.values - g.values)) < 1e-12

    @given(
        st.sampled_from([(1, 8), (2, 8), (3, 8)]).flatmap(
            lambda dn: st.tuples(
                st.just(GridSpec(dn[0], dn[1], 1.0)),
                arrays(np.float64, (2,) + (dn[1],) * dn[0], elements=st.floats(-1.0, 1.0)),
            )
        )
    )
    def test_roundtrip_property(self, case):
        # The threshold of verify's stereo_roundtrip check, for any chart
        # values with real and imaginary parts in [-1, 1].
        grid, parts = case
        g = ComplexField(grid, 0.0, PHYSICAL, parts[0] + 1j * parts[1])
        back = stereo_project(stereo_lift(g))
        assert np.max(np.abs(back.values - g.values)) <= 1e-12

    def test_chart_violation_reports_worst_point(self, grid32):
        vals = np.broadcast_to(
            np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1), (3,) + grid32.shape
        ).copy()
        vals[:, 3, 5] = [0.0, 0.0, -1.0]
        s = SphereField(grid32, 0.0, vals)
        with pytest.raises(ChartViolation) as err:
            stereo_project(s)
        assert "(3, 5)" in str(err.value)


class TestStereoLift:
    def test_zero_maps_to_north_pole(self, grid32):
        s = stereo_lift(complex_const(grid32, 0.0))
        assert np.max(np.abs(s.values - np.array([0, 0, 1.0]).reshape(3, 1, 1))) == 0.0

    def test_imaginary_unit(self, grid32):
        s = stereo_lift(complex_const(grid32, 1j))
        expected = np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1)
        assert np.max(np.abs(s.values - expected)) < 1e-15

    def test_unit_norm_identity(self, grid32, rng):
        g = random_smooth_field(grid32, rng, amp=2.5)
        s = stereo_lift(g)
        assert np.max(np.abs(np.sum(s.values**2, axis=0) - 1.0)) < 1e-14

    def test_lift_then_project_upper_hemisphere(self, grid32, rng):
        g = random_smooth_field(grid32, rng, amp=0.9)
        s = stereo_lift(g)
        assert np.min(s.values[2]) > 0.0  # |g| <= 0.9 keeps s3 positive
        again = stereo_lift(stereo_project(s))
        assert np.max(np.abs(again.values - s.values)) < 1e-12


class TestConstructor:
    def test_normalizes_and_records_defect(self, grid32):
        vals = np.broadcast_to(
            np.array([0.0, 0.0, 1.001]).reshape(3, 1, 1), (3,) + grid32.shape
        ).copy()
        s = SphereField(grid32, 0.0, vals)
        assert abs(s.normalization_defect - 1e-3) < 1e-12
        assert np.max(np.abs(np.sum(s.values**2, axis=0) - 1.0)) < 1e-12

    def test_rejects_zero_vector(self, grid32):
        vals = np.zeros((3,) + grid32.shape)
        with pytest.raises(ValueError):
            SphereField(grid32, 0.0, vals)


class TestSobolevDistance:
    def test_identical_fields(self, grid32, rng):
        s = stereo_lift(random_smooth_field(grid32, rng, amp=0.5))
        assert sobolev_distance(s, s, 1.6) == 0.0

    def test_antipodal_constants_l2(self, grid32):
        f = SphereField.constant(grid32, (0.0, 0.0, 1.0))
        g = SphereField.constant(grid32, (0.0, 0.0, -1.0))
        expected = 2.0 * np.sqrt(grid32.volume)
        assert abs(sobolev_distance(f, g, 0.0) - expected) < 1e-12 * expected

    def test_matches_dense_grid_quadrature(self):
        # Closed-form pair; the oracle recomputes each component's Sobolev
        # norm with raw numpy FFTs on a 4x finer grid.
        d, n, period, sigma = 2, 32, 1.0, 1.6

        def g_fn(X, Y, flip):
            return 0.05 * np.exp(1j * X) + flip * 0.03j * np.exp(1j * (X + 2 * Y))

        grid = GridSpec(d, n, period)
        X, Y = mesh(grid)
        f = stereo_lift(ComplexField(grid, 0.0, PHYSICAL, g_fn(X, Y, 1.0)))
        g = stereo_lift(ComplexField(grid, 0.0, PHYSICAL, g_fn(X, Y, -1.0)))
        measured = sobolev_distance(f, g, sigma)

        total = 0.0
        for comp in range(3):
            def component_diff(Xf, Yf, comp=comp):
                def lift(vals):
                    mod2 = np.abs(vals) ** 2
                    parts = [
                        2 * vals.real / (1 + mod2),
                        2 * vals.imag / (1 + mod2),
                        (1 - mod2) / (1 + mod2),
                    ]
                    return parts[comp]

                return lift(g_fn(Xf, Yf, 1.0)) - lift(g_fn(Xf, Yf, -1.0))

            total += hsigma_quadrature(component_diff, d, 4 * n, period, sigma) ** 2
        oracle = np.sqrt(total)
        assert abs(measured - oracle) < 1e-6 * oracle

    def test_metric_properties(self, grid32, rng):
        fields = [
            stereo_lift(random_smooth_field(grid32, rng, amp=0.3)) for _ in range(3)
        ]
        a, b, c = fields
        assert sobolev_distance(a, b, 1.3) == sobolev_distance(b, a, 1.3)
        gap = (
            sobolev_distance(a, c, 1.3)
            - sobolev_distance(a, b, 1.3)
            - sobolev_distance(b, c, 1.3)
        )
        assert gap <= 1e-12

    def test_grid_mismatch(self, grid32, rng):
        other = GridSpec(2, 16, 1.0)
        f = SphereField.constant(grid32, (0.0, 0.0, 1.0))
        g = SphereField.constant(other, (0.0, 0.0, 1.0))
        with pytest.raises(GridMismatch):
            sobolev_distance(f, g, 1.0)
