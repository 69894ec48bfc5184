"""Sphere-valued fields and the stereographic chart at the north pole.

A SphereField samples a map from the torus into the unit sphere in R^3.
The chart identifies fields near the north pole (0,0,1) with small complex
fields; its inverse is total and lands on the sphere by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartViolation
from .grid import GridSpec
from .spectral import PHYSICAL, ComplexField, hsigma_energy_real, require_same_grid

# Chart guard: the projection refuses fields with 1 + s3 <= CHART_GUARD.
CHART_GUARD = 1e-6


@dataclass
class SphereField:
    """Grid of unit 3-vectors at one time; components on the leading axis.

    Construction renormalizes every vector to unit length and records the
    worst pre-normalization defect for diagnostics.
    """

    grid: GridSpec
    time: float
    values: np.ndarray
    normalization_defect: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (3,) + self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match (3, *{self.grid.shape})"
            )
        norms = np.sqrt(np.sum(vals**2, axis=0))
        if np.any(norms <= 0.0):
            raise ValueError("sphere field contains a zero vector")
        self.normalization_defect = float(np.max(np.abs(norms - 1.0)))
        if self.normalization_defect > 1e-15:
            self.values = vals / norms
        else:
            # Already unit to rounding; dividing would only churn last bits
            # (and break bit-identical snapshot roundtrips).
            self.values = vals

    @classmethod
    def constant(cls, grid: GridSpec, point, time: float = 0.0) -> "SphereField":
        point = np.asarray(point, dtype=np.float64)
        vals = np.broadcast_to(point.reshape(3, *([1] * grid.d)), (3,) + grid.shape)
        return cls(grid, time, vals.copy())


def stereo_project(s: SphereField) -> ComplexField:
    """Chart map g = (s1 + i s2)/(1 + s3); fails near the south pole."""
    denom = 1.0 + s.values[2]
    worst = np.argmin(denom)
    if denom.flat[worst] <= CHART_GUARD:
        idx = tuple(int(i) for i in np.unravel_index(worst, s.grid.shape))
        raise ChartViolation(
            f"1 + s3 = {denom.flat[worst]:.3e} <= {CHART_GUARD} at grid point {idx}"
        )
    g = (s.values[0] + 1j * s.values[1]) / denom
    return ComplexField(s.grid, s.time, PHYSICAL, g)


def stereo_lift(g: ComplexField) -> SphereField:
    """Inverse chart; the image is unit-norm by algebraic identity."""
    if g.representation != PHYSICAL:
        raise ValueError("stereo_lift expects a physical-representation field")
    mod2 = np.abs(g.values) ** 2
    denom = 1.0 + mod2
    vals = np.stack(
        [
            2.0 * g.values.real / denom,
            2.0 * g.values.imag / denom,
            (1.0 - mod2) / denom,
        ]
    )
    return SphereField(g.grid, g.time, vals)


def sobolev_distance(f: SphereField, g: SphereField, sigma: float) -> float:
    """Componentwise Sobolev distance [sum_l ||f_l - g_l||_{H^sigma}^2]^(1/2)."""
    require_same_grid(f, g)
    return float(np.sqrt(np.sum(hsigma_energy_real(f.values - g.values, f.grid, sigma))))
