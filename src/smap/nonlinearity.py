"""Right-hand sides of both formulations of the flow.

Chart side: the derivative Schrodinger nonlinearity
2*conj(u)/(1+|u|^2) * sum_j (du/dx_j)^2, with the rational prefactor
computed by direct pointwise division (exact and unconditionally stable).
Sphere side: the cross-product term s x Laplacian(s).

Every physical-space product or composition is followed by the configured
dealiasing rule; the 2/3 rule is standard pseudospectral practice for
non-polynomial nonlinearities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import SphereField
from .grid import GridSpec
from .spectral import (
    PHYSICAL,
    ComplexField,
    grid_axes,
    laplacian_values,
    samples_of,
    spectrum_of,
    to_physical,
)


@dataclass(frozen=True)
class DealiasPolicy:
    """Spectral truncation applied after pointwise products; rule in {two_thirds, none}."""

    rule: str = "two_thirds"

    def __post_init__(self):
        if self.rule not in ("two_thirds", "none"):
            raise ValueError(f"unknown dealias rule {self.rule!r}")

    def mask(self, grid: GridSpec) -> np.ndarray:
        return _dealias_mask(grid.d, grid.n, grid.period, self.rule)

    def apply_values(self, values: np.ndarray, grid: GridSpec) -> np.ndarray:
        """Truncate a raw array whose trailing axes are the grid axes."""
        if self.rule == "none":
            return values
        axes = grid_axes(values, grid)
        spec = spectrum_of(values, axes=axes)
        spec *= self.mask(grid)
        return samples_of(spec, axes=axes)

    def apply(self, u: ComplexField) -> ComplexField:
        if self.rule == "none":
            return u
        u = to_physical(u)
        return ComplexField(u.grid, u.time, PHYSICAL, self.apply_values(u.values, u.grid))


TWO_THIRDS = DealiasPolicy("two_thirds")
NO_DEALIAS = DealiasPolicy("none")


@lru_cache(maxsize=64)
def _dealias_mask(d: int, n: int, period: float, rule: str) -> np.ndarray:
    grid = GridSpec(d, n, period)
    cutoff = (2.0 / 3.0) * grid.nyquist
    mask = np.ones(grid.shape)
    for axis in range(d):
        mask *= np.abs(grid.wavenumber_component(axis)) < cutoff
    mask.flags.writeable = False
    return mask


def _prefactor(values: np.ndarray, grid: GridSpec, policy: DealiasPolicy) -> np.ndarray:
    """Dealiased 2*conj(u)/(1+|u|^2) of a raw array over any leading axes."""
    denom = np.abs(values)
    np.square(denom, out=denom)
    denom += 1.0
    vals = np.conj(values)
    np.multiply(2.0, vals, out=vals)
    vals /= denom
    del denom
    return policy.apply_values(vals, grid)


def n_zero(u: ComplexField, policy: DealiasPolicy = TWO_THIRDS) -> ComplexField:
    """Rational prefactor 2*conj(u)/(1+|u|^2); denominator >= 1, so total."""
    u = to_physical(u)
    return ComplexField(u.grid, u.time, PHYSICAL, _prefactor(u.values, u.grid, policy))


def nonlinearity_spectrum(
    u: np.ndarray,
    u_hat: np.ndarray,
    grid: GridSpec,
    policy: DealiasPolicy = TWO_THIRDS,
) -> np.ndarray:
    """Dealiased spectrum of n_zero(u) * sum_j (d_j u)^2 for a stack of snapshots.

    ``u`` holds physical samples and ``u_hat`` their unitary spectra; the
    trailing axes are the grid axes and any leading axes (time) are batched.
    Costs d inverse transforms for the gradients, one round trip each to
    dealias the squared gradient and the prefactor, and one forward
    transform of the product, masked in frequency space. Each temporary is
    dropped once used, so at most four stacks are alive beside the inputs.
    """
    axes = grid_axes(u, grid)
    grad_sq = np.zeros(u.shape, dtype=np.complex128)
    for axis in range(grid.d):
        g = samples_of(u_hat * (1j * grid.wavenumber_component(axis)), axes=axes)
        grad_sq += np.square(g, out=g)
        del g
    grad_sq = policy.apply_values(grad_sq, grid)
    prod = _prefactor(u, grid, policy)
    prod *= grad_sq
    del grad_sq
    nl_hat = spectrum_of(prod, axes=axes)
    if policy.rule != "none":
        nl_hat *= policy.mask(grid)
    return nl_hat


def nonlinearity(u: ComplexField, policy: DealiasPolicy = TWO_THIRDS) -> ComplexField:
    """Spatial part of the derivative nonlinearity: n_zero(u) * sum_j (d_j u)^2."""
    u = to_physical(u)
    nl_hat = nonlinearity_spectrum(u.values[None], spectrum_of(u.values)[None], u.grid, policy)
    return ComplexField(u.grid, u.time, PHYSICAL, samples_of(nl_hat[0]))


def cross_rhs(s: SphereField) -> np.ndarray:
    """Sphere-form right-hand side s x Laplacian(s) as a raw (3, *grid) array.

    The Laplacian is spectral (multiplier -|xi|^2) for consistency with the
    chart-side computation; tangency s . (s x Lap s) = 0 holds pointwise by
    the triple-product identity, up to rounding.
    """
    lap = laplacian_values(s.values, s.grid)
    return np.cross(s.values, lap, axis=0)
