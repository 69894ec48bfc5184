"""Right-hand sides of both formulations of the flow, on raw arrays.

Chart side: nonlinearity_spectrum, the spectrum of the derivative
Schrodinger nonlinearity 2*conj(u)/(1+|u|^2) * sum_j (du/dx_j)^2 of a
stack of snapshots. The derivatives are the multipliers _derivative, and
the rational prefactor (_prefactor) is computed pointwise in real
arithmetic: one real reciprocal 2/(1+|u|^2), then both parts (the
denominator is at least 1, so it is total; where |u|^2 overflows the
prefactor is 0). Given a workspace (spectral.ComplexWork),
nonlinearity_spectrum writes every temporary into it and transforms in
place on the pocketfft binding (spectral.unitary_dft, and spectral.box_dft
where the dealias band drops part of the output); without one it runs the
same steps into new arrays.
Sphere side: sphere_rhs, the cross-product term s x Laplacian(s).

Every physical-space product or composition is followed by the configured
dealiasing rule, which zeroes the modes outside its band; the 2/3 rule is
standard pseudospectral practice for non-polynomial nonlinearities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .grid import GridSpec
from .spectral import (
    ComplexWork,
    RealWork,
    _work_buffer,
    box_dft,
    grid_axes,
    laplacian_values,
    unitary_dft,
)


@dataclass(frozen=True)
class DealiasPolicy:
    """Spectral truncation applied after pointwise products; rule in {two_thirds, none}."""

    rule: str = "two_thirds"

    def __post_init__(self):
        if self.rule not in ("two_thirds", "none"):
            raise ValueError(f"unknown dealias rule {self.rule!r}")

    def band(self, grid: GridSpec) -> "Band":
        """The modes the rule keeps, as a box of the spectrum (all of them for none)."""
        return _band(grid.d, grid.n, grid.period, self.rule)

    def apply_values(self, values: np.ndarray, grid: GridSpec) -> np.ndarray:
        """Truncate a complex array whose trailing axes are the grid axes, in
        place, and return it.

        The modes outside the band are set to zero, which equals the product
        with the band's 0/1 indicator on finite values. The none rule leaves
        values as they are.
        """
        if self.rule == "none":
            return values
        band = self.band(grid)
        band.clear(box_dft(values, band.runs, grid.d))
        return box_dft(values, band.runs, grid.d, inverse=True)


TWO_THIRDS = DealiasPolicy("two_thirds")
NO_DEALIAS = DealiasPolicy("none")


def _axis_keep(n: int, period: float, rule: str) -> np.ndarray:
    """Which of one axis's n wavenumbers (FFT order) the rule keeps."""
    if rule == "none":
        return np.ones(n, dtype=bool)
    grid = GridSpec(1, n, period)
    return np.abs(grid.axis_wavenumbers()) < (2.0 / 3.0) * grid.nyquist


class Band(NamedTuple):
    """The box of modes a dealias rule keeps, stored apart from the rest.

    In FFT order each axis keeps the index runs ``runs``: a low one [0, h)
    and a high one [n - t, n), or the one run [0, n) when the rule keeps
    every mode. The box is then 2^d corner blocks of the spectrum, packed
    into an array of the box's shape in the same order. corners pairs the
    spectrum index of each nonempty corner with its index in the box.
    complement indexes the other modes as disjoint slabs: slab j takes the
    dropped run of axis j, the kept runs of the axes before it and every
    index of the axes after it. Corners and slabs cover each mode once.
    spectral.box_dft transforms only the lines the box needs.
    """

    shape: tuple
    runs: tuple
    corners: tuple
    complement: tuple

    def gather(self, full: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy the box of full (any leading axes) into out."""
        for spectrum_index, box_index in self.corners:
            out[box_index] = full[spectrum_index]
        return out

    def scatter(self, box: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy the box into its modes of out; the other modes are left as they are."""
        for spectrum_index, box_index in self.corners:
            out[spectrum_index] = box[box_index]
        return out

    def clear(self, out: np.ndarray) -> np.ndarray:
        """Set every mode of out (any leading axes) outside the box to zero."""
        for slab in self.complement:
            out[slab] = 0.0
        return out


@lru_cache(maxsize=64)
def _band(d: int, n: int, period: float, rule: str) -> Band:
    # |xi| < cutoff holds on the first `low` and the last `high` indices of
    # an axis in FFT order (0, 1, .., -2, -1).
    keep = _axis_keep(n, period, rule)
    low = n if keep.all() else int(np.argmin(keep))
    high = int(keep.sum()) - low
    runs = tuple(run for run in (slice(0, low), slice(n - high, n)) if run.start < run.stop)
    packed = zip(runs, (slice(0, low), slice(low, low + high)))
    corners = tuple(
        ((Ellipsis,) + tuple(r[0] for r in corner), (Ellipsis,) + tuple(r[1] for r in corner))
        for corner in product(packed, repeat=d)
    )
    complement = ()
    if low + high < n:
        complement = tuple(
            (Ellipsis,) + before + (slice(low, n - high),) + (slice(None),) * (d - 1 - axis)
            for axis in range(d)
            for before in product(runs, repeat=axis)
        )
    return Band((low + high,) * d, runs, corners, complement)


@lru_cache(maxsize=64)
def _derivative(d: int, n: int, period: float, axis: int) -> np.ndarray:
    """Read-only derivative multiplier 1j * xi_axis (0-based axis), odd: its
    Nyquist slot (index n/2 on the axis), which reflection maps to itself,
    is 0."""
    out = 1j * GridSpec(d, n, period).wavenumber_component(axis)
    out[(slice(None),) * axis + (n // 2,)] = 0.0
    out.flags.writeable = False
    return out


def _prefactor(
    values: np.ndarray, grid: GridSpec, policy: DealiasPolicy, work: ComplexWork | None = None
) -> np.ndarray:
    """Dealiased 2*conj(u)/(1+|u|^2) of a raw array over any leading axes, in
    work.result (or a new array), with 1+|u|^2 and its reciprocal in work.real.

    Both parts are products with one real reciprocal 2/(1+|u|^2), on float
    views. numpy's complex division by (1+|u|^2) + 0j takes the same
    reciprocal and products (the exact factor 2 aside), so the values are
    those of 2*conj(u) / (1+|u|^2); only the sign of a zero part may differ.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    out = _work_buffer(work, "result", values.shape)
    scale = _work_buffer(work, "real", values.shape, np.float64)
    u, vals = values.view(np.float64), out.view(np.float64)
    np.abs(values, out=scale)
    np.square(scale, out=scale)
    scale += 1.0
    np.divide(2.0, scale, out=scale)
    np.multiply(u[..., 0::2], scale, out=vals[..., 0::2])
    np.negative(scale, out=scale)
    np.multiply(u[..., 1::2], scale, out=vals[..., 1::2])
    return policy.apply_values(out, grid)


def nonlinearity_spectrum(
    u: np.ndarray,
    u_hat: np.ndarray,
    grid: GridSpec,
    policy: DealiasPolicy = TWO_THIRDS,
    work: ComplexWork | None = None,
) -> np.ndarray:
    """Dealiased spectrum of the nonlinearity 2*conj(u)/(1+|u|^2) * sum_j (d_j u)^2
    (the prefactor is _prefactor) for a stack of snapshots.

    ``u`` holds physical samples and ``u_hat`` their unitary spectra; the
    trailing axes are the grid axes and any leading axes (time) are batched.
    Costs d inverse transforms for the gradients, one round trip each to
    dealias the squared gradient and the prefactor, and one forward
    transform of the product, truncated in frequency space; the last five
    run on spectral.box_dft, which skips the lines the band does not need
    (at d = 3, n = 32 a forward transform makes 2137 of fftn's 3072 lines
    per row), with unchanged bits. The squared
    gradient is summed in work.tmp, each gradient and then the prefactor
    and the product are formed in work.result, and 1+|u|^2 goes into
    work.real; every transform runs in place. Without a workspace these
    are new arrays. The inputs are left unchanged; the result is the
    product's buffer.
    """
    axes = grid_axes(u, grid)
    grad_sq = _work_buffer(work, "tmp", u.shape)
    g = _work_buffer(work, "result", u.shape)
    for axis in range(grid.d):
        np.multiply(u_hat, _derivative(grid.d, grid.n, grid.period, axis), out=g)
        unitary_dft(g, axes, inverse=True, out=g)
        if axis == 0:
            np.square(g, out=grad_sq)
        else:
            grad_sq += np.square(g, out=g)
    policy.apply_values(grad_sq, grid)
    del g
    prod = _prefactor(u, grid, policy, work)
    prod *= grad_sq
    del grad_sq
    band = policy.band(grid)
    return band.clear(box_dft(prod, band.runs, grid.d))


def sphere_rhs(
    values: np.ndarray,
    grid: GridSpec,
    out: np.ndarray | None = None,
    scale: float = 1.0,
    work: RealWork | None = None,
) -> np.ndarray:
    """Sphere-form right-hand side s x Laplacian(s) of a raw (3, *grid) array,
    with the Laplacian times ``scale``.

    The Laplacian is spectral (multiplier -scale |xi|^2) for consistency
    with the chart-side computation and costs one real-input round trip;
    tangency s . (s x Lap s) = 0 holds pointwise by the triple-product
    identity, up to rounding. The product is formed component by component
    into ``out`` (which must not overlap ``values``) with the
    multiply/subtract sequence of np.cross, so it matches
    np.cross(values, lap, axis=0) bit for bit. Given a workspace
    (spectral.real_work of the values' shape), the Laplacian and the
    product's temporary go into it, and with ``out`` nothing is allocated.
    """
    lap = laplacian_values(values, grid, scale=scale, work=work)
    if out is None:
        out = np.empty_like(values)
    a0, a1, a2 = values
    b0, b1, b2 = lap
    tmp = np.multiply(a2, b1, out=None if work is None else work.tmp)
    np.multiply(a1, b2, out=out[0])
    out[0] -= tmp
    np.multiply(a0, b2, out=tmp)
    np.multiply(a2, b0, out=out[1])
    out[1] -= tmp
    np.multiply(a1, b0, out=tmp)
    np.multiply(a0, b1, out=out[2])
    out[2] -= tmp
    return out
