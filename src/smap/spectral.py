"""Discrete Fourier infrastructure for complex scalar fields.

Contains the unitary transform pair, the smooth dyadic cutoff family, the
Bessel-potential multiplier, Littlewood-Paley shell projections, spectral
derivatives and the free Schrodinger propagator. All operators act as pure
functions on immutable field snapshots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .errors import AxisOutOfRange, GridMismatch, RepresentationMismatch
from .grid import GridSpec

PHYSICAL = "physical"
FREQUENCY = "frequency"

# Plateau / support radii of the radial bump: 1 on |r| <= PLATEAU, 0 outside SUPPORT.
PLATEAU = 5.0 / 4.0
SUPPORT = 8.0 / 5.0


def fft_workers() -> int:
    """Worker cap for the FFT backend, settable through SMAP_THREADS."""
    env = os.environ.get("SMAP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass
class ComplexField:
    """Grid sampling of a complex scalar at one time, in physical or frequency form."""

    grid: GridSpec
    time: float
    representation: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.representation not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown representation {self.representation!r}")

    @classmethod
    def zeros(cls, grid: GridSpec, time: float = 0.0) -> "ComplexField":
        return cls(grid, time, PHYSICAL, np.zeros(grid.shape, dtype=np.complex128))

    def copy(self) -> "ComplexField":
        return replace(self, values=self.values.copy())


def transform(u: ComplexField, direction: str) -> ComplexField:
    """Unitary DFT between physical and frequency representations.

    ``direction`` is ``"forward"`` (physical -> frequency) or ``"inverse"``.
    The norm-preserving normalization makes Plancherel exact up to rounding.
    """
    if direction == "forward":
        if u.representation != PHYSICAL:
            raise RepresentationMismatch("forward transform needs a physical field")
        vals = scipy.fft.fftn(u.values, norm="ortho", workers=fft_workers())
        return ComplexField(u.grid, u.time, FREQUENCY, vals)
    if direction == "inverse":
        if u.representation != FREQUENCY:
            raise RepresentationMismatch("inverse transform needs a frequency field")
        vals = scipy.fft.ifftn(u.values, norm="ortho", workers=fft_workers())
        return ComplexField(u.grid, u.time, PHYSICAL, vals)
    raise ValueError(f"unknown direction {direction!r}")


def to_frequency(u: ComplexField) -> ComplexField:
    return u if u.representation == FREQUENCY else transform(u, "forward")


def to_physical(u: ComplexField) -> ComplexField:
    return u if u.representation == PHYSICAL else transform(u, "inverse")


def spectrum_of(values: np.ndarray, axes=None) -> np.ndarray:
    """Unitary forward DFT of a raw array over the given axes."""
    return scipy.fft.fftn(values, axes=axes, norm="ortho", workers=fft_workers())


def samples_of(spectrum: np.ndarray, axes=None) -> np.ndarray:
    """Unitary inverse DFT of a raw array over the given axes."""
    return scipy.fft.ifftn(spectrum, axes=axes, norm="ortho", workers=fft_workers())


def grid_axes(values: np.ndarray, grid: GridSpec) -> tuple:
    """The trailing axes of a raw array that are the grid axes."""
    return tuple(range(values.ndim - grid.d, values.ndim))


# ---------------------------------------------------------------------------
# Smooth cutoff family
# ---------------------------------------------------------------------------

def _smoothstep(x):
    """C-infinity transition from 0 at x<=0 to 1 at x>=1 via exp(-1/x) glue."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        a = np.exp(-1.0 / xm)
        b = np.exp(-1.0 / (1.0 - xm))
        out[mid] = a / (a + b)
    return out


def eta0(r):
    """Radial bump: 1 for |r| <= 5/4, 0 for |r| >= 8/5, smooth in between."""
    r = np.abs(np.asarray(r, dtype=np.float64))
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.ones(r.shape)
    out[r >= SUPPORT] = 0.0
    mid = (r > PLATEAU) & (r < SUPPORT)
    if np.any(mid):
        out[mid] = 1.0 - _smoothstep((r[mid] - PLATEAU) / (SUPPORT - PLATEAU))
    return float(out[0]) if scalar else out


def eta_shell(k: int, r):
    """Dyadic shell bump eta_k(r) = eta0(r/2^k) - eta0(r/2^(k-1)); eta0 for k=0.

    The family telescopes: summing shells 0..K reproduces eta0(r/2^K), so it
    is an exact partition of unity on |r| <= 2^K * 5/4.
    """
    if k < 0:
        raise ValueError(f"shell index must be >= 0, got {k}")
    if k == 0:
        return eta0(r)
    r = np.asarray(r, dtype=np.float64)
    return eta0(r / 2.0**k) - eta0(r / 2.0 ** (k - 1))


def chi(k: int, l: int, r):
    """One-sided high-pass cutoff at scale 2^(k-l); identically 1 for k <= 99.

    No representable grid reaches k >= 100 (it needs n ~ 2^99 points per axis).
    """
    if k < 0:
        raise ValueError(f"shell index must be >= 0, got {k}")
    if not 0 <= l <= 60:
        raise ValueError(f"offset l must lie in [0, 60], got {l}")
    r = np.asarray(r, dtype=np.float64)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if k <= 99:
        out = np.ones(r.shape)
    else:
        out = (1.0 - eta0(r / 2.0 ** (k - l))) * (r >= 0.0)
    return float(out[0]) if scalar else out


def psi(t):
    """Even smooth time window: 1 on [-5/4, 5/4], supported in [-8/5, 8/5]."""
    return eta0(t)


# ---------------------------------------------------------------------------
# Multiplier operators
# ---------------------------------------------------------------------------

def _apply_multiplier(u: ComplexField, mult: np.ndarray) -> ComplexField:
    """Multiply the spectrum by ``mult`` and return in the input representation."""
    if u.representation == FREQUENCY:
        return ComplexField(u.grid, u.time, FREQUENCY, u.values * mult)
    spec = spectrum_of(u.values)
    return ComplexField(u.grid, u.time, PHYSICAL, samples_of(spec * mult))


def lp_project(u: ComplexField, k: int) -> ComplexField:
    """Restrict to the dyadic frequency shell |xi| ~ 2^k with the smooth bump."""
    if k < 0:
        raise ValueError(f"shell index must be >= 0, got {k}")
    return _apply_multiplier(u, eta_shell(k, np.sqrt(u.grid.wavenumber_sq())))


def jsigma_weights(grid: GridSpec, sigma: float) -> np.ndarray:
    return (1.0 + grid.wavenumber_sq()) ** (sigma / 2.0)


def apply_jsigma(u: ComplexField, sigma: float) -> ComplexField:
    """Bessel-potential multiplier (1+|xi|^2)^(sigma/2); sigma may be negative."""
    return _apply_multiplier(u, jsigma_weights(u.grid, sigma))


def free_propagate(u: ComplexField, t: float) -> ComplexField:
    """Free Schrodinger group: multiply the spectrum by exp(-i t |xi|^2)."""
    out = _apply_multiplier(u, np.exp(-1j * t * u.grid.wavenumber_sq()))
    out.time = u.time + t
    return out


def gradient(u: ComplexField, axis: int) -> ComplexField:
    """Spectral partial derivative along ``axis`` (1-based, matching x_1..x_d)."""
    if not 1 <= axis <= u.grid.d:
        raise AxisOutOfRange(f"axis {axis} outside 1..{u.grid.d}")
    return _apply_multiplier(u, 1j * u.grid.wavenumber_component(axis - 1))


def laplacian_values(values: np.ndarray, grid: GridSpec, axes=None) -> np.ndarray:
    """Spectral Laplacian of a raw array whose trailing axes are the grid axes."""
    if axes is None:
        axes = grid_axes(values, grid)
    spec = spectrum_of(values, axes=axes)
    spec *= -grid.wavenumber_sq()
    out = samples_of(spec, axes=axes)
    return out.real if np.isrealobj(values) else out


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def l2_norm(u: ComplexField) -> float:
    """Continuum-normalized L2 norm (rectangle rule; exact for trig interpolants)."""
    if u.representation == PHYSICAL:
        weight = u.grid.cell_volume
    else:
        weight = u.grid.cell_volume  # unitary transform preserves the sum
    return float(np.sqrt(weight * np.sum(np.abs(u.values) ** 2)))


def hsigma_norm(u: ComplexField, sigma: float) -> float:
    """Sobolev norm ||(1+|xi|^2)^(sigma/2) u||_L2 computed in frequency space."""
    spec = to_frequency(u)
    w = jsigma_weights(u.grid, sigma)
    return float(
        np.sqrt(u.grid.cell_volume * np.sum(w**2 * np.abs(spec.values) ** 2))
    )


def hsigma_norm_stack(values: np.ndarray, grid: GridSpec, sigma: float) -> np.ndarray:
    """Sobolev norms of a stack of physical snapshots (leading axis = time)."""
    return hsigma_norm_spectra(spectrum_of(values, axes=grid_axes(values, grid)), grid, sigma)


def hsigma_norm_spectra(spec: np.ndarray, grid: GridSpec, sigma: float) -> np.ndarray:
    """Sobolev norms of a stack of unitary spectra, by Plancherel."""
    power = np.square(spec.real)
    power += np.square(spec.imag)
    power *= jsigma_weights(grid, sigma) ** 2
    return np.sqrt(grid.cell_volume * np.sum(power, axis=grid_axes(spec, grid)))


def require_same_grid(a, b):
    if not a.grid.same_as(b.grid):
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
