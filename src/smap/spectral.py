"""Discrete Fourier infrastructure for complex scalar fields.

Real arrays (sphere components) have their own real-input transforms over
the half spectrum: the Laplacian and the Sobolev energy of a real stack.

Contains the unitary transform pair, the smooth dyadic cutoff family, the
Bessel-potential multiplier, Littlewood-Paley shell projections, spectral
derivatives and the free Schrodinger propagator. All operators act as pure
functions on immutable field snapshots.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import AxisOutOfRange, GridMismatch, RepresentationMismatch
from .grid import GridSpec

PHYSICAL = "physical"
FREQUENCY = "frequency"

# Plateau / support radii of the radial bump: 1 on |r| <= PLATEAU, 0 outside SUPPORT.
PLATEAU = 5.0 / 4.0
SUPPORT = 8.0 / 5.0


_pool_thread = threading.local()


def fft_workers() -> int:
    """Worker cap for the FFT backend, settable through SMAP_THREADS.

    SMAP_THREADS (default: the CPU count) is the total thread budget. A
    thread pool spends it on its threads, so on a pool thread this is 1.
    """
    if getattr(_pool_thread, "one_worker", False):
        return 1
    env = os.environ.get("SMAP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _one_fft_worker() -> None:
    """Make fft_workers() return 1 on the calling thread (a pool initializer)."""
    _pool_thread.one_worker = True


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


def spectrum_of(values: np.ndarray, axes=None, overwrite: bool = False) -> np.ndarray:
    """Unitary forward DFT of a raw array over the given axes.

    overwrite lets a complex input buffer receive the result in place.
    """
    return scipy.fft.fftn(
        values, axes=axes, norm="ortho", workers=fft_workers(), overwrite_x=overwrite
    )


def samples_of(
    spectrum: np.ndarray, axes=None, overwrite: bool = False, scaled: bool = True
) -> np.ndarray:
    """Unitary inverse DFT of a raw array over the given axes (see spectrum_of).

    scaled=False leaves out the 1/sqrt(points) factor.
    """
    return scipy.fft.ifftn(
        spectrum,
        axes=axes,
        norm="ortho" if scaled else "forward",
        workers=fft_workers(),
        overwrite_x=overwrite,
    )


def grid_axes(values: np.ndarray, grid: GridSpec) -> tuple:
    """The trailing axes of a raw array that are the grid axes."""
    return tuple(range(values.ndim - grid.d, values.ndim))


# Complex values between the end of one stack row and the start of the next:
# one 64-byte cache line.
ROW_PAD = 4


def stack_empty(rows: int, shape: tuple) -> np.ndarray:
    """Uninitialised complex (rows, *shape) stack whose rows lie ROW_PAD values apart.

    Each row is contiguous. Stored back to back, rows of a power-of-two
    number of points lie a power of two bytes apart, so a transform along
    the row axis maps every sample of a line to the same cache sets; the
    pad breaks that. Transforms and elementwise steps give the same bits in
    either layout.
    """
    points = int(np.prod(shape))
    buf = np.empty((rows, points + ROW_PAD), dtype=np.complex128)
    return buf[:, :points].reshape((rows,) + tuple(shape))


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


@lru_cache(maxsize=64)
def _jsigma_sq(d: int, n: int, period: float, sigma: float) -> np.ndarray:
    """Read-only squared Bessel-potential weights, jsigma_weights(grid, sigma) ** 2."""
    out = jsigma_weights(GridSpec(d, n, period), sigma) ** 2
    out.flags.writeable = False
    return out


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


def laplacian_values(
    values: np.ndarray, grid: GridSpec, axes=None, scale: float = 1.0
) -> np.ndarray:
    """Spectral Laplacian of a raw array whose trailing axes are the grid axes,
    times ``scale``.

    Real input goes through the real-input half spectrum and comes back real,
    with one cached multiplier -scale |xi|^2 applied in one pass. A
    power-of-two scale changes no bit beyond the exact scaling.
    """
    if axes is None:
        axes = grid_axes(values, grid)
    if np.iscomplexobj(values):
        spec = spectrum_of(values, axes=axes)
        spec *= -scale * grid.wavenumber_sq()
        return samples_of(spec, axes=axes)
    spec = _half_spectrum(values, axes)
    spec *= _half_laplacian(grid.d, grid.n, grid.period, scale)
    return scipy.fft.irfftn(
        spec, s=[values.shape[a] for a in axes], axes=axes, norm="ortho",
        workers=fft_workers(),
    )


@lru_cache(maxsize=64)
def _half_laplacian(d: int, n: int, period: float, scale: float) -> np.ndarray:
    """Read-only half-spectrum multiplier -scale |xi|^2."""
    out = GridSpec(d, n, period).half_wavenumber_sq() * -scale
    out.flags.writeable = False
    return out


def _half_spectrum(values: np.ndarray, axes) -> np.ndarray:
    """Unitary real-input DFT over the grid axes; the last one keeps n/2 + 1 columns."""
    return scipy.fft.rfftn(values, axes=axes, norm="ortho", workers=fft_workers())


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def l2_norm(u: ComplexField) -> float:
    """Continuum-normalized L2 norm (rectangle rule; exact for trig interpolants).

    The unitary transform preserves the sum, so either representation works.
    """
    return float(np.sqrt(u.grid.cell_volume * np.sum(np.abs(u.values) ** 2)))


def hsigma_norm(u: ComplexField, sigma: float) -> float:
    """Sobolev norm ||(1+|xi|^2)^(sigma/2) u||_L2 computed in frequency space."""
    spec = to_frequency(u)
    w2 = _jsigma_sq(u.grid.d, u.grid.n, u.grid.period, sigma)
    return float(np.sqrt(u.grid.cell_volume * np.sum(w2 * np.abs(spec.values) ** 2)))


def hsigma_norm_spectra(spec: np.ndarray, grid: GridSpec, sigma: float) -> np.ndarray:
    """Sobolev norms of a stack of unitary spectra, by Plancherel."""
    power = np.square(spec.real)
    power += np.square(spec.imag)
    power *= _jsigma_sq(grid.d, grid.n, grid.period, sigma)
    return np.sqrt(grid.cell_volume * np.sum(power, axis=grid_axes(spec, grid)))


def hsigma_energy_real(values: np.ndarray, grid: GridSpec, sigma: float) -> np.ndarray:
    """Squared Sobolev norms of a real stack (trailing axes = grid axes).

    Plancherel over the half spectrum: each column other than 0 and n/2 of
    the halved axis stands for itself and its conjugate mirror, so it counts
    twice. One value per leading index.
    """
    axes = grid_axes(values, grid)
    spec = _half_spectrum(values, axes)
    power = np.square(spec.real)
    power += np.square(spec.imag)
    del spec
    weight = (1.0 + grid.half_wavenumber_sq()) ** sigma
    weight[..., 1 : grid.n // 2] *= 2.0
    power *= weight
    return grid.cell_volume * np.sum(power, axis=axes)


def require_same_grid(a, b):
    if not a.grid.same_as(b.grid):
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
