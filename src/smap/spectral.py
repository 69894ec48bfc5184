"""Discrete Fourier infrastructure for complex scalar fields.

One primitive makes every complex transform of a raw array: unitary_dft,
the unitary DFT over chosen axes on scipy's pocketfft binding, in place or
into a given buffer. box_dft runs it one axis at a time over only the 1-d
lines a box of modes needs (the 2/3 rule's), with the same bits inside the
box. Real arrays (sphere components) have their own
real-input transforms over the half spectrum, on the same binding: the
Laplacian and the Sobolev energy of a real stack. The ComplexField API
converts single fields: to_frequency and to_physical through unitary_dft,
transform through scipy.fft's public fftn/ifftn (imported on its first
call; no command calls it). The binding is loaded from its file in scipy's
directory, so importing this module never runs scipy.fft's package, which
would import scipy.special and a second OpenBLAS. Every transform runs on
one pocketfft worker: the grids are small, and the only thread pool
(spacetime's) spends its threads on whole tasks.

Contains the transforms, the smooth dyadic cutoff family (eta_shell, the
Littlewood-Paley weights), the Bessel-potential weights and the Sobolev
norms. The other multipliers live with the kernels that apply them: the
derivative in nonlinearity, the free propagator's phases in solver
(propagator_stack). A caller may hand the real Laplacian a workspace
(RealWork), and the chart kernels and the Sobolev norms of spectra one of
their own (ComplexWork), to write into; a workspace belongs to one call,
solve or generator and is never shared, so concurrent callers stay
independent. The space-time layer's member stacks (stack_empty) follow the
same rule: one lemma_diagnostics call owns them, one per pool worker, and
lends each to one member at a time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, RepresentationMismatch
from .grid import GridSpec


def _load_pocketfft():
    """scipy's pocketfft binding (the C extension behind scipy.fft), loaded
    from its file under its own name and left out of sys.modules.

    find_spec locates scipy's directory without importing its subpackages.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    folder = Path(scipy_spec.origin).parent / "fft" / "_pocketfft"
    name = "scipy.fft._pocketfft.pypocketfft"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"pypocketfft{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader)
            )
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's pocketfft binding (pypocketfft) is not in {folder}")


pypocketfft = _load_pocketfft()

PHYSICAL = "physical"
FREQUENCY = "frequency"

# Plateau / support radii of the radial bump: 1 on |r| <= PLATEAU, 0 outside SUPPORT.
PLATEAU = 5.0 / 4.0
SUPPORT = 8.0 / 5.0


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
    import scipy.fft

    if direction == "forward":
        if u.representation != PHYSICAL:
            raise RepresentationMismatch("forward transform needs a physical field")
        vals = scipy.fft.fftn(u.values, norm="ortho")
        return ComplexField(u.grid, u.time, FREQUENCY, vals)
    if direction == "inverse":
        if u.representation != FREQUENCY:
            raise RepresentationMismatch("inverse transform needs a frequency field")
        vals = scipy.fft.ifftn(u.values, norm="ortho")
        return ComplexField(u.grid, u.time, PHYSICAL, vals)
    raise ValueError(f"unknown direction {direction!r}")


def to_frequency(u: ComplexField) -> ComplexField:
    """u's unitary spectrum, with the bits of transform(u, "forward")."""
    if u.representation == FREQUENCY:
        return u
    return ComplexField(u.grid, u.time, FREQUENCY, unitary_dft(u.values, range(u.grid.d)))


def to_physical(u: ComplexField) -> ComplexField:
    """u's samples, with the bits of transform(u, "inverse")."""
    if u.representation == PHYSICAL:
        return u
    values = unitary_dft(u.values, range(u.grid.d), inverse=True)
    return ComplexField(u.grid, u.time, PHYSICAL, values)


def unitary_dft(
    values: np.ndarray, axes, inverse: bool = False, out=None, scaled: bool = True
) -> np.ndarray:
    """Unitary complex DFT of a complex array over the given axes, written
    into out if given (out=values transforms in place).

    The call behind scipy.fft.fftn and ifftn(values, axes=axes, norm="ortho")
    (pocketfft's inorm=1), so it gives their bits, made on the pocketfft
    binding, which writes into a given out= and skips scipy.fft's argument
    handling. scaled=False leaves out the 1/sqrt(points) factor (inorm=0,
    the bits of ifftn(..., norm="forward") for an inverse). Every complex
    transform of a raw array in the package goes through it.
    """
    axes = [a % values.ndim for a in axes]
    return pypocketfft.c2c(values, axes, not inverse, int(scaled), out, 1)


def box_dft(values: np.ndarray, runs: tuple, d: int, inverse: bool = False) -> np.ndarray:
    """Unitary DFT over the d trailing axes of a complex array whose last
    axis is contiguous, in place, that makes only the 1-d lines a box of
    modes needs; returns values.

    The box keeps, on each grid axis, the index runs ``runs`` (slices of
    that axis in FFT order). The passes run in fftn's axis order, one
    unscaled unitary_dft per run product, and the 1/sqrt(points) factor is
    applied to the whole first pass's output on a float view, as pocketfft
    does inside that pass, so every value made has the bits of unitary_dft.
    Forward: grid axis j transforms only the lines whose indices on the
    axes before it lie in the runs; only the values inside the box are
    defined. Inverse: the input must be zero outside the box, and grid axis
    j transforms only the lines whose indices on the axes after it lie in
    the runs. With d = 1 or runs that cover the axis, it is one unitary_dft.
    """
    n = values.shape[-1]
    axes = range(values.ndim - d, values.ndim)
    if d == 1 or sum(run.stop - run.start for run in runs) == n:
        return unitary_dft(values, axes, inverse, out=values)
    factor = _ortho_factor(n**d)
    for j, axis in enumerate(axes):
        for fixed in product(runs, repeat=d - 1 - j if inverse else j):
            free = (slice(None),) * (j + 1 if inverse else d - j)
            lines = values[(Ellipsis,) + (free + fixed if inverse else fixed + free)]
            unitary_dft(lines, (axis,), inverse, out=lines, scaled=False)
        if j == 0:
            floats = values.view(np.float64)
            floats *= factor
    return values


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
# Bessel potential
# ---------------------------------------------------------------------------

def jsigma_weights(grid: GridSpec, sigma: float) -> np.ndarray:
    return (1.0 + grid.wavenumber_sq()) ** (sigma / 2.0)


@lru_cache(maxsize=64)
def _jsigma_sq(d: int, n: int, period: float, sigma: float) -> np.ndarray:
    """Read-only squared Bessel-potential weights, jsigma_weights(grid, sigma) ** 2."""
    out = jsigma_weights(GridSpec(d, n, period), sigma) ** 2
    out.flags.writeable = False
    return out


class RealWork(NamedTuple):
    """Buffers a caller owns for laplacian_values of real arrays of one shape.

    half holds the half spectrum, lap the Laplacian, and tmp is one
    grid-sized real temporary for the caller's own use (sphere_rhs forms its
    cross product with it). Make one per call or generator, never per module:
    whoever holds it writes into it.
    """

    half: np.ndarray
    lap: np.ndarray
    tmp: np.ndarray


class ComplexWork(NamedTuple):
    """Buffers a caller owns for the chart kernels on complex stacks of up to
    one shape: solver.duhamel_map, nonlinearity.nonlinearity_spectrum and
    hsigma_norm_spectra.

    full holds a block of spectra, phases their propagator phases and
    samples their physical samples; tmp and result are complex temporaries
    (a kernel's result goes into result) and real is a real one.
    _work_buffer gives the part of a buffer that a stack of a given shape
    uses. Make one per call or solve, never per module, as with RealWork.
    """

    full: np.ndarray
    phases: np.ndarray
    samples: np.ndarray
    tmp: np.ndarray
    result: np.ndarray
    real: np.ndarray


def complex_work(shape: tuple) -> ComplexWork:
    """Uninitialised ComplexWork for complex stacks of ``shape``, in one allocation."""
    shape = tuple(shape)
    size = math.prod(shape)
    flat = np.empty(5 * size + (size + 1) // 2, dtype=np.complex128)
    complex_parts = (flat[i * size : (i + 1) * size].reshape(shape) for i in range(5))
    real = flat[5 * size :].view(np.float64)[:size].reshape(shape)
    return ComplexWork(*complex_parts, real)


def _work_buffer(work: ComplexWork | None, name: str, shape: tuple, dtype=np.complex128):
    """The buffer ``name`` of work as a C-contiguous array of ``shape`` (its
    leading values); without a workspace, a new array of ``dtype``."""
    if work is None:
        return np.empty(shape, dtype=dtype)
    return getattr(work, name).reshape(-1)[: math.prod(shape)].reshape(shape)


def real_work(shape: tuple, grid: GridSpec) -> RealWork:
    """Uninitialised RealWork for real arrays of ``shape`` (trailing axes = grid axes)."""
    shape = tuple(shape)
    return RealWork(
        np.empty(shape[:-1] + (grid.n // 2 + 1,), dtype=np.complex128),
        np.empty(shape),
        np.empty(grid.shape),
    )


def laplacian_values(
    values: np.ndarray, grid: GridSpec, scale: float = 1.0, work: RealWork | None = None
) -> np.ndarray:
    """Spectral Laplacian of a real array whose trailing axes are the grid axes,
    times ``scale``.

    The values go through the real-input half spectrum and come back real,
    with one cached multiplier -scale |xi|^2 applied in one pass. Given a
    workspace (real_work of the values' shape) the half spectrum and the
    result are written into it, and work.lap is returned; without one both
    are new arrays. A power-of-two scale changes no bit beyond the exact
    scaling.
    """
    axes = grid_axes(values, grid)
    half, out = (None, None) if work is None else (work.half, work.lap)
    spec = _half_spectrum(values, axes, out=half)
    spec *= _half_laplacian(grid.d, grid.n, grid.period, scale)
    return _half_inverse(spec, values.shape, axes, out=out)


@lru_cache(maxsize=64)
def _half_laplacian(d: int, n: int, period: float, scale: float) -> np.ndarray:
    """Read-only half-spectrum multiplier -scale |xi|^2, complex so that an
    in-place product with a spectrum needs no cast buffer (same bits)."""
    out = (GridSpec(d, n, period).half_wavenumber_sq() * -scale).astype(np.complex128)
    out.flags.writeable = False
    return out


def _ortho_factor(points: int) -> float:
    """1/sqrt(points) rounded from long double, as pocketfft scales a unitary transform."""
    return float(1 / np.sqrt(np.longdouble(points)))


# The real-input transforms call the pocketfft binding behind scipy.fft's
# rfftn/irfftn and give their bits; unlike scipy.fft, the binding writes
# into a given out=.


def _half_spectrum(values: np.ndarray, axes, out=None) -> np.ndarray:
    """Unitary real-input DFT over the grid axes; the last one keeps n/2 + 1 columns.

    The same call as scipy.fft.rfftn(values, axes=axes, norm="ortho")
    (inorm=1 is "ortho"), written into out if given.
    """
    values = np.asarray(values, dtype=np.float64)
    axes = [a % values.ndim for a in axes]
    return pypocketfft.r2c(values, axes, True, 1, out, 1)


def _half_inverse(spec: np.ndarray, shape: tuple, axes, out=None) -> np.ndarray:
    """Real array of ``shape`` whose _half_spectrum is spec, written into out if
    given; spec is overwritten.

    Bit for bit scipy.fft.irfftn(spec, s=..., axes=axes, norm="ortho"):
    pocketfft's c2r over several axes runs unscaled c2c passes over the
    leading axes into a temporary it allocates, then the last-axis c2r,
    whose output it multiplies by the unitary factor. Here the c2c passes
    run in spec itself, so a caller with a workspace allocates nothing.
    """
    axes = [a % spec.ndim for a in axes]
    if len(axes) > 1:
        unitary_dft(spec, axes[:-1], inverse=True, out=spec, scaled=False)
    out = pypocketfft.c2r(spec, axes[-1:], shape[axes[-1]], False, 0, out, 1)
    out *= _ortho_factor(math.prod(shape[a] for a in axes))
    return out


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


def hsigma_norm_spectra(
    spec: np.ndarray, grid: GridSpec, sigma: float, work: ComplexWork | None = None
) -> np.ndarray:
    """Sobolev norms of a stack of unitary spectra, by Plancherel.

    The squares of the spectra's float view go into work.tmp (in place when
    spec is work.tmp) and each point's two squares are added into
    work.real; without a workspace both are new arrays. The power has the
    bits of square(real) + square(imag).
    """
    spec = np.ascontiguousarray(spec, dtype=np.complex128)
    squares = _work_buffer(work, "tmp", spec.shape).view(np.float64)
    np.square(spec.view(np.float64), out=squares)
    power = _work_buffer(work, "real", spec.shape, np.float64)
    np.add(squares[..., 0::2], squares[..., 1::2], out=power)
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
    power *= _half_energy_weight(grid.d, grid.n, grid.period, sigma)
    return grid.cell_volume * np.sum(power, axis=axes)


@lru_cache(maxsize=64)
def _half_energy_weight(d: int, n: int, period: float, sigma: float) -> np.ndarray:
    """Read-only half-spectrum weights (1 + |xi|^2)^sigma of hsigma_energy_real,
    doubled on the columns that stand for their conjugate mirrors too."""
    out = (1.0 + GridSpec(d, n, period).half_wavenumber_sq()) ** sigma
    out[..., 1 : n // 2] *= 2.0
    out.flags.writeable = False
    return out


def require_same_grid(a, b):
    if not a.grid.same_as(b.grid):
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
