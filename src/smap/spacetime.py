"""Space-time Fourier analysis of windowed trajectories.

A trajectory on [0, T] is extended by free evolution to a symmetric window
[-T_w, T_w], multiplied by the smooth time window so it is compactly
supported, and transformed in all d+1 axes with a continuum-normalized
unitary convention: the discrete transform approximates the symmetric
Fourier transform, so the (d+1)-dimensional Plancherel identity holds
exactly with the grid quadrature weights. The window samples of a
trajectory are rebuilt from its spectra block by block in their window
rows (windowed_samples), and free evolutions, the edges past its ends and
those of free_spectrum, are evolved in the window rows directly. Every
multiply of a complex stack by a real factor runs on a float64 view of
the stack (_floats), with the bits of the complex multiply.

For a free evolution the transform factorizes,
F(tau, xi) = phi_hat(xi) G(tau, |xi|^2), so free_cell_power pools |F|^2
into the (tau row, |xi|^2 class) cells of the shell tables in closed form,
from one time transform per |xi|^2 class and no spectrum. A free ensemble
member is a FreeMember record (phi, m_t, t_window) that lemma_diagnostics
alone reads: its mass, X_k, R1 and Fsigma come from those cells, and its
spectrum is built only for the shell reductions, both in a member stack
that the call lends to one pool worker at a time.

On top of the spectrum this module computes the dyadic-shell norms that
weight distance from the free-evolution paraboloid, directional mixed
norms over lattice fibrations, the one-sided square-sum upper bounds for
whole-trajectory norms, and the ratio diagnostics that probe the expected
k-uniformity of the linear estimates, all through two kernels that
verify's space-time checks run too: _cell_power pools |F|^2 for the shell
tables (X_k, R1, Fsigma), and _shell_reductions inverts one shell (R2-R4).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# numpy 2 loads its submodules on first use; load these at import, not inside a command.
import numpy.fft
import numpy.ma  # used by np.unique

from .errors import EmptyEnsemble, UnsupportedDirection, WindowTooShort
from .grid import GridSpec
from .report import NormReport
from .solver import Trajectory, _block_rows, propagator_stack
from .spectral import (
    PLATEAU,
    SUPPORT,
    ComplexField,
    _ortho_factor,
    eta0,
    eta_shell,
    grid_axes,
    psi,
    stack_empty,
    to_frequency,
    unitary_dft,
)

TIME_CUT = 2.0  # physical-time restriction used by the maximal-function norm
MASS_FLOOR = 1e-12  # members and shells with no more mass than this are skipped


@dataclass
class DirectionSet:
    """Lattice-aligned unit vectors used for directional norms."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] == 0:
            raise ValueError("vectors must be a non-empty (L, d) array")
        for e in self.vectors:
            lattice_vector(e, self.vectors.shape[1])

    def __iter__(self):
        return iter(self.vectors)

    @classmethod
    def default(cls, d: int) -> "DirectionSet":
        """Signed coordinate axes plus all normalized face diagonals."""
        ints = []
        for axis in range(d):
            m = np.zeros(d)
            m[axis] = 1.0
            ints += [m, -m]
        for a in range(d):
            for b in range(a + 1, d):
                for sa in (1.0, -1.0):
                    for sb in (1.0, -1.0):
                        m = np.zeros(d)
                        m[a], m[b] = sa, sb
                        ints.append(m)
        vecs = np.array([m / np.sqrt(np.sum(m**2)) for m in ints])
        return cls(vecs)

    @classmethod
    def named(cls, name: str, d: int) -> "DirectionSet":
        """The rows of default(d) with at most one nonzero lattice entry
        ("axes") or two ("axes_diagonals"), in default(d)'s order."""
        most = {"axes": 1, "axes_diagonals": 2}.get(name)
        if most is None:
            raise ValueError(f"unknown direction set {name!r}")
        full = cls.default(d).vectors
        return cls(full[[np.count_nonzero(lattice_vector(e, d)) <= most for e in full]])


def lattice_vector(e: np.ndarray, d: int) -> np.ndarray:
    """Integer vector with entries in {-1,0,1} aligned with e, if any.

    Only such directions fibrate the sampling lattice exactly (axes and
    diagonals); anything else raises UnsupportedDirection. A normalised
    {-1,0,1} vector has entries 0 or at least 1/sqrt(d) in size, so the
    signs of e's entries above half that are the only candidate.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (d,):
        raise UnsupportedDirection(f"direction shape {e.shape} does not match d={d}")
    m = np.where(np.abs(e) > 0.5 / math.sqrt(d), np.sign(e), 0.0)
    if not m.any() or not np.max(np.abs(m / np.sqrt(np.sum(m**2)) - e)) <= 1e-12:
        raise UnsupportedDirection(f"direction {e} is not lattice-aligned")
    return m.astype(np.int64)


@dataclass
class SpaceTimeSpectrum:
    """Discrete (d+1)-dimensional Fourier data of a windowed trajectory.

    values[b, i1, ..., id] approximates the symmetric-convention transform at
    (tau_b, xi_i); tau runs on (pi/T_w) * Z in FFT layout along axis 0.
    """

    grid: GridSpec
    t_window: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != self.grid.d + 1:
            raise ValueError("values must have one time axis plus the grid axes")
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError("spatial extent does not match the grid")

    @property
    def m_t(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return 2.0 * self.t_window / self.m_t

    @property
    def cell_measure(self) -> float:
        return _cell_measure(self.grid, self.t_window)

    def tau(self) -> np.ndarray:
        return (math.pi / self.t_window) * np.fft.fftfreq(self.m_t, d=1.0 / self.m_t)

    def shell_weights(self, k: int) -> np.ndarray:
        return eta_shell(k, np.sqrt(self.grid.wavenumber_sq()))

    def region_mask(self, k: int, j: int) -> np.ndarray:
        """Indicator of the dyadic region |xi| ~ 2^k, |tau + |xi|^2| <= 2^(j+1).

        Built one time row at a time, from that row's tau + |xi|^2 (omega).
        """
        k2 = self.grid.wavenumber_sq()
        radius = np.sqrt(k2)
        if k == 0:
            shell = radius <= 2.0
        else:
            shell = (radius >= 2.0 ** (k - 1)) & (radius <= 2.0 ** (k + 1))
        mask = np.empty(self.values.shape, dtype=bool)
        omega = np.empty(k2.shape)
        for row, tau in zip(mask, self.tau()):
            np.add(tau, k2, out=omega)
            np.less_equal(np.abs(omega, out=omega), 2.0 ** (j + 1), out=row)
            row &= shell
        return mask


def _cell_measure(grid: GridSpec, t_window: float) -> float:
    """Frequency-space cell volume dxi^d * dtau of a window's spectrum."""
    return (1.0 / grid.period) ** grid.d * (math.pi / t_window)


@dataclass
class PooledPower:
    """|F|^2 of a space-time spectrum pooled into its (tau row, |xi|^2 class)
    cells (_cell_power), without the spectrum itself.

    The shell tables and Fsigma read only these cells, which a FreeMember
    gets in closed form (free_cell_power); the shell reductions need F.
    """

    grid: GridSpec
    t_window: float
    cells: np.ndarray  # (m_t, classes), classes in np.unique order of |xi|^2

    @property
    def m_t(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_measure(self) -> float:
        return _cell_measure(self.grid, self.t_window)


@lru_cache(maxsize=8)
def _centring(d: int, n: int, period: float, t_window: float, m_t: int) -> tuple:
    """Spatial sign pattern and time sign times scale, read-only.

    F = fft_ortho(u) * space * signed_scale: the signs translate FFT output
    to centred coordinates, and the scale C is fixed by the exact Plancherel
    identity. Factors of +-1 are exact, so splitting them does not round.
    """
    space = np.where(np.indices((n,) * d).sum(axis=0) % 2, -1.0, 1.0)
    grid = GridSpec(d, n, period)
    dt = 2.0 * t_window / m_t
    scale = math.sqrt(grid.cell_volume * dt / _cell_measure(grid, t_window))
    signed_scale = ((-1.0) ** np.arange(m_t) * scale).reshape((m_t,) + (1,) * d)
    for arr in (space, signed_scale):
        arr.flags.writeable = False
    return space, signed_scale


def window_profile(times: np.ndarray, t_window: float) -> np.ndarray:
    """Smooth window equal to 1 on the inner 78% of [-T_w, T_w], 0 at the ends."""
    return psi(SUPPORT * np.asarray(times) / t_window)


def _window_times(dt: float, t_window: float) -> np.ndarray:
    """Times -T_w + dt*m of the M_t = 2 T_w / dt rows of the window."""
    if dt <= 0:
        raise WindowTooShort("trajectory has fewer than two samples")
    m_t = int(round(2.0 * t_window / dt))
    if abs(m_t * dt - 2.0 * t_window) > 1e-12 * max(1.0, t_window):
        raise ValueError(f"dt={dt} does not divide the window [-{t_window}, {t_window}]")
    if m_t < 16:
        raise WindowTooShort(f"window has {m_t} samples, need at least 16")
    return -t_window + dt * np.arange(m_t)


def _rows(stack: np.ndarray) -> np.ndarray:
    """(rows, points) view of a stack with contiguous rows, never a copy.

    Elementwise passes over a row-padded stack run several times faster on
    this view than on the stack's own (d+1)-dimensional one.
    """
    return stack.reshape(stack.shape[0], math.prod(stack.shape[1:]), copy=False)


def _floats(stack: np.ndarray) -> np.ndarray:
    """(rows, 2 * points) float64 view of a complex stack with contiguous
    rows: the real and imaginary part of each point side by side.

    numpy multiplies a complex array by a real factor as by factor + 0j, so
    each part gets its product plus an exact zero: multiplying this view by
    the factor gives the same values in one real pass, without the complex
    cast buffer (only the sign of a zero product can differ). A factor per
    point is repeated for both parts, so each row is one contiguous loop.
    """
    return _rows(stack).view(np.float64)


def _windowed(samples: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The samples times the window profile of their rows, in place."""
    parts = _floats(samples)
    parts *= window[:, None]
    return samples


def _transform(samples: np.ndarray, grid: GridSpec, t_window: float) -> SpaceTimeSpectrum:
    """Spectrum of windowed samples, transformed and centred in their own buffer."""
    spec = unitary_dft(samples, range(samples.ndim), out=samples)
    space, signed_scale = _centring(grid.d, grid.n, grid.period, t_window, spec.shape[0])
    # Rows of one parity share the factor space * signed_scale, the spatial
    # signs times +-scale, so one pass over the rows has the bits of two.
    parts = _floats(spec)
    for parity in (0, 1):
        parts[parity::2] *= np.repeat(space * signed_scale[parity], 2)
    return SpaceTimeSpectrum(grid, t_window, spec)


def windowed_samples(traj: Trajectory, t_window: float = 1.0) -> np.ndarray:
    """Symmetric-window samples of a trajectory, extended by free evolution.

    Row m is the sample at time -T_w + dt*m, m = 0..M_t-1, matching the
    trajectory's own step, multiplied by the smooth window. The samples are
    a new row-padded stack (spectral.stack_empty); a trajectory whose times
    are off that grid is rejected. The rows inside the trajectory are
    rebuilt and inverted in their window rows (Trajectory.sample_blocks),
    and the rows past either end evolve the end snapshot's spectrum
    (Trajectory.snapshot) freely there (_free_rows), so no other
    trajectory-sized array is built and no transform pair is spent on it.
    """
    dt = traj.dt
    times = _window_times(dt, t_window)
    t0, t_end = float(traj.times[0]), float(traj.times[-1])
    idx = np.round((times - t0) / dt).astype(int)
    inside = (idx >= 0) & (idx < len(traj)) & (
        np.abs(t0 + idx * dt - times) <= 1e-9 * max(1.0, t_window)
    )
    if np.any(~inside & (times >= t0) & (times <= t_end)):
        raise ValueError(f"trajectory times from {t0} are off the window grid -{t_window} + {dt}*m")
    samples = stack_empty(times.size, traj.grid.shape)
    window = window_profile(times, t_window)
    # idx steps by one and the time test holds for all rows or none, so the
    # matching rows are one run, window rows run[0].. for trajectory rows
    # first.., and each side past an end is one run too.
    run = np.flatnonzero(inside)
    if run.size:
        first, shift = idx[run[0]], run[0] - idx[run[0]]
        out = samples[run[0] : run[-1] + 1]
        for start, block in traj.sample_blocks(first, idx[run[-1]] + 1, out=out):
            _windowed(block, window[start + shift : start + shift + len(block)])
    for side, edge, m in ((times < t0, t0, 0), (times > t_end, t_end, len(traj) - 1)):
        side = np.flatnonzero(side & ~inside)
        if side.size:
            rows = slice(side[0], side[-1] + 1)
            _free_rows(traj.snapshot(m), times[rows] - edge, window[rows], samples[rows])
    return samples


def spacetime_transform(traj: Trajectory, t_window: float = 1.0) -> SpaceTimeSpectrum:
    """Window the trajectory in time and transform in all d+1 axes."""
    return _transform(windowed_samples(traj, t_window), traj.grid, t_window)


def _free_rows(phi: ComplexField, times: np.ndarray, window: np.ndarray, out: np.ndarray):
    """Windowed samples of the free evolution W(t) phi on the given times,
    written into out, a (times, *grid) stack with contiguous rows; a phi in
    frequency form is used as it is.

    The propagator rows are written into out, and each time block of it is
    multiplied by phi_hat, inverted over space and windowed while it is in
    cache: the bits of free_trajectory's spectra inverted and windowed.
    """
    grid = phi.grid
    propagator_stack(times, grid.wavenumber_sq(), out=out)
    phi_hat = to_frequency(phi).values.ravel()
    rows = _block_rows(grid)
    for start in range(0, len(out), rows):
        block = out[start : start + rows]
        spectra = _rows(block)
        spectra *= phi_hat
        unitary_dft(block, grid_axes(block, grid), inverse=True, out=block)
        _windowed(block, window[start : start + rows])
    return out


def _free_window(m_t: int, t_window: float) -> tuple:
    """Times -T_w + (2 T_w / m_t) m of the m_t window rows of a free
    evolution, and the window profile, which reads its times from the
    evolution's step times[1] - times[0], as windowed_samples does."""
    times = -t_window + (2.0 * t_window / m_t) * np.arange(m_t)
    dt = float(times[1] - times[0]) if m_t > 1 else 0.0
    return times, window_profile(_window_times(dt, t_window), t_window)


def free_spectrum(
    phi: ComplexField, m_t: int, t_window: float = 1.0, out=None
) -> SpaceTimeSpectrum:
    """Space-time spectrum of the free evolution W(t) phi on the window.

    Evolves exactly the m_t window rows (_free_window) in one row-padded
    stack (_free_rows) and transforms them in that buffer, so one
    trajectory-sized array is alive throughout: out, a (m_t, *grid) stack
    with contiguous rows, if given. Equal to spacetime_transform of the
    same evolution on the window's rows (free_trajectory).
    """
    times, window = _free_window(m_t, t_window)
    if out is None:
        out = stack_empty(m_t, phi.grid.shape)
    return _transform(_free_rows(phi, times, window, out), phi.grid, t_window)


def free_cell_power(phi: ComplexField, m_t: int, t_window: float = 1.0, out=None) -> PooledPower:
    """_cell_power(free_spectrum(phi, m_t, t_window)) in closed form.

    The free evolution's spectrum factorizes as
    F(tau, xi) = phi_hat(xi) * space(xi) * signed_scale(tau) * G(tau, |xi|^2),
    with G the unitary time transform of window(t) e^{-i t |xi|^2} (Tao,
    Nonlinear Dispersive Equations, section 2.6). The signs drop out of
    |F|^2, so a cell's power is scale^2 |G|^2 times the class sum of
    |phi_hat|^2: one length-m_t transform per |xi|^2 class, of the same
    propagator_stack phases as the spectrum's rows. Given out, a
    (m_t, *grid) stack with contiguous rows such as free_spectrum takes,
    the phases are formed in its first columns, with the same bits.

    The cells are not the pooled spectrum's bit for bit. At the `norms`
    window (seed 7, d = 2, n = 64, m_t = 1280), every free ensemble
    member's X_k lies within 1.4e-14 times the member's total norm (the
    square root of its pooled power) of the pooled spectrum's. A shell at
    the mass floor moves more relative to itself: bump16 at k = 6, with
    X_k 6.6e-12, moves 1.8e-5.
    """
    grid = phi.grid
    times, window = _free_window(m_t, t_window)
    kappa, cls = np.unique(grid.wavenumber_sq(), return_inverse=True)
    phases = None if out is None else _rows(out)[:, : kappa.size]
    spec = _windowed(propagator_stack(times, kappa, out=phases), window)
    unitary_dft(spec, (0,), out=spec)
    power = np.abs(spec)
    np.square(power, out=power)
    scale = _centring(grid.d, grid.n, grid.period, t_window, m_t)[1].flat[0]
    phi_sq = np.abs(to_frequency(phi).values.ravel()) ** 2
    power *= scale**2 * np.bincount(cls.ravel(), phi_sq, minlength=kappa.size)
    return PooledPower(grid, t_window, power)


@dataclass(frozen=True)
class FreeMember:
    """A free ensemble member: the windowed free evolution W(t) phi on m_t
    rows of [-t_window, t_window].

    A record, not a factory: lemma_diagnostics reads its pooled cells from
    free_cell_power and builds its spectrum, free_spectrum(phi, m_t,
    t_window), only for the shell reductions; with shells, both in a member
    stack of the call.
    """

    phi: ComplexField
    m_t: int
    t_window: float = 1.0


def _shell_reductions(F: SpaceTimeSpectrum, weights: np.ndarray, time_keep: np.ndarray):
    """Reductions of |u|, u the physical samples of F times a spatial multiplier.

    Returns max_t |u| over the rows time_keep marks and sum_t |u|^2 at each
    flattened grid point, and sum_x |u|^2 of each time row, without building
    u. Only the columns where the multiplier is nonzero take the time
    transform; the grid transforms then run on time blocks of about
    BLOCK_BYTES. This splits one unitary inverse over all d+1 axes without
    changing a bit: pocketfft scales the first (time) pass by the rounded
    ortho factor, and the zero columns add exact zeros in the grid passes.
    """
    grid = F.grid
    m_t, points = F.m_t, grid.num_points
    space, signed_scale = _centring(grid.d, grid.n, grid.period, F.t_window, m_t)
    mult = (weights * space).ravel()
    cols = np.flatnonzero(mult)
    # Fancy indexing of the row view gathers the columns with time running
    # fastest; np.take would copy a row-padded stack whole first. So the
    # real passes run on part.T, whose rows are the columns. Dividing by
    # s + 0j, numpy multiplies both parts by the rounded 1 / s.
    part = _rows(F.values)[:, cols]
    parts = _floats(part.T)
    parts *= mult[cols][:, None]
    parts *= np.repeat(1.0 / signed_scale, 2)
    # The time inverse runs in the gathered buffer, time still fastest.
    unitary_dft(part, (0,), inverse=True, out=part, scaled=False)
    parts = _floats(part.T)
    parts *= _ortho_factor(F.values.size)

    rows = _block_rows(grid)
    axes = tuple(range(1, grid.d + 1))
    # The grid inverse of each block runs in place on a row-padded work
    # block, zeroed and then given the support columns.
    block = stack_empty(rows, grid.shape)
    work = _rows(block)
    # Row 0 carries the running time sum: numpy's axis-0 sum adds rows in
    # order, so summing it with each block adds every row in the parent order.
    sq = np.empty((rows + 1, points))
    sq_time = np.zeros(points)
    max_time = np.zeros(points)
    row_sq = np.empty(m_t)
    for start in range(0, m_t, rows):
        count = min(rows, m_t - start)
        work[:count] = 0.0
        work[:count, cols] = part[start : start + count]
        u = block[:count]
        unitary_dft(u, axes, inverse=True, out=u, scaled=False)
        mag = sq[1 : count + 1]
        np.abs(_rows(u), out=mag)
        keep = time_keep[start : start + count]
        if keep.any():
            kept = mag if keep.all() else mag[keep]
            np.maximum(max_time, np.max(kept, axis=0), out=max_time)
        np.square(mag, out=mag)
        row_sq[start : start + count] = np.sum(mag.reshape(u.shape), axis=axes)
        sq[0] = sq_time
        np.sum(sq[: count + 1], axis=0, out=sq_time)
    return max_time, sq_time, row_sq


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

class _ShellKernel(NamedTuple):
    """Member-independent part of the (k, j) power tables on one grid."""

    block_bins: np.ndarray  # (tau row, |xi|^2 class) cell of every point of one time block
    abs_omega: np.ndarray  # |tau + |xi|^2| per cell
    upper: np.ndarray  # (class, j) table slot of the cell's upper bump j
    lower: np.ndarray  # slot of bump j - 1 (weight 0 where j = 0)
    upper_sq: np.ndarray  # eta_j^2 per cell
    lower_sq: np.ndarray  # eta_{j-1}^2 per cell
    shell_weights: np.ndarray  # (max_shell + 1, classes) eta_k(|xi|)^2
    table_shape: tuple  # (classes, J)


_kernel_lock = threading.Lock()


def _shell_kernel(F: SpaceTimeSpectrum | PooledPower) -> _ShellKernel:
    """The cached kernel of the spectrum's grid and window, built once even
    when several pool threads ask for it at the same time."""
    with _kernel_lock:
        return _build_shell_kernel(F.grid.d, F.grid.n, F.grid.period, F.m_t, F.t_window)


@lru_cache(maxsize=8)
def _build_shell_kernel(d: int, n: int, period: float, m_t: int, t_window: float) -> _ShellKernel:
    # Every weight depends on xi only through |xi|^2, so spectrum points are
    # first pooled into (tau, |xi|^2 class) cells. A cell at distance r from
    # the paraboloid lies in at most two adjacent bumps j - 1 and j, with
    # weights g = eta0(r / 2^(j-1)) and 1 - g: bit-identical to eta_shell,
    # since eta_j = 1 - eta_{j-1} on the overlap band.
    grid = GridSpec(d, n, period)
    kappa, cls = np.unique(grid.wavenumber_sq(), return_inverse=True)
    rows = min(_block_rows(grid), m_t)
    block_bins = (np.arange(rows)[:, None] * kappa.size + cls.ravel()[None, :]).ravel()
    tau = (math.pi / t_window) * np.fft.fftfreq(m_t, d=1.0 / m_t)
    r = np.abs(tau[:, None] + kappa[None, :]).ravel()
    # j is the least index with r <= PLATEAU 2^j, found against exact edges.
    top = math.ceil(math.log2(max(float(r.max()), PLATEAU) / PLATEAU)) + 1
    j = np.searchsorted(PLATEAU * 2.0 ** np.arange(top + 1), r)
    g = np.where(j > 0, eta0(np.ldexp(r, 1 - j)), 0.0)
    n_j = int(j.max()) + 1
    upper = np.tile(np.arange(kappa.size) * n_j, m_t) + j
    radius = np.sqrt(kappa)
    weights = np.array([eta_shell(k, radius) for k in range(grid.max_shell + 1)]) ** 2
    kern = _ShellKernel(
        block_bins, r, upper, upper - (j > 0), (1.0 - g) ** 2, g**2, weights, (kappa.size, n_j)
    )
    for arr in kern[:-1]:
        arr.flags.writeable = False
    return kern


def _cell_power(F: SpaceTimeSpectrum) -> PooledPower:
    """|F|^2 pooled into the (tau, |xi|^2 class) cells."""
    kern = _shell_kernel(F)
    # Every cell lies in one time row, so pooling |F|^2 block by block adds
    # the same terms in the same order.
    rows = kern.block_bins.size // F.grid.num_points
    q = np.empty((F.m_t, kern.table_shape[0]))
    values = _rows(F.values)
    for start in range(0, F.m_t, rows):
        p = np.abs(values[start : start + rows]).ravel()
        p *= p
        q[start : start + rows] = np.bincount(kern.block_bins[: p.size], p).reshape(-1, q.shape[1])
    return PooledPower(F.grid, F.t_window, q)


def _shell_tables(P: PooledPower, paraboloid_weight: bool = False) -> np.ndarray:
    """Stacked (power, diag, overlap) tables of F's pooled cells P, shape
    (3, max_shell + 1, J).

    power[k, j] = sum eta_k(|xi|)^2 eta_j(|omega|)^2 |F|^2, diag carries
    eta_j^4 and overlap eta_j^2 eta_{j+1}^2, each times the cell measure.
    paraboloid_weight attaches the N^sigma weight |1 / (omega + i)|^2.
    """
    kern = _shell_kernel(P)
    q = P.cells.reshape(-1)
    if paraboloid_weight:
        q = q / (kern.abs_omega**2 + 1.0)
    hi = q * kern.upper_sq
    lo = q * kern.lower_sq
    size = kern.table_shape[0] * kern.table_shape[1]

    def pair(upper_w, lower_w):
        return np.bincount(kern.upper, upper_w, size) + np.bincount(kern.lower, lower_w, size)

    stacked = np.stack(
        [
            pair(hi, lo),
            pair(hi * kern.upper_sq, lo * kern.lower_sq),
            np.bincount(kern.lower, lo * kern.upper_sq, size),
        ]
    ).reshape((3,) + kern.table_shape)
    return P.cell_measure * (kern.shell_weights @ stacked)


def _xk_values(power: np.ndarray) -> np.ndarray:
    """X_k for every shell: sum_j 2^(j/2) sqrt(power[k, j])."""
    return np.sum(2.0 ** (np.arange(power.shape[1]) / 2.0) * np.sqrt(power), axis=1)


def _section_sanity(diag: np.ndarray, overlap: np.ndarray, xk: np.ndarray) -> np.ndarray:
    """R1 for every shell: max_j ||eta_j(omega) f_k||_Xk / ||f_k||_Xk.

    Only adjacent paraboloid bumps overlap, so the norm of one j-section
    needs its diagonal sum and the overlap sums with bumps j - 1 and j + 1.
    """
    j = np.arange(diag.shape[1])
    half = 2.0 ** (j / 2.0)
    root = np.sqrt(overlap)
    section = half * np.sqrt(diag) + 2.0 ** ((j + 1) / 2.0) * root
    section[:, 1:] += (half * root)[:, :-1]
    best = np.max(section, axis=1)
    return np.divide(best, xk, out=np.zeros_like(best), where=xk > 0.0)


def _at_shell(values: np.ndarray, k: int) -> float:
    """Entry k of a per-shell array; shells past the grid's last carry nothing."""
    if k < 0:
        raise ValueError(f"shell index must be >= 0, got {k}")
    return float(values[k]) if k < values.size else 0.0


def _square_sum(xk: np.ndarray, sigma: float) -> float:
    """sqrt(sum_k 2^(2 sigma k) X_k^2), the whole-trajectory square sum."""
    return math.sqrt(sum(2.0 ** (2.0 * sigma * k) * x**2 for k, x in enumerate(xk)))


@lru_cache(maxsize=32)
def _fibration(d: int, n: int, period: float, m: tuple) -> tuple:
    """Fibration of the grid along the lattice vector m, read-only.

    Returns the fiber offset (m . i mod n) of every flattened grid point, the
    Riemann weight w_perp of one point within its fiber, and the spacing dr
    of the fiber offsets along m / |m|.
    """
    spacing = GridSpec(d, n, period).spacing
    offset = np.mod(np.tensordot(m, np.indices((n,) * d), axes=1), n).ravel()
    offset.flags.writeable = False
    m_len = math.sqrt(float(np.sum(np.asarray(m, dtype=np.float64) ** 2)))
    return offset, spacing ** (d - 1) * m_len, spacing / m_len


def fiber_norm(per_point: np.ndarray, e, grid: GridSpec, p, q) -> float:
    """Discrete mixed norm: L^q over the hyperplane fiber x time, L^p
    (1, 2 or inf) across the fiber offsets along a lattice-aligned
    direction e.

    per_point is the time reduction of one shell's samples at each flattened
    grid point (_shell_reductions): dt * sum_t |u|^2 for q = 2, max_t |u| for
    q = inf. The weights are the Riemann weights of the fibration, so
    p = q = 2 reproduces the space-time L2 norm for every lattice direction.
    Any other p or q raises ValueError.
    """
    if p not in (1, 2, np.inf) or q not in (2, np.inf):
        raise ValueError(f"fiber_norm takes p in (1, 2, inf) and q in (2, inf), got p={p}, q={q}")
    m = tuple(lattice_vector(e, grid.d).tolist())
    offset, w_perp, dr = _fibration(grid.d, grid.n, grid.period, m)
    if q == 2:
        inner = np.sqrt(w_perp * np.bincount(offset, weights=per_point, minlength=grid.n))
    else:
        inner = np.zeros(grid.n)
        np.maximum.at(inner, offset, per_point)
    if p == 1:
        return float(dr * np.sum(inner))
    if p == 2:
        return math.sqrt(dr * float(np.sum(inner**2)))
    return float(np.max(inner))


def _sigma_upper(F: SpaceTimeSpectrum, sigma: float, paraboloid_weight: bool = False) -> float:
    """Square sum of the spectrum's shell norms at sigma."""
    return _square_sum(_xk_values(_shell_tables(_cell_power(F), paraboloid_weight)[0]), sigma)


def fsigma_upper(F: SpaceTimeSpectrum, sigma: float) -> float:
    """Square-summed shell bound on the solution-space norm of a spectrum.

    The per-shell building block is the ell-1-in-j norm, which dominates the
    sharper decomposition norm from above, so this is a one-sided bound.
    """
    return _sigma_upper(F, sigma)


def nsigma_upper(F: SpaceTimeSpectrum, sigma: float) -> float:
    """Same square-summed bound with the inverse paraboloid weight attached."""
    return _sigma_upper(F, sigma, paraboloid_weight=True)


# ---------------------------------------------------------------------------
# Ratio diagnostics
# ---------------------------------------------------------------------------

def _direction_label(e):
    return "(" + " ".join(f"{c:+.3f}" for c in e) + ")"


def _ordered_map(fn, items) -> list:
    """fn over items on min(CPUs, len(items)) threads, in input order.

    CPUs counts those this process may run on (its affinity mask, where the
    platform has one), so the mask bounds the pool. Tasks start in input
    order and their results come back in it; the first exception in that
    order reaches the caller. With one thread the items run serially on the
    calling thread, otherwise on pool threads only.
    """
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # kept out of start-up

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class _MemberStacks:
    """The member stacks of one lemma_diagnostics call, lent to the free
    members with shells that it analyses.

    A stack is row-padded (spectral.stack_empty) with the most rows and
    points of those members. take() lends a spare stack, or makes one when
    every stack is lent, so no more exist than members run at once: one per
    pool worker. give() keeps a stack for the next member while one is
    still to start and drops it otherwise, so none is held beside the
    members after the last of them (the Picard member builds its own).
    """

    def __init__(self, members):
        self.rows = max(member.m_t for member in members)
        self.points = max(member.phi.grid.num_points for member in members)
        self.left = len(members)
        self.spare = []
        self.lock = threading.Lock()

    def take(self) -> np.ndarray:
        with self.lock:
            self.left -= 1
            if self.spare:
                return self.spare.pop()
        return stack_empty(self.rows, (self.points,))

    def give(self, stack: np.ndarray):
        with self.lock:
            if self.left > 0:
                self.spare.append(stack)


def _laid_in(stack: np.ndarray, rows: int, shape: tuple) -> np.ndarray:
    """(rows, *shape) stack with contiguous rows on the first rows and
    points of a (rows, points) member stack; a view, never a copy."""
    return stack[:rows, : math.prod(shape)].reshape((rows,) + tuple(shape), copy=False)


def _member_rows(name, member, directions, shells, sigmas, stacks):
    """Diagnostic rows for one ensemble member (thread-safe, pure).

    A factory member is called here, so its spectrum exists only while it
    is analysed; a FreeMember with shells is analysed in a stack lent by
    stacks, the call's _MemberStacks (None for members without shells).
    The shell samples are never built: every shell reads its reductions
    from _shell_reductions. One Fsigma row per sigma follows the shell
    rows. A bound-only member has no shells: it reports just those rows and
    is not skipped when it has no mass.
    """
    if not (isinstance(member, FreeMember) and shells):
        return _analysed(name, member, None, directions, shells, sigmas)
    stack = stacks.take()
    try:
        work = _laid_in(stack, member.m_t, member.phi.grid.shape)
        return _analysed(name, member, work, directions, shells, sigmas)
    finally:
        stacks.give(stack)


def _analysed(name, member, work, directions, shells, sigmas):
    """_member_rows with the member's work stack given (None without one).

    A FreeMember's pooled cells come in closed form, and its spectrum is
    built after them, only for the shell reductions; any other member's
    spectrum comes first, and its cells are pooled from it.
    """
    if isinstance(member, FreeMember):
        P = free_cell_power(member.phi, member.m_t, member.t_window, out=work)
    else:
        F = member()
        if not isinstance(F, SpaceTimeSpectrum):
            raise TypeError(f"member {name!r} is not a SpaceTimeSpectrum")
        P = _cell_power(F)
    # The total mass comes from the same pooled |F|^2 as the shell tables.
    total = math.sqrt(P.cell_measure * float(np.sum(P.cells)))
    if shells and total <= MASS_FLOOR:
        return [(name, -1, "skipped", "-", 0.0)]
    grid = P.grid
    d = grid.d
    power, diag, overlap = _shell_tables(P)
    del P  # only the tables read the cells; the shell reductions run without them
    xks = _xk_values(power)
    r1s = _section_sanity(diag, overlap, xks)
    rows = []
    if shells:
        if isinstance(member, FreeMember):
            F = free_spectrum(member.phi, member.m_t, member.t_window, out=work)
        # The rows within TIME_CUT of t = 0, where R3 takes its maximum;
        # the same for every shell.
        time_keep = np.abs(-F.t_window + F.dt * np.arange(F.m_t)) <= TIME_CUT
    for k in shells:
        xk = _at_shell(xks, k)
        if xk <= MASS_FLOOR * max(total, 1.0):
            continue
        # Per-point time reductions of |u_k|, shared by all lattice
        # directions; the time-slice ratio R4 sums the same squares over space.
        max_time, sq_time, row_sq = _shell_reductions(F, F.shell_weights(k), time_keep)
        slices = np.sqrt(grid.cell_volume * row_sq)
        r4 = float(np.max(slices)) / xk
        sq_time = F.dt * sq_time

        r2_best, r2_dir = 0.0, "-"
        r3_best, r3_dir = 0.0, "-"
        for e in directions:
            r2 = 2.0 ** (k / 2.0) * fiber_norm(sq_time, e, grid, np.inf, 2) / xk
            r3 = (
                2.0 ** (-(d - 1) * k / 2.0)
                / (k + 1.0) ** 2
                * fiber_norm(max_time, e, grid, 2, np.inf)
                / xk
            )
            if r2 > r2_best:
                r2_best, r2_dir = r2, _direction_label(e)
            if r3 > r3_best:
                r3_best, r3_dir = r3, _direction_label(e)

        rows += [
            (name, k, "Xk", "-", xk),
            (name, k, "R1", "-", _at_shell(r1s, k)),
            (name, k, "R2", r2_dir, r2_best),
            (name, k, "R3", r3_dir, r3_best),
            (name, k, "R4", "-", r4),
        ]

    rows += [(name, -1, "Fsigma", f"sigma={s:g}", _square_sum(xks, s)) for s in sigmas]
    return rows


def lemma_diagnostics(
    ensemble,
    directions: DirectionSet,
    shells,
    fsigma_sigma: float,
    bound_members=(),
) -> NormReport:
    """Ratio statistics probing k-uniformity of the directional estimates.

    For every ensemble member and shell k with mass, reports (relative to the
    shell norm) the local-smoothing ratio R2, the maximal-function ratio R3,
    the time-slice ratio R4, the j-section sanity R1 and the shell norm
    itself; per-(k, quantity) maxima are appended with id 'max'. shells
    is read once, so any iterable of shell indices will do. Every
    member also gets one whole-trajectory Fsigma row at fsigma_sigma. The
    ensemble is a sequence of (id, member) pairs; a member is a
    zero-argument factory returning a SpaceTimeSpectrum, or a FreeMember.
    bound_members are (id, member, sigmas) triples that report only their
    Fsigma rows, one per sigma, after the max rows.

    Every member is an independent task: the ensemble, then the bound-only
    members, run in that order on one pool (_ordered_map), and a factory is
    called once, on the thread that analyses it, so only the members in
    flight hold a spectrum. A FreeMember is a record: its pooled cells
    come in closed form (free_cell_power) and its spectrum is built only
    for the shell reductions. With shells, both are formed in a member
    stack that the call lends it (_MemberStacks): each pool worker, or the
    calling thread when the members run serially, holds at most one, and
    none outlives the call. A bound-only FreeMember forms its phases in
    arrays of its own.
    """
    members = [(str(name), member) for name, member in ensemble]
    if not members:
        raise EmptyEnsemble("ensemble is empty")
    shells = tuple(shells)
    free = [member for _, member in members if isinstance(member, FreeMember)]
    stacks = _MemberStacks(free) if free and shells else None
    tasks = [
        (name, member, directions, shells, (fsigma_sigma,), stacks) for name, member in members
    ]
    tasks += [
        (str(name), member, directions, (), tuple(s), None) for name, member, s in bound_members
    ]

    report = NormReport(
        kind="lemma_diagnostics",
        columns=["trajectory_id", "k", "quantity", "direction", "value"],
        meta={"num_members": len(members), "shells": ",".join(str(k) for k in shells)},
    )

    row_blocks = _ordered_map(lambda task: _member_rows(*task), tasks)
    maxima = {}
    for block in row_blocks[: len(members)]:
        for row in block:
            report.add(*row)
            if row[2] in ("R1", "R2", "R3", "R4"):
                key = (row[1], row[2])
                maxima[key] = max(maxima.get(key, 0.0), row[4])
    for (k, quantity), value in sorted(maxima.items()):
        report.add("max", k, quantity, "-", value)
    for block in row_blocks[len(members) :]:
        for row in block:
            report.add(*row)
    return report


def pooled_max_slope(report: NormReport, quantities=("R2", "R3", "R4")) -> float:
    """Slope of log2 of the per-k maximum pooled across the given ratios."""
    pooled = {}
    for row in report.rows:
        if row[0] == "max" and row[2] in quantities and row[4] > 0.0:
            pooled[row[1]] = max(pooled.get(row[1], 0.0), row[4])
    if len(pooled) < 2:
        raise ValueError("not enough shells with data")
    ks = np.array(sorted(pooled), dtype=np.float64)
    vals = np.array([math.log2(pooled[int(k)]) for k in ks])
    return float(np.polyfit(ks, vals, 1)[0])
