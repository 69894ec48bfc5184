"""Time integration: fixed-point construction on the chart side and an
independent structure-preserving sphere integrator, plus the growth report
of the difference energy of two sphere solutions.

The sphere integrator is implicit midpoint. midpoint_snapshots steps it
one snapshot at a time, so a consumer that reads each snapshot once holds
no stack; a difference energy is taken per snapshot pair
(difference_energy) and its series goes to gronwall_report.

The chart solver iterates the integral (Duhamel) form of the flow,

    u_{n+1}(t) = W(t) phi  -  i * int_0^t W(t - s) N(u_n(s)) ds,

where W is the free propagator and N the derivative nonlinearity. The
stiff linear part is applied exactly as a frequency multiplier; the time
integral uses composite trapezoid weights on the stored samples, so the
quadrature is second order while the propagation itself is exact. N is
dealiased, so outside the dealias band every iterate is exactly the free
flow W(t) phi: the iterate keeps only its band of spatial spectra (a
Trajectory), each map overwrites it in place, and its physical samples are
streamed block by block. A solve allocates one workspace
(spectral.ComplexWork) of one block, and every map, nonlinearity and norm
of the solve writes its temporaries into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    GridMismatch,
    InnerDivergence,
    MaxIterExceeded,
    NoContraction,
)
from .geometry import SphereField
from .grid import GridSpec
from .nonlinearity import NO_DEALIAS, TWO_THIRDS, DealiasPolicy, nonlinearity_spectrum, sphere_rhs
from .report import NormReport
from .spectral import (
    FREQUENCY,
    ComplexField,
    ComplexWork,
    complex_work,
    hsigma_energy_real,
    hsigma_norm,
    hsigma_norm_spectra,
    real_work,
    to_frequency,
    unitary_dft,
)

# Consecutive-difference ratio above which the iteration counts as stalled,
# and how many consecutive stalls trigger the failure.
STALL_RATIO = 0.95
STALL_COUNT = 3

# Bytes of snapshots the Duhamel map and the Picard norms handle per block
# (2 snapshots at d = 3, n = 32; 16 at d = 2, n = 64). Results do not
# depend on it; it bounds the temporaries of one Picard iteration. At
# d = 2, n = 64, blocks of 256 KiB to 1 MiB ran the Picard solves about 20%
# faster than 4 MiB blocks; at d = 3, n = 32 the size made no difference.
BLOCK_BYTES = 1 << 20

# Inner fixed-point sweeps a midpoint step may take before it counts as stalled.
MAX_SWEEPS = 100


def default_sigma0(d: int) -> float:
    """Regularity just above the (d+1)/2 threshold used throughout."""
    return (d + 1) / 2.0 + 0.1


@dataclass
class Trajectory:
    """Uniformly sampled chart evolution on [t0, t0+T]; snapshots share one grid.

    values has the time axis first and holds the unitary spatial spectra of
    the snapshots, only the modes the dealias rule keeps, its band
    (NO_DEALIAS, the default, keeps every mode): values is
    (M+1, *band shape), and every other mode of row m is the free flow
    e^{-i t_m |xi|^2} free of the spectrum free, as the Duhamel map leaves it.
    picard_solve keeps its iterate and returns its fixed point in this form.

    Physical samples come from sample_blocks, a stream that holds one block
    of rows beside the stored values (and, for a partial band, the
    propagator phases of the block); snapshot(m) rebuilds one spectrum.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray
    dealias: DealiasPolicy = NO_DEALIAS
    free: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if self.times.size > 1:
            diffs = np.diff(self.times)
            dt = diffs[0]
            if dt <= 0 or np.any(np.abs(diffs - dt) > 1e-14 * (1.0 + abs(dt))):
                raise ValueError("times must be strictly increasing and uniform")
        box = self.dealias.band(self.grid).shape
        if box != self.grid.shape and self.free is None:
            raise ValueError("a trajectory with a partial band needs its free spectrum")
        expected = (self.times.size,) + box
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    def __len__(self) -> int:
        return self.times.size

    def _blocks(self, buffer=None):
        """(start, forward) per block of _block_rows rows, forward the rows'
        propagator phases, from the recurrence of _propagator_blocks (written
        into buffer if given)."""
        rows = _block_rows(self.grid)
        blocks = _propagator_blocks(self.times, self.grid.wavenumber_sq(), rows, buffer=buffer)
        return zip(range(0, len(self), rows), blocks)

    def _rebuild_blocks(self):
        """(start, forward) per block as _blocks, but forward is None where
        every mode is stored: those rows are copies of values, no phases."""
        if self.dealias.band(self.grid).shape != self.grid.shape:
            return self._blocks()
        return ((start, None) for start in range(0, len(self), _block_rows(self.grid)))

    def _fill(self, start: int, forward, out: np.ndarray) -> np.ndarray:
        """Full spectra of the rows start.., written into out; forward holds
        those rows' propagator phases (unused, and may be None, when every
        mode is stored).

        The free flow forward * free is formed on the whole block and the
        band copied over it: a product on the band's complement slabs only
        was slower (d = 3, n = 32, 2 rows: 173 against 93 us per block on
        one core of a 2-vCPU virtual machine), as numpy walks the narrow
        slabs in runs of 11 values."""
        band = self.dealias.band(self.grid)
        if band.shape != self.grid.shape:
            np.multiply(forward, self.free, out=out)
        return band.scatter(self.values[start : start + len(out)], out)

    def sample_blocks(self, first: int = 0, stop: int | None = None, out=None):
        """Yield (start, samples): the physical rows first..stop-1 (all rows
        by default) in consecutive blocks of at most _block_rows rows.

        Each block's spectra are rebuilt and inverted in one buffer, so a
        yielded block is overwritten by the next one; given out, a
        (stop - first, *grid.shape) stack with contiguous rows, they are
        rebuilt and inverted in out's own rows, and each block is a row
        slice of out. Either way the rows carry the bits of one inverse of
        the whole stack.
        """
        stop = len(self) if stop is None else stop
        axes = tuple(range(1, self.grid.d + 1))
        rows = _block_rows(self.grid)
        own = out is None
        if own:
            out = np.empty((min(rows, stop - first),) + self.grid.shape, np.complex128)
        for start, forward in self._rebuild_blocks():
            if start >= stop:
                return
            lo, hi = max(start, first), min(start + rows, stop)
            if lo >= hi:
                continue
            dest = out[: hi - lo] if own else out[lo - first : hi - first]
            if forward is not None:
                forward = forward[lo - start : hi - start]
            block = self._fill(lo, forward, dest)
            yield lo, unitary_dft(block, axes, inverse=True, out=block)

    def snapshot(self, m: int) -> ComplexField:
        """Spectrum of snapshot m: the propagator recurrence runs to row m,
        and that row alone is rebuilt (a copy where every mode is stored)."""
        t = float(self.times[m])
        m = range(len(self))[m]
        row = np.empty((1,) + self.grid.shape, dtype=np.complex128)
        for start, forward in self._rebuild_blocks():
            if m < start + _block_rows(self.grid):
                if forward is not None:
                    forward = forward[m - start : m - start + 1]
                self._fill(m, forward, row)
                return ComplexField(self.grid, t, FREQUENCY, row[0])


def uniform_times(T: float, dt: float, t0: float = 0.0) -> np.ndarray:
    steps = T / dt
    m = int(round(steps))
    if abs(steps - m) > 1e-12 * max(1.0, abs(steps)):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return t0 + dt * np.arange(m + 1)


def _block_rows(grid: GridSpec) -> int:
    """Snapshots per block of the Duhamel map: about BLOCK_BYTES of complex samples."""
    return max(1, BLOCK_BYTES // (16 * grid.num_points))


def _propagator_blocks(times: np.ndarray, k2: np.ndarray, rows: int, buffer=None):
    """Phases e^{-i t_m |xi|^2} for consecutive blocks of ``rows`` times.

    Uniform grids of more than two times use a stepwise recurrence (one exp
    per grid instead of one per sample) that runs on across blocks: the
    first row of a block is the previous block's last row times the step,
    so every row is the same whatever the block size. Other grids take one
    exp per row. Given buffer, a (rows, *k2.shape) stack with contiguous
    rows, every block is written into it (its row 0 before the carried last
    row is overwritten), so a block is valid until the next one is drawn;
    otherwise each is a new array.
    """
    times = np.asarray(times, dtype=np.float64)
    flat = k2.ravel()
    diffs = np.diff(times)
    uniform = times.size > 2 and np.all(np.abs(diffs - diffs[0]) < 1e-14 * (1 + abs(diffs[0])))
    if uniform:
        step = np.exp(-1j * diffs[0] * flat)
    last = None
    for start in range(0, times.size, rows):
        count = min(rows, times.size - start)
        if buffer is not None:
            block = buffer[:count].reshape(count, flat.size, copy=False)
        else:
            block = np.empty((count, flat.size), dtype=np.complex128)
        for i, t in enumerate(times[start : start + count]):
            if not uniform or start + i == 0:
                block[i] = np.exp(-1j * t * flat)
            else:
                np.multiply(block[i - 1] if i else last, step, out=block[i])
        last = block[-1]
        yield block.reshape((count,) + k2.shape)


def propagator_stack(times: np.ndarray, k2: np.ndarray, out=None) -> np.ndarray:
    """Phases e^{-i t_m |xi|^2} stacked over times, written into out if given.

    out is a (times, *k2.shape) stack with contiguous rows, for example a
    spectral.stack_empty one.

    Uniform grids use the recurrence of _propagator_blocks. Its largest
    component error against a long-double reference at the same times is
    7.9e-15 and 7.3e-15 on the 129-row Picard windows of the d = 2, n = 64
    and d = 3, n = 32 solves (max |t |xi|^2| = 64 and 24), 1.3e-13 on the
    321-row Picard window of the `norms` ensemble (1024), and 5.7e-11 on
    the 1281-row `norms` window (2048), where one exp per row gives
    1.1e-13. Most of the last comes from the step: with t0 = -1,
    times[1] - times[0] is 2.2e-17 off the exact 2/1280. The phases are
    kept as they are until the `norms` baseline is re-recorded with more
    accurate ones.
    """
    times = np.asarray(times, dtype=np.float64)
    return next(_propagator_blocks(times, k2, max(times.size, 1), buffer=out))


def free_trajectory(phi: ComplexField, times: np.ndarray) -> Trajectory:
    """Free evolution W(t) phi sampled on the given times: the propagated
    spectra e^{-i t_m |xi|^2} phi_hat, every mode kept."""
    times = np.asarray(times, dtype=np.float64)
    spectra = propagator_stack(times, phi.grid.wavenumber_sq())
    spectra *= to_frequency(phi).values
    return Trajectory(phi.grid, times, spectra)


@dataclass
class PicardRecord:
    n: int
    sup_norm: float
    diff_norm: float
    ratio: float


@dataclass
class PicardHistory:
    """Per-iteration convergence record of the integral-map iteration."""

    sigma0: float
    phi_norm: float
    records: list = field(default_factory=list)

    def append(self, n: int, sup_norm: float, diff_norm: float, ratio: float):
        self.records.append(PicardRecord(n, sup_norm, diff_norm, ratio))

    @property
    def ratios(self):
        return [r.ratio for r in self.records]

    def to_report(self) -> NormReport:
        rep = NormReport(
            kind="picard_history",
            columns=["n", "sup_hsigma0", "diff_hsigma0", "ratio"],
            meta={"sigma0": self.sigma0, "phi_hsigma0": self.phi_norm},
        )
        for r in self.records:
            rep.add(r.n, r.sup_norm, r.diff_norm, r.ratio)
        return rep


def duhamel_map(
    phi: ComplexField,
    prev: Trajectory,
    policy: DealiasPolicy,
    sigma: float,
    work: ComplexWork | None = None,
):
    """One application of the integral map, written over the trajectory.

    Overwrites prev with t_m -> W(t_m) phi - i * int_0^{t_m} W(t_m - s)
    N(prev(s)) ds, the integral evaluated by composite trapezoid over the
    stored samples and every term propagated exactly by the free-group
    multiplier, and returns the pair
    (max_m ||image_m - prev_m||_{H^sigma}, max_m ||image_m||_{H^sigma}).
    The image keeps the dealias band of prev with free spectrum phi_hat:
    outside the dealias mask it is exactly W(t_m) phi, so a partial band
    must be policy's own.

    The time axis is walked in blocks of _block_rows(grid) snapshots: each
    block's rows are rebuilt in full (Trajectory._fill), inverted once for
    the nonlinearity and put through one batched nonlinearity. The
    propagator recurrence, the running sum and the first integrand row carry
    over between blocks, so the image does not depend on the block size. A
    block is read before it is written, and later blocks read only the
    carried running sum and g_0. Both norms are taken on the full rows
    before each block's band is written. Every block temporary lives in
    work (spectral.complex_work of one block; a new one without it): the
    rows in work.full, their phases in work.phases, their samples in
    work.samples, the integrand in work.tmp and the image in work.result,
    where the nonlinearity leaves it.
    """
    if abs(prev.times[0]) > 1e-14:
        raise ValueError("the integral starts at t = 0; trajectory must too")
    if not phi.grid.same_as(prev.grid):
        raise GridMismatch("initial data and trajectory grids differ")

    grid = prev.grid
    space_axes = tuple(range(1, grid.d + 1))
    band = prev.dealias.band(grid)
    if band.shape != grid.shape and prev.dealias != policy:
        raise ValueError(
            f"a trajectory that keeps the {prev.dealias.rule} band maps under that rule only"
        )
    phi_hat = to_frequency(phi).values
    diffs, sups = np.empty(len(prev)), np.empty(len(prev))
    rows = _block_rows(grid)
    if work is None:
        work = complex_work((min(rows, len(prev)),) + grid.shape)
    # u_hat = forward * (phi_hat - i dt (S_m - (g_m + g_0) / 2)) with
    # forward = e^{-i t_m |xi|^2}, the integrand g = e^{+i s |xi|^2} nl_hat
    # and its running sum S_m. Carried between blocks: the raw S of the
    # previous row and a copy of g_0. The block's u_hat is built in the
    # buffer of its nl_hat.
    running, first = np.empty((2,) + grid.shape, np.complex128)
    for start, forward in prev._blocks(work.phases):
        block = prev._fill(start, forward, work.full[: len(forward)])
        samples = unitary_dft(block, space_axes, inverse=True, out=work.samples[: len(block)])
        u_hat = nonlinearity_spectrum(samples, block, grid, policy, work)
        integrand = np.conjugate(forward, out=work.tmp[: len(block)])
        integrand *= u_hat
        # Running sum row by row: np.cumsum along the time axis walks the
        # stack with a stride of one snapshot and is about 10x slower.
        if start == 0:
            first[...] = integrand[0]
            u_hat[0] = integrand[0]
        else:
            np.add(running, integrand[0], out=u_hat[0])
        for m in range(1, len(u_hat)):
            np.add(u_hat[m - 1], integrand[m], out=u_hat[m])
        running[...] = u_hat[-1]
        integrand += first
        np.multiply(0.5, integrand, out=integrand)
        u_hat -= integrand
        np.multiply(1j * prev.dt, u_hat, out=u_hat)
        np.subtract(phi_hat, u_hat, out=u_hat)
        np.multiply(forward, u_hat, out=u_hat)
        diff = np.subtract(u_hat, block, out=integrand)
        diffs[start : start + rows] = hsigma_norm_spectra(diff, grid, sigma, work)
        sups[start : start + rows] = hsigma_norm_spectra(u_hat, grid, sigma, work)
        band.gather(u_hat, prev.values[start : start + rows])
    prev.free = phi_hat
    return float(np.max(diffs)), float(np.max(sups))


def picard_solve(
    phi: ComplexField,
    T: float,
    dt: float,
    tol: float = 1e-10,
    max_iter: int = 40,
    sigma0: float | None = None,
    policy: DealiasPolicy = TWO_THIRDS,
):
    """Iterate the integral map to its fixed point, tracking contraction.

    Starts from the free evolution and stops once the sup-in-time H^sigma0
    distance between consecutive iterates drops below tol * ||phi||_{H^sigma0}.
    Raises NoContraction after three consecutive ratios above 0.95 (the
    smallness regime was left) or at the first non-finite norm, and
    MaxIterExceeded past the budget. The smallness threshold itself is
    empirical and is probed by amplitude sweeps rather than enforced up front.

    The iterate is a Trajectory that keeps only policy's band (28% of the
    modes at d = 3 under the 2/3 rule, 45% at d = 2; all of them under
    none) with free spectrum phi_hat, and each map overwrites it in place
    (duhamel_map), returning the two norms. The fixed
    point is returned in that form: a consumer streams its physical samples
    (Trajectory.sample_blocks) or rebuilds the rows it needs.
    """
    if T > 1.0 + 1e-12:
        raise ValueError(f"solve window must satisfy T <= 1, got {T}")
    if sigma0 is None:
        sigma0 = default_sigma0(phi.grid.d)
    times = uniform_times(T, dt)
    grid = phi.grid
    # The fixed point keeps this spectrum: a copy the caller cannot change.
    phi = to_frequency(phi).copy()

    phi_norm = hsigma_norm(phi, sigma0)
    history = PicardHistory(sigma0=sigma0, phi_norm=phi_norm)
    if not math.isfinite(phi_norm):
        raise NoContraction(
            f"initial data has ||phi||_H{sigma0:.2f} = {phi_norm}", history=history
        )
    band = policy.band(grid)
    values = np.empty((times.size,) + band.shape, dtype=np.complex128)
    current = Trajectory(grid, times, values, policy, phi.values)
    # One workspace of one block for the whole solve. The first iterate is
    # the free flow, band and all; its norms are taken on the full rows of
    # each block.
    work = complex_work((min(_block_rows(grid), times.size),) + grid.shape)
    norms = np.empty(times.size)
    for start, forward in current._blocks(work.phases):
        block = np.multiply(forward, phi.values, out=work.full[: len(forward)])
        norms[start : start + len(forward)] = hsigma_norm_spectra(block, grid, sigma0, work)
        band.gather(block, values[start : start + len(forward)])
    del block
    if phi_norm == 0.0:
        return current, history

    prev_diff = float(np.max(norms))
    stall = 0
    for n in range(1, max_iter + 1):
        diff, sup_norm = duhamel_map(phi, current, policy, sigma0, work)
        ratio = diff / prev_diff if prev_diff > 0.0 else 0.0
        history.append(n, sup_norm, diff, ratio)

        if not (math.isfinite(diff) and math.isfinite(sup_norm)):
            raise NoContraction(
                f"iterate {n} is not finite (sup norm {sup_norm}, difference {diff})",
                history=history,
            )
        if not math.isfinite(ratio) or ratio > STALL_RATIO:
            stall += 1
            if stall >= STALL_COUNT:
                raise NoContraction(
                    f"ratio exceeded {STALL_RATIO} for {STALL_COUNT} consecutive "
                    f"iterations (||phi||_H{sigma0:.2f} = {phi_norm:.3e} too large)",
                    history=history,
                )
        else:
            stall = 0

        if diff < tol * phi_norm:
            return current, history
        prev_diff = diff if diff > 0.0 else prev_diff

    raise MaxIterExceeded(
        f"no convergence to tol={tol} within {max_iter} iterations", history=history
    )


def midpoint_snapshots(
    s0: SphereField,
    T: float,
    dt: float,
    inner_tol: float = 1e-12,
):
    """Implicit midpoint integration of the sphere flow d_t s = s x Lap s,
    one snapshot at a time.

    Yields (t_m, s_m, sweeps_m) for m = 0..M: the time, the (3, *grid)
    snapshot, and the inner sweeps its step took (0 for the initial data).
    A yielded array is not written to again, so a consumer may keep it or
    drop it; only the sweep buffers and the current snapshot stay alive.

    Each step solves s_{m+1} = s_m + dt * F((s_m + s_{m+1})/2) by fixed-point
    sweeps that stop once the largest change falls below inner_tol. A sweep
    forms the doubled midpoint w = s_m + v and takes
    v <- s_m + w x ((dt/4) Lap w), which is s_m + dt F(w/2): one sphere_rhs
    with the Laplacian multiplier -(dt/4)|xi|^2 and no halving or scaling
    pass (bit-identical to the plain form when dt is a power of two). The
    first step starts from s_0 + dt F(s_0); step m >= 1 extrapolates the
    last two increments linearly, v = s_m + 2 step_m - step_{m-1}, where
    step_m = v_m - s_{m-1} and step_0 is the first step's start
    increment. The increment is orthogonal to the midpoint, so the
    pointwise norm is conserved up to the inner tolerance; snapshots are
    renormalized, a projection no larger than the inner residual.

    The sweeps and the renormalization write into buffers the generator
    allocates once (the six below and one spectral.real_work), so a step
    allocates only the snapshot it yields.
    """
    times = uniform_times(T, dt)
    grid = s0.grid
    sm = s0.values
    yield float(times[0]), sm, 0

    scale = 0.25 * dt
    # Sweep buffers: the doubled midpoint, the current and candidate
    # iterates, their difference, and the last two increments.
    mid, v, cand, diff, step, prev = (np.empty_like(sm) for _ in range(6))
    work = real_work(sm.shape, grid)
    for m in range(times.size - 1):
        if m == 0:
            sphere_rhs(sm, grid, out=step, work=work)
            step *= dt
            np.add(sm, step, out=v)
        else:
            np.multiply(2.0, step, out=v)
            v -= prev
            v += sm
        for sweeps in range(1, MAX_SWEEPS + 1):
            np.add(sm, v, out=mid)
            sphere_rhs(mid, grid, out=cand, scale=scale, work=work)
            cand += sm
            np.subtract(cand, v, out=diff)
            np.abs(diff, out=diff)
            change = float(np.max(diff))
            v, cand = cand, v
            if not math.isfinite(change):
                raise InnerDivergence(
                    f"inner fixed point gave a non-finite change at step {m}; "
                    "check the data, or reduce dt or the grid resolution"
                )
            if change < inner_tol:
                break
        else:
            raise InnerDivergence(
                f"inner fixed point stalled at step {m} (last change {change:.3e}); "
                "reduce dt or the grid resolution"
            )
        step, prev = prev, step
        np.subtract(v, sm, out=step)
        norm = np.sum(np.square(v, out=work.lap), axis=0, out=work.tmp)
        np.sqrt(norm, out=norm)
        # One component at a time: a broadcast division buffers its operands.
        sm = np.empty_like(v)
        for snap, comp in zip(sm, v):
            np.divide(comp, norm, out=snap)
        yield float(times[m + 1]), sm, sweeps


def difference_energy(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> float:
    """H^1 energy of q = b - a for one pair of (3, *grid) sphere snapshots.

    The weight 1 + |xi|^2 gives the L2 plus the gradient energy of q,
    summed over the components.
    """
    return float(np.sum(hsigma_energy_real(b - a, grid, 1.0)))


def gronwall_report(times: np.ndarray, energy) -> NormReport:
    """Growth report of a difference energy E sampled on uniform times.

    The empirical growth rate dE/dt / E comes from a five-point fourth-order
    stencil on interior samples; the sup of the rate is reported as the
    empirical Gronwall constant. Identical trajectories (E < 1e-28
    throughout) are reported with a degenerate-input flag instead of a rate.
    """
    times = np.asarray(times, dtype=np.float64)
    energy = np.asarray(energy, dtype=np.float64)
    dt = float(times[1] - times[0]) if times.size > 1 else 0.0
    report = NormReport(
        kind="gronwall",
        columns=["t", "energy", "rate"],
        meta={"dt": dt},
    )
    degenerate = bool(np.all(energy < 1e-28))
    report.meta["identical_trajectories"] = degenerate
    if degenerate:
        report.meta["flag"] = DegenerateInput.__name__
        for m, t in enumerate(times):
            report.add(float(t), float(energy[m]), 0.0)
        return report

    rate = np.full(energy.shape, np.nan)
    if energy.size >= 5:
        de = (
            -energy[4:] + 8.0 * energy[3:-1] - 8.0 * energy[1:-3] + energy[:-4]
        ) / (12.0 * dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate[2:-2] = de / energy[2:-2]
    valid = np.isfinite(rate) & (energy > 1e-28)
    c_s = float(np.max(rate[valid])) if np.any(valid) else float("nan")
    report.meta["gronwall_constant"] = c_s
    for m, t in enumerate(times):
        report.add(float(t), float(energy[m]), float(rate[m]))
    return report
