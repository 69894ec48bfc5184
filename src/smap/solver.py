"""Time integration: fixed-point construction on the chart side and an
independent structure-preserving sphere integrator, plus the stability
diagnostic comparing two sphere trajectories.

The chart solver iterates the integral (Duhamel) form of the flow,

    u_{n+1}(t) = W(t) phi  -  i * int_0^t W(t - s) N(u_n(s)) ds,

where W is the free propagator and N the derivative nonlinearity. The
stiff linear part is applied exactly as a frequency multiplier; the time
integral uses composite trapezoid weights on the stored samples, so the
quadrature is second order while the propagation itself is exact.
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
from .nonlinearity import TWO_THIRDS, DealiasPolicy, nonlinearity_spectrum
from .report import NormReport
from .spectral import (
    PHYSICAL,
    ComplexField,
    grid_axes,
    hsigma_norm,
    hsigma_norm_spectra,
    hsigma_norm_stack,
    laplacian_values,
    samples_of,
    spectrum_of,
    to_frequency,
)

COMPLEX_CHART = "complex_chart"
SPHERE = "sphere"

# Consecutive-difference ratio above which the iteration counts as stalled,
# and how many consecutive stalls trigger the failure.
STALL_RATIO = 0.95
STALL_COUNT = 3


def default_sigma0(d: int) -> float:
    """Regularity just above the (d+1)/2 threshold used throughout."""
    return (d + 1) / 2.0 + 0.1


@dataclass
class Trajectory:
    """Uniformly sampled evolution on [t0, t0+T]; snapshots share one grid.

    values has the time axis first: (M+1, *grid.shape) for complex_chart,
    (M+1, 3, *grid.shape) for sphere. spectra, when given, holds the unitary
    spatial spectra of values; the Picard iteration carries them between
    Duhamel maps.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray
    kind: str
    spectra: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if self.times.size > 1:
            diffs = np.diff(self.times)
            dt = diffs[0]
            if dt <= 0 or np.any(np.abs(diffs - dt) > 1e-14 * (1.0 + abs(dt))):
                raise ValueError("times must be strictly increasing and uniform")
        if self.kind == COMPLEX_CHART:
            expected = (self.times.size,) + self.grid.shape
        elif self.kind == SPHERE:
            expected = (self.times.size, 3) + self.grid.shape
        else:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")
        if self.spectra is not None and self.spectra.shape != expected:
            raise ValueError(f"spectra shape {self.spectra.shape}, expected {expected}")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    def __len__(self) -> int:
        return self.times.size

    def snapshot(self, m: int):
        t = float(self.times[m])
        if self.kind == COMPLEX_CHART:
            return ComplexField(self.grid, t, PHYSICAL, self.values[m].copy())
        return SphereField(self.grid, t, self.values[m].copy())

    def sup_hsigma(self, sigma: float) -> float:
        if self.kind != COMPLEX_CHART:
            raise ValueError("sup_hsigma applies to complex_chart trajectories")
        return float(np.max(hsigma_norm_stack(self.values, self.grid, sigma)))


def uniform_times(T: float, dt: float, t0: float = 0.0) -> np.ndarray:
    steps = T / dt
    m = int(round(steps))
    if abs(steps - m) > 1e-12 * max(1.0, abs(steps)):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return t0 + dt * np.arange(m + 1)


def propagator_stack(times: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Phases e^{-i t_m |xi|^2} stacked over times.

    Uniform time grids use a stepwise recurrence (one exp per grid instead of
    one per sample); the accumulated rounding stays below 1e-13 for the
    sample counts used here.
    """
    times = np.asarray(times, dtype=np.float64)
    flat = k2.ravel()
    out = np.empty((times.size, flat.size), dtype=np.complex128)
    diffs = np.diff(times)
    if times.size > 2 and np.all(np.abs(diffs - diffs[0]) < 1e-14 * (1 + abs(diffs[0]))):
        step = np.exp(-1j * diffs[0] * flat)
        out[0] = np.exp(-1j * times[0] * flat)
        for m in range(1, times.size):
            np.multiply(out[m - 1], step, out=out[m])
    else:
        for m, t in enumerate(times):
            out[m] = np.exp(-1j * t * flat)
    return out.reshape((times.size,) + k2.shape)


def _free_evolution(phi: ComplexField, times: np.ndarray) -> Trajectory:
    """W(t) phi on the given times, carrying its spectra."""
    times = np.asarray(times, dtype=np.float64)
    spectra = propagator_stack(times, phi.grid.wavenumber_sq()) * to_frequency(phi).values
    vals = samples_of(spectra, axes=grid_axes(spectra, phi.grid))
    return Trajectory(phi.grid, times, vals, COMPLEX_CHART, spectra=spectra)


def free_trajectory(phi: ComplexField, times: np.ndarray) -> Trajectory:
    """Free evolution W(t) phi sampled on the given times."""
    traj = _free_evolution(phi, times)
    traj.spectra = None
    return traj


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
    policy: DealiasPolicy = TWO_THIRDS,
) -> Trajectory:
    """One application of the integral map to a stored trajectory.

    Returns t_m -> W(t_m) phi - i * int_0^{t_m} W(t_m - s) N(prev(s)) ds with
    the integral evaluated by composite trapezoid over the stored samples and
    every term propagated exactly by the free-group multiplier. The
    nonlinearity is evaluated once over the whole time stack, from
    prev.spectra when present; the result carries its spectra.
    """
    if prev.kind != COMPLEX_CHART:
        raise ValueError("duhamel_map needs a complex_chart trajectory")
    if abs(prev.times[0]) > 1e-14:
        raise ValueError("the integral starts at t = 0; trajectory must too")
    if not phi.grid.same_as(prev.grid):
        raise GridMismatch("initial data and trajectory grids differ")

    grid = prev.grid
    space_axes = grid_axes(prev.values, grid)
    prev_hat = prev.spectra
    if prev_hat is None:
        prev_hat = spectrum_of(prev.values, axes=space_axes)
    nl_hat = nonlinearity_spectrum(prev.values, prev_hat, grid, policy)

    phi_hat = to_frequency(phi).values
    forward = propagator_stack(prev.times, grid.wavenumber_sq())  # e^{-i t_m |xi|^2}

    # u_hat = forward * (phi_hat - i dt (cumsum(g) - (g + g_0) / 2)) with the
    # integrand g = e^{+i s |xi|^2} nl_hat, formed in place; each temporary
    # is released once used, so few trajectory-sized arrays are alive at once.
    integrand = np.conj(forward)
    integrand *= nl_hat
    del nl_hat
    # Running sum row by row: np.cumsum along the time axis walks the stack
    # with a stride of one snapshot and is about 10x slower.
    u_hat = np.empty_like(integrand)
    u_hat[0] = integrand[0]
    for m in range(1, len(prev)):
        np.add(u_hat[m - 1], integrand[m], out=u_hat[m])
    integrand += integrand[0]
    np.multiply(0.5, integrand, out=integrand)
    u_hat -= integrand
    del integrand
    np.multiply(1j * prev.dt, u_hat, out=u_hat)
    np.subtract(phi_hat, u_hat, out=u_hat)
    np.multiply(forward, u_hat, out=u_hat)
    del forward

    vals = samples_of(u_hat, axes=space_axes)
    return Trajectory(grid, prev.times.copy(), vals, COMPLEX_CHART, spectra=u_hat)


def _sup_hsigma(spectra: np.ndarray, grid: GridSpec, sigma: float) -> float:
    return float(np.max(hsigma_norm_spectra(spectra, grid, sigma)))


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
    Iterates carry their spectra, so the norms need no transform; the
    returned fixed point does not keep them.
    """
    if T > 1.0 + 1e-12:
        raise ValueError(f"solve window must satisfy T <= 1, got {T}")
    if sigma0 is None:
        sigma0 = default_sigma0(phi.grid.d)
    times = uniform_times(T, dt)
    grid = phi.grid
    phi = to_frequency(phi)

    phi_norm = hsigma_norm(phi, sigma0)
    history = PicardHistory(sigma0=sigma0, phi_norm=phi_norm)
    if not math.isfinite(phi_norm):
        raise NoContraction(
            f"initial data has ||phi||_H{sigma0:.2f} = {phi_norm}", history=history
        )
    if phi_norm == 0.0:
        vals = np.zeros((times.size,) + grid.shape, dtype=np.complex128)
        return Trajectory(grid, times, vals, COMPLEX_CHART), history

    current = _free_evolution(phi, times)
    prev_diff = _sup_hsigma(current.spectra, grid, sigma0)
    stall = 0
    for n in range(1, max_iter + 1):
        nxt = duhamel_map(phi, current, policy)
        diff = _sup_hsigma(nxt.spectra - current.spectra, grid, sigma0)
        sup_norm = _sup_hsigma(nxt.spectra, grid, sigma0)
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

        current = nxt
        if diff < tol * phi_norm:
            current.spectra = None
            return current, history
        prev_diff = diff if diff > 0.0 else prev_diff

    raise MaxIterExceeded(
        f"no convergence to tol={tol} within {max_iter} iterations", history=history
    )


def midpoint_solve(
    s0: SphereField,
    T: float,
    dt: float,
    inner_tol: float = 1e-12,
    max_sweeps: int = 100,
) -> Trajectory:
    """Implicit midpoint integration of the sphere flow d_t s = s x Lap s.

    Each step solves s_{m+1} = s_m + dt * F((s_m + s_{m+1})/2) by warm-started
    fixed-point sweeps. The increment is orthogonal to the midpoint, so the
    pointwise norm is conserved up to the inner tolerance; snapshots are
    renormalized, a projection no larger than the inner residual.
    """
    times = uniform_times(T, dt)
    grid = s0.grid
    vals = np.empty((times.size, 3) + grid.shape)
    vals[0] = s0.values

    def rhs(v):
        return np.cross(v, laplacian_values(v, grid), axis=0)

    prev_step = None
    for m in range(times.size - 1):
        sm = vals[m]
        v = sm + prev_step if prev_step is not None else sm + dt * rhs(sm)
        converged = False
        for _ in range(max_sweeps):
            v_new = sm + dt * rhs(0.5 * (sm + v))
            change = float(np.max(np.abs(v_new - v)))
            v = v_new
            if not math.isfinite(change):
                raise InnerDivergence(
                    f"inner fixed point gave a non-finite change at step {m}; "
                    "check the data, or reduce dt or the grid resolution"
                )
            if change < inner_tol:
                converged = True
                break
        if not converged:
            raise InnerDivergence(
                f"inner fixed point stalled at step {m} (last change {change:.3e}); "
                "reduce dt or the grid resolution"
            )
        prev_step = v - sm
        vals[m + 1] = v / np.sqrt(np.sum(v**2, axis=0))
    return Trajectory(grid, times, vals, SPHERE)


def gronwall_diagnostic(traj: Trajectory, other: Trajectory) -> NormReport:
    """Energy-growth diagnostic for the difference of two sphere trajectories.

    Computes E(t) = ||q||_L2^2 + sum_l ||d_l q||_L2^2 for q = other - traj and
    the empirical growth rate dE/dt / E from a five-point fourth-order stencil
    on interior samples; the sup of the rate is reported as the empirical
    Gronwall constant. Identical trajectories (E < 1e-28 throughout) are
    reported with a degenerate-input flag instead of a rate.
    """
    if traj.kind != SPHERE or other.kind != SPHERE:
        raise ValueError("gronwall_diagnostic expects sphere trajectories")
    if not traj.grid.same_as(other.grid):
        raise GridMismatch("trajectories live on different grids")
    if traj.times.shape != other.times.shape or np.any(
        np.abs(traj.times - other.times) > 1e-12
    ):
        raise ValueError("trajectories must share their time grid")

    grid = traj.grid
    q = other.values - traj.values  # (M+1, 3, *grid)
    space_axes = tuple(range(2, 2 + grid.d))
    q_hat = spectrum_of(q, axes=space_axes)
    weight = 1.0 + grid.wavenumber_sq()  # 1 + |xi|^2 = L2 + gradient energy
    energy = grid.cell_volume * np.sum(
        weight * np.abs(q_hat) ** 2, axis=(1,) + space_axes
    )

    report = NormReport(
        kind="gronwall",
        columns=["t", "energy", "rate"],
        meta={"dt": traj.dt},
    )
    degenerate = bool(np.all(energy < 1e-28))
    report.meta["identical_trajectories"] = degenerate
    if degenerate:
        report.meta["flag"] = DegenerateInput.__name__
        for m, t in enumerate(traj.times):
            report.add(float(t), float(energy[m]), 0.0)
        return report

    dt = traj.dt
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
    for m, t in enumerate(traj.times):
        report.add(float(t), float(energy[m]), float(rate[m]))
    return report
