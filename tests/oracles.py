"""Independent oracle computations for the derived test expectations.

Every function here recomputes a quantity through a route that does not
share code with the implementation it checks: dense-grid quadrature with
raw numpy FFTs, scipy.fft's public transforms (spectrum_of, samples_of),
closed-form evaluation, refined quadrature, or explicit finite
differences. Tests compare library output against these values.
"""

import math

import numpy as np
import scipy.fft

from smap.geometry import SphereField, stereo_lift, stereo_project
from smap.grid import GridSpec
from smap.nonlinearity import nonlinearity_spectrum
from smap.solver import _block_rows, free_trajectory, propagator_stack, uniform_times
from smap.spacetime import window_profile
from smap.spectral import (
    PHYSICAL,
    ComplexField,
    eta_shell,
    hsigma_norm,
    hsigma_norm_spectra,
    to_frequency,
)


def spectrum_of(values, axes=None):
    """Unitary forward DFT over the given axes (all by default), by scipy.fft's
    public fftn."""
    return scipy.fft.fftn(values, axes=axes, norm="ortho")


def samples_of(spectrum, axes=None, scaled=True):
    """Unitary inverse DFT over the given axes (all by default), by scipy.fft's
    public ifftn; scaled=False leaves out the 1/sqrt(points) factor."""
    return scipy.fft.ifftn(spectrum, axes=axes, norm="ortho" if scaled else "forward")


def mesh(grid):
    x = grid.axis_coordinates()
    return np.meshgrid(*([x] * grid.d), indexing="ij")


def plane_wave(grid, k0, amp=1.0, time=0.0):
    X = mesh(grid)
    vals = amp * np.exp(1j * sum(k0[a] * X[a] for a in range(grid.d)))
    return ComplexField(grid, time, PHYSICAL, vals)


def rotation_about_e1(angle):
    """The rotation of R^3 by angle about the first axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_about(axis, angle):
    """The rotation of R^3 by angle about a unit axis (Rodrigues' formula)."""
    x, y, z = axis
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * (cross @ cross)


def moebius(rot, u):
    """M_R(u) = stereo_project(R stereo_lift(u)): the chart image of the
    target rotation R (a 3x3 matrix) applied to the physical field u."""
    s = stereo_lift(u)
    return stereo_project(SphereField(u.grid, u.time, np.tensordot(rot, s.values, 1)))


def rotated_spin_wave(grid, k, amp, rot, time):
    """Chart samples of the rotated spin wave R s at time t, exact for the flow.

    The spin wave s = (sin th cos p, sin th sin p, cos th), p = k . x - w t,
    solves s_t = s x Lap s for every lattice k with w = |k|^2 cos th; in the
    chart it is the plane wave u = A e^{i p}, A = tan(th / 2), so
    w = |k|^2 (1 - A^2) / (1 + A^2). A rotation R of the sphere maps
    solutions to solutions, since R (s x Lap s) = R s x Lap R s; the chart
    image of R s, stereo_project(R stereo_lift(u)), carries every harmonic
    of k.
    """
    k = np.asarray(k, dtype=np.float64)
    w = float(np.sum(k**2)) * (1.0 - amp**2) / (1.0 + amp**2)
    wave = plane_wave(grid, k, amp, time)
    wave.values *= np.exp(-1j * w * time)
    return moebius(rot, wave)


def hsigma_quadrature(sample_fn, d, n, period, sigma):
    """H^sigma norm of a closed-form field by raw-numpy dense-grid quadrature."""
    grid = GridSpec(d, n, period)
    vals = sample_fn(*mesh(grid))
    spec = np.fft.fftn(vals) / np.sqrt(grid.num_points)
    weights = (1.0 + grid.wavenumber_sq()) ** sigma
    return float(np.sqrt(grid.cell_volume * np.sum(weights * np.abs(spec) ** 2)))


def free_gaussian_evolution(x_axes, t, width):
    """Closed-form free evolution of exp(-|x|^2/(2 w^2)), axis-separable."""
    a = width**2 / 2.0  # exp(-|x|^2/(4a))
    factor = (a / (a + 1j * t)) ** 0.5
    out = 1.0
    for x in x_axes:
        out = out * factor * np.exp(-(x**2) / (4.0 * (a + 1j * t)))
    return out


def free_gaussian_quadrature(x_axes, t, width, xi_max, xi_step):
    """Free evolution of the Gaussian by direct refined Fourier quadrature.

    Separable per axis: (2 pi)^(-1/2) * integral of e^{i x xi} e^{-i t xi^2}
    phi_hat(xi) d xi with phi_hat the closed-form 1-d Gaussian transform.
    """
    xi = np.arange(-xi_max, xi_max + xi_step / 2, xi_step)
    phi_hat = width * np.exp(-(width**2) * xi**2 / 2.0)  # unitary-convention FT
    kernel = phi_hat * np.exp(-1j * t * xi**2) * xi_step / np.sqrt(2.0 * np.pi)
    out = 1.0
    for x in x_axes:
        out = out * (np.exp(1j * np.outer(x, xi)) @ kernel)
    return out


def gradient_fd(values, axis, spacing):
    """Sixth-order centered finite-difference derivative along a grid axis."""
    weights = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    out = np.zeros_like(values)
    for offset, w in zip(range(-3, 4), weights):
        if w != 0.0:
            out += w * np.roll(values, -offset, axis=axis)
    return out / spacing


def chain_rule_pushforward(g_values, dtg_values):
    """Differential of the inverse chart applied to a chart-side velocity."""
    a, b = g_values.real, g_values.imag
    w = 1.0 + a * a + b * b
    da, db = dtg_values.real, dtg_values.imag
    ds1 = (2.0 / w - 4 * a * a / w**2) * da + (-4 * a * b / w**2) * db
    ds2 = (-4 * a * b / w**2) * da + (2.0 / w - 4 * b * b / w**2) * db
    ds3 = (-4 * a / w**2) * da + (-4 * b / w**2) * db
    return np.stack([ds1, ds2, ds3])


def duhamel_constant_mode(phi_coef, nu, lam, times, refine=16):
    """Mode coefficients of the integral map for a constant-in-time source.

    Evaluates e^{-i t lam} (phi - i nu * int_0^t e^{i s lam} ds) with the
    integral by composite trapezoid on a refine-times-finer grid.
    """
    out = np.empty(times.size, dtype=np.complex128)
    for m, t in enumerate(times):
        if m == 0:
            integral = 0.0
        else:
            s = np.linspace(0.0, t, m * refine + 1)
            integrand = np.exp(1j * lam * s)
            integral = np.trapezoid(integrand, s)
        out[m] = np.exp(-1j * t * lam) * (phi_coef - 1j * nu * integral)
    return out


def window_dft(window_values, dt, phase_shift):
    """Raw-numpy DFT of time-window samples starting at t = -T_w."""
    m_t = window_values.size
    spec = dt * np.fft.fft(window_values) * (-1.0) ** np.arange(m_t)
    return spec / np.sqrt(2.0 * np.pi) * phase_shift


def xk_point_mass(amplitude, omega_value, shell_weight, cell_measure, j_max=40):
    """Shell norm of a one-point spectrum, by direct evaluation of the sum."""
    total = 0.0
    for j in range(j_max):
        total += 2.0 ** (j / 2.0) * eta_shell(j, abs(omega_value)) * abs(amplitude)
    return total * shell_weight * np.sqrt(cell_measure)


def lpq_separable_1d(a_vals, b_vals, dr, w_perp, dt, p, q):
    """Mixed norm of the separable product a(r) * b(fiber, t) from 1-d pieces."""
    if q == 2:
        inner_b = np.sqrt(w_perp * dt * np.sum(np.abs(b_vals) ** 2))
    else:
        inner_b = np.max(np.abs(b_vals))
    inner = np.abs(a_vals) * inner_b
    if p == 1:
        return float(dr * np.sum(inner))
    if p == 2:
        return float(np.sqrt(dr * np.sum(inner**2)))
    return float(np.max(inner))



def omega_direct(F):
    """tau + |xi|^2, the distance from the free paraboloid, over the whole
    stack of a space-time spectrum: tau = (pi / T_w) * fftfreq(m_t) integers."""
    tau = (np.pi / F.t_window) * np.fft.fftfreq(F.m_t, d=1.0 / F.m_t)
    k2 = _wavenumber_sq_direct(F.grid.d, F.grid.n, F.grid.period)
    return tau.reshape((F.m_t,) + (1,) * F.grid.d) + k2


def _bump_sums(F, paraboloid_weight=False):
    """|F|^2 (optionally over omega^2 + 1), eta_k(|xi|)^2 per k, eta_j(|omega|) per j.

    j runs past the last bump that can be nonzero at the largest
    |tau + |xi|^2| on the sampled range.
    """
    power = np.abs(F.values) ** 2
    omega = omega_direct(F)
    if paraboloid_weight:
        power = power / (omega**2 + 1.0)
    radius = np.sqrt(F.grid.wavenumber_sq())
    abs_omega = np.abs(omega)
    n_j = int(np.ceil(np.log2(max(float(abs_omega.max()), 1.0)))) + 3
    shells = [eta_shell(k, radius) ** 2 for k in range(F.grid.max_shell + 1)]
    bumps = [eta_shell(j, abs_omega) for j in range(n_j)]
    return power, shells, bumps


def shell_power_direct(F, paraboloid_weight=False):
    """(k, j) table of cell_measure * sum eta_k^2 eta_j^2 |F|^2, by direct evaluation."""
    power, shells, bumps = _bump_sums(F, paraboloid_weight)
    table = np.array([[np.sum(bj**2 * wk * power) for bj in bumps] for wk in shells])
    return F.cell_measure * table


def xk_direct(F, paraboloid_weight=False):
    """Shell norms sum_j 2^(j/2) ||eta_j f_k||, one per shell 0..max_shell."""
    table = shell_power_direct(F, paraboloid_weight)
    j = np.arange(table.shape[1])
    return [float(np.sum(2.0 ** (j / 2.0) * np.sqrt(row))) for row in table]


def section_sanity_direct(F, k):
    """max_j ||eta_j f_k||_Xk / ||f_k||_Xk with every section norm summed over all j'."""
    power, shells, bumps = _bump_sums(F)
    if k >= len(shells):
        return 0.0
    f2 = shells[k] * power

    def xk_of(mult2):
        return sum(
            2.0 ** (jp / 2.0) * np.sqrt(F.cell_measure * np.sum(bumps[jp] ** 2 * mult2 * f2))
            for jp in range(len(bumps))
        )

    xk = xk_of(1.0)
    if xk == 0.0:
        return 0.0
    return max(xk_of(bj**2) for bj in bumps) / xk


def _centring_sign(shape):
    """(-1)^(sum of indices) over an array shape: the full centring sign."""
    return np.where(np.indices(shape).sum(axis=0) % 2 == 0, 1.0, -1.0)


def _transform_scale(grid, dt, cell_measure):
    return np.sqrt(grid.cell_volume * dt / cell_measure)


def spacetime_samples_oracle(F, weights=1.0):
    """Physical samples of a space-time spectrum times a spatial multiplier,
    in the reference operation order: multiply by the weights and by the
    centring sign pattern, divide by the transform scale, then one unitary
    inverse DFT over all d+1 axes."""
    scale = _transform_scale(F.grid, F.dt, F.cell_measure)
    projected = F.values * weights
    return samples_of(projected * _centring_sign(F.values.shape) / scale)


def shell_samples_oracle(F, k):
    """Physical samples of the shell-k piece, in the reference operation order."""
    return spacetime_samples_oracle(F, F.shell_weights(k))


def shell_reductions_oracle(F, k, time_keep):
    """max_t |u_k| over the kept rows and sum_t |u_k|^2 per grid point, and
    sum_x |u_k|^2 per time row, from the whole stack of shell samples.

    The R2/R3 direction ties of symmetric members are decided by the
    rounding of these reductions, so the library's are compared against
    them bit for bit.
    """
    mag = np.abs(shell_samples_oracle(F, k))
    flat = mag.reshape(F.m_t, -1)
    max_time = np.max(flat[time_keep], axis=0)
    sq = np.square(mag)
    row_sq = np.sum(sq, axis=tuple(range(1, mag.ndim)))
    return max_time, np.sum(sq.reshape(F.m_t, -1), axis=0), row_sq


def spacetime_spectrum_oracle(samples, grid, t_window):
    """Space-time spectrum of windowed samples in the reference operation order:
    one unitary forward DFT, times the full centring sign, times the scale."""
    m_t = samples.shape[0]
    dt = 2.0 * t_window / m_t
    cell_measure = (1.0 / grid.period) ** grid.d * (np.pi / t_window)
    scale = _transform_scale(grid, dt, cell_measure)
    return spectrum_of(samples) * _centring_sign(samples.shape) * scale


def windowed_complex(samples, window):
    """Samples times the window profile of their rows, as numpy multiplies a
    complex stack by a real factor: by window + 0j, on the whole stack."""
    return samples * window.reshape((-1,) + (1,) * (samples.ndim - 1))


def transform_complex(samples, grid, t_window):
    """Space-time spectrum of windowed samples, centred by numpy's complex
    multiply: a unitary forward DFT, then each parity of rows times the
    spatial sign pattern times +-scale, as one real factor per point."""
    m_t = samples.shape[0]
    cell_measure = (1.0 / grid.period) ** grid.d * (np.pi / t_window)
    scale = _transform_scale(grid, 2.0 * t_window / m_t, cell_measure)
    spec = spectrum_of(samples)
    for parity in (0, 1):
        spec[parity::2] *= _centring_sign(grid.shape) * ((-1.0) ** parity * scale)
    return spec


def windowed_samples_fancy(traj, t_window):
    """Window samples gathered by a fancy index over every matching time.

    The trajectory keeps every mode, and its spectra and those of the
    free-evolution edges are inverted as whole stacks.
    """
    axes = tuple(range(1, traj.grid.d + 1))
    dt = traj.dt
    m_t = int(round(2.0 * t_window / dt))
    times = -t_window + dt * np.arange(m_t)
    samples = np.empty((m_t,) + traj.grid.shape, dtype=np.complex128)
    t0, t_end = float(traj.times[0]), float(traj.times[-1])
    idx = np.round((times - t0) / dt).astype(int)
    tol = 1e-9 * max(1.0, t_window)
    inside = (idx >= 0) & (idx < len(traj)) & (np.abs(t0 + idx * dt - times) <= tol)
    samples[inside] = samples_of(traj.values, axes=axes)[idx[inside]]
    for side, edge, snap in ((times < t0, t0, 0), (times > t_end, t_end, len(traj) - 1)):
        side &= ~inside
        if np.any(side):
            ext = free_trajectory(traj.snapshot(snap), times[side] - edge)
            samples[side] = samples_of(ext.values, axes=axes)
    samples *= window_profile(times, t_window).reshape((m_t,) + (1,) * traj.grid.d)
    return samples


def lattice_vector_search(e, d):
    """The {-1,0,1}^d vector whose normalisation is within 1e-12 of e, by
    searching all 3^d of them; None if there is none."""
    for flat in range(3**d):
        m = np.array([(flat // 3**a) % 3 - 1 for a in range(d)], dtype=np.float64)
        if m.any() and np.max(np.abs(m / np.sqrt(np.sum(m**2)) - e)) <= 1e-12:
            return m.astype(np.int64)
    return None


def sigma_sum_direct(F, sigma, paraboloid_weight=False):
    """Square sum over shells of 2^(sigma k) X_k."""
    xk = xk_direct(F, paraboloid_weight)
    return float(np.sqrt(sum(4.0 ** (sigma * k) * x**2 for k, x in enumerate(xk))))


def dealias_mask_direct(d, n, period, dealias=True):
    """Boolean mask of the modes the 2/3 rule keeps (every mode without
    dealiasing): each |xi_a| below 2/3 of the Nyquist wavenumber, rebuilt
    from the definition."""
    k = np.fft.fftfreq(n, d=1.0 / n) / period
    xi = np.meshgrid(*([k] * d), indexing="ij")
    cutoff = (2.0 / 3.0) * n / (2.0 * period)
    return np.all([np.abs(x) < cutoff for x in xi], axis=0) | (not dealias)


def nonlinearity_spectrum_direct(stack, d, n, period, dealias):
    """Dealiased unitary spectrum of 2 conj(u)/(1+|u|^2) sum_a (d_a u)^2, per snapshot.

    Raw numpy FFTs on each snapshot of ``stack`` (shape (M, n, ..., n)); the
    wavenumbers and the 2/3-rule mask are rebuilt here from their definitions.
    """
    k = np.fft.fftfreq(n, d=1.0 / n) / period
    xi = np.meshgrid(*([k] * d), indexing="ij")
    mask = dealias_mask_direct(d, n, period) if dealias else np.ones(xi[0].shape)

    def truncate(f):
        return np.fft.ifftn(np.fft.fftn(f) * mask) if dealias else f

    out = np.empty(stack.shape, dtype=np.complex128)
    for m, u in enumerate(stack):
        u_hat = np.fft.fftn(u)
        grad_sq = sum(np.fft.ifftn(1j * x * u_hat) ** 2 for x in xi)
        prefactor = 2.0 * np.conj(u) / (1.0 + np.abs(u) ** 2)
        prod = truncate(prefactor) * truncate(grad_sq)
        out[m] = np.fft.fftn(prod, norm="ortho") * mask
    return out


def _wavenumber_sq_direct(d, n, period):
    k = np.fft.fftfreq(n, d=1.0 / n) / period
    return sum(x**2 for x in np.meshgrid(*([k] * d), indexing="ij"))


def laplacian_c2c(values, d, n, period):
    """Spectral Laplacian over the trailing d axes by complex numpy FFTs only."""
    axes = tuple(range(values.ndim - d, values.ndim))
    spec = np.fft.fftn(values, axes=axes) * -_wavenumber_sq_direct(d, n, period)
    out = np.fft.ifftn(spec, axes=axes)
    return out.real if np.isrealobj(values) else out


def sobolev_energy_full(values, d, n, period, sigma):
    """cell volume * sum_xi (1+|xi|^2)^sigma |v_hat|^2 over the full spectrum.

    Unitary complex numpy FFT over the trailing d axes; one value per
    leading index.
    """
    axes = tuple(range(values.ndim - d, values.ndim))
    spec = np.fft.fftn(values, axes=axes, norm="ortho")
    weight = (1.0 + _wavenumber_sq_direct(d, n, period)) ** sigma
    cell = (2.0 * np.pi * period / n) ** d
    return cell * np.sum(weight * np.abs(spec) ** 2, axis=axes)


def midpoint_direct(
    s0_values, d, n, period, T, dt, inner_tol, max_sweeps=100, extrapolate=True
):
    """Implicit midpoint for d_t s = s x Lap s with np.cross and the c2c Laplacian.

    Same warm start, stopping rule and renormalization as the library
    integrator: the first step starts from s_0 + dt F(s_0), and every later
    one extrapolates the last two increments linearly (the first step's
    start increment counts as the one before the first). extrapolate=False
    starts every step from the previous increment instead, the integrator's
    former warm start. Returns the (M+1, 3, *grid) stack and the sweeps of
    each step.
    """
    steps = int(round(T / dt))

    def rhs(v):
        return np.cross(v, laplacian_c2c(v, d, n, period), axis=0)

    vals = [np.asarray(s0_values, dtype=np.float64)]
    sweeps = []
    step = dt * rhs(vals[0])
    prev = None
    for _ in range(steps):
        sm = vals[-1]
        v = sm + step if prev is None or not extrapolate else sm + 2.0 * step - prev
        for count in range(1, max_sweeps + 1):
            v_new = sm + dt * rhs(0.5 * (sm + v))
            change = np.max(np.abs(v_new - v))
            v = v_new
            if change < inner_tol:
                break
        else:
            raise RuntimeError("oracle midpoint sweep did not converge")
        sweeps.append(count)
        prev, step = step, v - sm
        vals.append(v / np.sqrt(np.sum(v**2, axis=0)))
    return np.stack(vals), sweeps


def propagator_recurrence(times, k2):
    """e^{-i t_m k2} over the whole time stack: the stepwise recurrence on
    uniform grids of more than two times, one exp per row otherwise."""
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


def propagator_longdouble(times, k2):
    """e^{-i t_m k2} with the phase t_m * k2 and its cosine and sine in long
    double, at the float64 times as given; returns (real, imaginary)."""
    angle = np.asarray(times, np.longdouble)[:, None] * np.asarray(k2, np.longdouble).ravel()
    shape = (len(times),) + np.shape(k2)
    return np.cos(angle).reshape(shape), -np.sin(angle).reshape(shape)


def duhamel_map_unblocked(phi_hat, prev_hat, times, grid, policy):
    """Spectra of the integral map over the whole time stack at once.

    The reference operation order: one nonlinearity over every snapshot,
    the integrand g = conj(forward) * nl_hat, its running sum S row by row,
    then forward * (phi_hat - i dt (S - (g + g_0) / 2)).
    """
    nl_hat = nonlinearity_spectrum(prev_hat, grid, policy)
    forward = propagator_recurrence(times, grid.wavenumber_sq())
    integrand = np.conj(forward)
    integrand *= nl_hat
    u_hat = np.empty_like(integrand)
    u_hat[0] = integrand[0]
    for m in range(1, times.size):
        np.add(u_hat[m - 1], integrand[m], out=u_hat[m])
    integrand += integrand[0].copy()
    np.multiply(0.5, integrand, out=integrand)
    u_hat -= integrand
    np.multiply(1j * (times[1] - times[0]), u_hat, out=u_hat)
    np.subtract(phi_hat, u_hat, out=u_hat)
    np.multiply(forward, u_hat, out=u_hat)
    return u_hat


def sup_hsigma(spectra, grid, sigma):
    """max_m ||spectra[m]||_{H^sigma}, one block of solver._block_rows rows at a time."""
    rows = _block_rows(grid)
    norms = np.empty(len(spectra))
    for start in range(0, len(spectra), rows):
        block = spectra[start : start + rows]
        norms[start : start + rows] = hsigma_norm_spectra(block, grid, sigma)
    return float(np.max(norms))


def duhamel_map_full_storage(phi_hat, spectra, times, grid, policy, sigma):
    """The in-place integral map on a stack holding every mode of each row.

    The reference for the band storage of solver.duhamel_map: the same
    blocks, kernels and operation order, but every block is read from and
    written back to the full stack. It shares the kernels with the solver
    on purpose; what it checks is the storage. Returns (max_m ||image_m - prev_m||_{H^sigma},
    max_m ||image_m||_{H^sigma}).
    """
    rows = _block_rows(grid)
    diffs, sups = np.empty(len(times)), np.empty(len(times))
    running = first = None
    phases = propagator_stack(times, grid.wavenumber_sq())
    for start in range(0, len(times), rows):
        forward = phases[start : start + rows]
        block = spectra[start : start + rows]
        u_hat = nonlinearity_spectrum(block, grid, policy)
        integrand = np.conj(forward)
        integrand *= u_hat
        if first is None:
            first = integrand[0].copy()
        if running is None:
            u_hat[0] = integrand[0]
        else:
            np.add(running, integrand[0], out=u_hat[0])
        for m in range(1, len(u_hat)):
            np.add(u_hat[m - 1], integrand[m], out=u_hat[m])
        running = u_hat[-1].copy()
        integrand += first
        np.multiply(0.5, integrand, out=integrand)
        u_hat -= integrand
        np.multiply(1j * (times[1] - times[0]), u_hat, out=u_hat)
        np.subtract(phi_hat, u_hat, out=u_hat)
        np.multiply(forward, u_hat, out=u_hat)
        diffs[start : start + rows] = hsigma_norm_spectra(u_hat - block, grid, sigma)
        sups[start : start + rows] = hsigma_norm_spectra(u_hat, grid, sigma)
        spectra[start : start + rows] = u_hat
    return float(np.max(diffs)), float(np.max(sups))


def picard_full_storage(phi, T, dt, tol, max_iter, sigma0, policy):
    """The Picard iteration with every mode of the iterate stored.

    Starts from the free flow and stops as solver.picard_solve does, but
    keeps the whole spectrum stack and inverts the fixed point as one stack.
    Returns the (sup, diff, ratio) of each map and the physical samples.
    """
    times = uniform_times(T, dt)
    grid = phi.grid
    phi_hat = to_frequency(phi).values
    spectra = propagator_stack(times, grid.wavenumber_sq())
    spectra *= phi_hat
    prev_diff = sup_hsigma(spectra, grid, sigma0)
    phi_norm = hsigma_norm(to_frequency(phi), sigma0)
    records = []
    for _ in range(max_iter):
        diff, sup = duhamel_map_full_storage(phi_hat, spectra, times, grid, policy, sigma0)
        ratio = diff / prev_diff if prev_diff > 0.0 else 0.0
        records.append((sup, diff, ratio))
        assert math.isfinite(diff) and math.isfinite(sup)
        if diff < tol * phi_norm:
            break
        prev_diff = diff if diff > 0.0 else prev_diff
    return records, samples_of(spectra, axes=tuple(range(1, grid.d + 1)))


def l2_mass_direct(F):
    """SpaceTimeSpectrum.l2_mass over the whole stack at once."""
    return float(np.sqrt(F.cell_measure * np.sum(np.abs(F.values) ** 2)))


def shell_mass_disjoint_direct(F, k):
    """SpaceTimeSpectrum.shell_mass_disjoint with a boolean index over the grid."""
    radius = np.sqrt(F.grid.wavenumber_sq())
    if k == 0:
        sel = radius <= 1.0
    else:
        sel = (radius > 2.0 ** (k - 1)) & (radius <= 2.0**k)
    return float(np.sqrt(F.cell_measure * np.sum(np.abs(F.values[:, sel]) ** 2)))


def region_mask_direct(F, k, j):
    """SpaceTimeSpectrum.region_mask from the whole omega = tau + |xi|^2 stack."""
    radius = np.sqrt(F.grid.wavenumber_sq())
    if k == 0:
        shell = radius <= 2.0
    else:
        shell = (radius >= 2.0 ** (k - 1)) & (radius <= 2.0 ** (k + 1))
    omega = F.tau().reshape((F.m_t,) + (1,) * F.grid.d) + F.grid.wavenumber_sq()
    return shell & (np.abs(omega) <= 2.0 ** (j + 1))


def time_reduction_direct(values, dt, q):
    """spacetime.time_reduction through a whole |u| stack."""
    mag = np.abs(values.reshape(values.shape[0], -1))
    return dt * np.sum(mag**2, axis=0) if q == 2 else np.max(mag, axis=0)
