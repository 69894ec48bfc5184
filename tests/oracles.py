"""Independent oracle computations for the derived test expectations.

Every function here recomputes a quantity through a route that does not
share code with the implementation it checks: dense-grid quadrature with
raw numpy FFTs, closed-form evaluation, refined quadrature, or explicit
finite differences. Tests compare library output against these values.
"""

import numpy as np

from smap.grid import GridSpec
from smap.spectral import PHYSICAL, ComplexField, eta_shell


def mesh(grid):
    x = grid.axis_coordinates()
    return np.meshgrid(*([x] * grid.d), indexing="ij")


def plane_wave(grid, k0, amp=1.0, time=0.0):
    X = mesh(grid)
    vals = amp * np.exp(1j * sum(k0[a] * X[a] for a in range(grid.d)))
    return ComplexField(grid, time, PHYSICAL, vals)


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



def _bump_sums(F, paraboloid_weight=False):
    """|F|^2 (optionally over omega^2 + 1), eta_k(|xi|)^2 per k, eta_j(|omega|) per j.

    j runs past the last bump that can be nonzero at the largest
    |tau + |xi|^2| on the sampled range.
    """
    power = np.abs(F.values) ** 2
    omega = F.omega()
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


def sigma_sum_direct(F, sigma, paraboloid_weight=False):
    """Square sum over shells of 2^(sigma k) X_k."""
    xk = xk_direct(F, paraboloid_weight)
    return float(np.sqrt(sum(4.0 ** (sigma * k) * x**2 for k, x in enumerate(xk))))


def nonlinearity_spectrum_direct(stack, d, n, period, dealias):
    """Dealiased unitary spectrum of 2 conj(u)/(1+|u|^2) sum_a (d_a u)^2, per snapshot.

    Raw numpy FFTs on each snapshot of ``stack`` (shape (M, n, ..., n)); the
    wavenumbers and the 2/3-rule mask are rebuilt here from their definitions.
    """
    k = np.fft.fftfreq(n, d=1.0 / n) / period
    xi = np.meshgrid(*([k] * d), indexing="ij")
    cutoff = (2.0 / 3.0) * n / (2.0 * period)
    mask = np.all([np.abs(x) < cutoff for x in xi], axis=0) if dealias else np.ones(xi[0].shape)

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
