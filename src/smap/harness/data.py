"""Deterministic initial-data factory and the diagnostic ensemble builder.

All data is smooth and rapidly decaying relative to the box, scaled so the
requested Sobolev norm is hit exactly; identical seeds give identical
fields.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

# numpy 2 loads its submodules on first use; load this one at import, not inside a command.
import numpy.random

from ..geometry import SphereField, stereo_lift
from ..grid import GridSpec
from ..nonlinearity import TWO_THIRDS, DealiasPolicy
from ..solver import picard_solve
from ..spacetime import FreeMember, spacetime_transform
from ..spectral import FREQUENCY, PHYSICAL, ComplexField, hsigma_norm, to_physical

DATA_KINDS = ("gaussian_bump", "mode_sum", "random_bandlimited")
PICARD_AMPLITUDE = 1e-3  # H^sigma0 norm of the ensemble's fixed-point member


def _mesh(grid: GridSpec):
    x = grid.axis_coordinates()
    return np.meshgrid(*([x] * grid.d), indexing="ij")


def _normalize(field: ComplexField, amplitude: float, sigma0: float) -> ComplexField:
    if amplitude == 0.0:
        return ComplexField.zeros(field.grid)
    norm = hsigma_norm(field, sigma0)
    field.values = field.values * (amplitude / norm)
    return field


def seeded_data(kind: str, amplitude: float, seed: int, grid: GridSpec, sigma0: float) -> ComplexField:
    """Smooth deterministic initial data with H^sigma0 norm equal to amplitude."""
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    rng = np.random.default_rng(seed)
    if kind == "gaussian_bump":
        X = _mesh(grid)
        # Width ~ box/8 keeps the boundary tail below 1e-13.
        width = np.pi * grid.period / 8.0 * (1.0 + 0.2 * rng.uniform(-1, 1))
        center = 0.1 * np.pi * grid.period * rng.uniform(-1, 1, size=grid.d)
        mod = rng.integers(-2, 3, size=grid.d) / grid.period
        r2 = sum((X[a] - center[a]) ** 2 for a in range(grid.d))
        phase = sum(mod[a] * X[a] for a in range(grid.d))
        vals = np.exp(-r2 / (2.0 * width**2)) * np.exp(1j * phase)
        field = ComplexField(grid, 0.0, PHYSICAL, vals)
    elif kind == "mode_sum":
        X = _mesh(grid)
        vals = np.zeros(grid.shape, dtype=np.complex128)
        for _ in range(5):
            mode = rng.integers(-3, 4, size=grid.d) / grid.period
            coef = rng.standard_normal() + 1j * rng.standard_normal()
            vals += coef * np.exp(1j * sum(mode[a] * X[a] for a in range(grid.d)))
        field = ComplexField(grid, 0.0, PHYSICAL, vals)
    elif kind == "random_bandlimited":
        spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        keep = np.ones(grid.shape, dtype=bool)
        for axis in range(grid.d):
            keep &= np.abs(grid.wavenumber_component(axis)) < (2.0 / 3.0) * grid.nyquist
        spec *= keep / (1.0 + grid.wavenumber_sq())
        field = ComplexField(grid, 0.0, FREQUENCY, spec)
    else:
        raise ValueError(f"unknown data kind {kind!r}; choose from {DATA_KINDS}")
    return _normalize(field, amplitude, sigma0)


def sphere_seeded_data(kind: str, amplitude: float, seed: int, grid: GridSpec, sigma0: float) -> SphereField:
    """Sphere-valued data: the chart lift of the corresponding complex data."""
    return stereo_lift(to_physical(seeded_data(kind, amplitude, seed, grid, sigma0)))


# ---------------------------------------------------------------------------
# Diagnostic ensemble
# ---------------------------------------------------------------------------

def _pure_shell_modes(grid: GridSpec, k: int, count: int, rng) -> list:
    """Integer wavevectors whose radius carries the shell-k bump.

    Searches descending index tuples (one per vector up to sign and
    permutation) in lexicographic order. Prefers the band where only shell
    k is active; near the grid edge it falls back to the radii with the
    largest available bump value.
    """
    nyq_idx = grid.n // 2 - 1
    lo, hi = 1.6 * 2.0 ** (k - 1) * grid.period, 1.25 * 2.0**k * grid.period
    tuples = sorted(
        vec[::-1] for vec in combinations_with_replacement(range(nyq_idx + 1), grid.d)
    )
    candidates = []
    fallback = []
    for vec in tuples:
        r = np.hypot.reduce(np.array(vec, dtype=float))
        if lo <= r <= hi:
            candidates.append(vec)
        elif 2.0 ** (k - 1) * grid.period < r <= min(hi, np.sqrt(grid.d) * nyq_idx):
            fallback.append((r, vec))
    if not candidates and fallback:
        fallback.sort()
        candidates = [vec for _, vec in fallback[-8:]]
    if not candidates:
        return []
    order = rng.permutation(len(candidates))
    return [np.array(candidates[i], dtype=float) / grid.period for i in order[:count]]


def build_lemma_ensemble(
    grid: GridSpec,
    shells,
    m_t: int,
    seed: int,
    T: float,
    sigma0: float,
    t_window: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 40,
    policy: DealiasPolicy = TWO_THIRDS,
) -> list:
    """Windowed members as (name, factory) pairs: two free plane waves and
    one free three-mode sum per requested shell, three frequency-localized
    bumps, a free broadband field, and one fixed-point solution of the flow
    (twenty members for five shells).

    Every random draw and every initial field is made here, in a fixed
    order; a factory takes no argument and returns the member's space-time
    spectrum on m_t rows of the window [-t_window, t_window]. A free member
    is a FreeMember(phi, m_t, t_window) record, whose call is free_spectrum
    and whose pooled cells lemma_diagnostics reads in closed form; the
    Picard member's factory solves on [0, T] with the window step
    2 t_window / m_t, under tol, max_iter and policy, and transforms the
    solution. So a member's samples exist only while it is analysed.
    """
    rng = np.random.default_rng(seed)
    X = _mesh(grid)
    members = []

    def free(vals, representation=PHYSICAL):
        field = ComplexField(grid, 0.0, representation, vals)
        return FreeMember(field, m_t, t_window)

    def plane_wave(k0):
        return free(np.exp(1j * sum(k0[a] * X[a] for a in range(grid.d))))

    shell_list = list(shells)
    per_shell = {}
    for k in shell_list:
        per_shell[k] = _pure_shell_modes(grid, k, 3, rng)

    for k in shell_list:
        modes = per_shell[k]
        for i, k0 in enumerate(modes[:2]):
            members.append((f"mode_k{k}{'ab'[i]}", plane_wave(k0)))

    for k in shell_list:
        modes = per_shell[k]
        if not modes:
            continue
        vals = np.zeros(grid.shape, dtype=np.complex128)
        for k0 in modes:
            coef = rng.standard_normal() + 1j * rng.standard_normal()
            vals += coef * np.exp(1j * sum(k0[a] * X[a] for a in range(grid.d)))
        members.append((f"multi_k{k}", free(vals)))

    # Frequency-localized bumps: spatially concentrated, one per mid shell.
    for scale in (8.0, 16.0, 28.0):
        direction = rng.standard_normal(grid.d)
        direction /= np.sqrt(np.sum(direction**2))
        k0 = np.round(np.clip(scale * direction, -(grid.n // 2 - 1), grid.n // 2 - 1))
        width = max(2.0, scale / 4.0)
        env = np.exp(-sum(x**2 for x in X) * width**2 / 2.0)
        vals = env * np.exp(1j * sum(k0[a] * X[a] for a in range(grid.d)))
        members.append((f"bump{int(scale)}", free(vals)))

    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    radius = np.sqrt(grid.wavenumber_sq())
    spec *= (radius < 0.95 * np.sqrt(grid.d) * grid.nyquist) / (1.0 + radius)
    members.append(("broadband", free(spec, FREQUENCY)))

    phi = seeded_data("gaussian_bump", PICARD_AMPLITUDE, seed + 1, grid, sigma0)
    dt = 2.0 * t_window / m_t

    def solution():
        traj, _ = picard_solve(
            phi, T=T, dt=dt, tol=tol, max_iter=max_iter, sigma0=sigma0, policy=policy
        )
        return spacetime_transform(traj, t_window)

    members.append(("picard", solution))
    return members
