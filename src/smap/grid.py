"""Periodic grid description and cached wavenumber tables.

The spatial domain is the torus [-pi*P, pi*P)^d sampled with n points per
axis. Angular wavenumbers live on (1/P) * Z^d in the standard FFT layout,
so the largest resolved magnitude per axis is n/(2P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# numpy 2 loads its submodules on first use; load this one at import, not inside a command.
import numpy.fft


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: d axes, n points each, box half-width pi*period."""

    d: int
    n: int
    period: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 8, got {self.n}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")
        # The squared box length, the largest |xi|^2 and the box and cell
        # volumes must be finite, nonzero floats, or data, weights and norms
        # on the grid overflow.
        box = 2.0 * math.pi * self.period
        top = self.n / (2.0 * self.period)
        try:
            sizes = (box * box, self.d * top * top, self.volume, self.cell_volume)
        except OverflowError:  # a float power raises where a product gives inf
            sizes = (math.inf,)
        if not all(0.0 < size < math.inf for size in sizes):
            raise ValueError(
                f"period {self.period} overflows the grid: (2 pi period)^2, d (n / (2 "
                f"period))^2 and the box and cell volumes must be finite and nonzero"
            )

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def num_points(self) -> int:
        return self.n**self.d

    @property
    def spacing(self) -> float:
        """Physical mesh width 2*pi*P/n."""
        return 2.0 * math.pi * self.period / self.n

    @property
    def volume(self) -> float:
        return (2.0 * math.pi * self.period) ** self.d

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one grid cell."""
        return self.spacing**self.d

    @property
    def nyquist(self) -> float:
        """Largest resolved wavenumber magnitude per axis, n/(2P)."""
        return self.n / (2.0 * self.period)

    @property
    def max_shell(self) -> int:
        """Last dyadic shell index that can carry mass on this grid."""
        return int(math.ceil(math.log2(math.sqrt(self.d) * self.nyquist))) + 1

    def axis_coordinates(self) -> np.ndarray:
        """Sample positions along one axis, starting at -pi*P."""
        return -math.pi * self.period + self.spacing * np.arange(self.n)

    def axis_wavenumbers(self) -> np.ndarray:
        """Wavenumbers along one axis in FFT layout (Nyquist slot negative)."""
        return _axis_wavenumbers(self.d, self.n, self.period)

    def wavenumber_component(self, axis: int) -> np.ndarray:
        """Wavenumber xi_axis broadcast over the full spatial shape (0-based axis)."""
        return _wavenumber_component(self.d, self.n, self.period, axis)

    def wavenumber_sq(self) -> np.ndarray:
        """|xi|^2 over the full spatial shape."""
        return _wavenumber_sq(self.d, self.n, self.period)

    def half_wavenumber_sq(self) -> np.ndarray:
        """|xi|^2 over the real-input half spectrum: last axis cut to n/2 + 1."""
        return _half_wavenumber_sq(self.d, self.n, self.period)

    def same_as(self, other: "GridSpec") -> bool:
        return (
            self.d == other.d
            and self.n == other.n
            and abs(self.period - other.period) <= 1e-12 * max(1.0, self.period)
        )


@lru_cache(maxsize=64)
def _axis_wavenumbers(d: int, n: int, period: float) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)  # integers 0..n/2-1, -n/2..-1
    out = k / period
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _wavenumber_component(d: int, n: int, period: float, axis: int) -> np.ndarray:
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} outside 0..{d - 1}")
    xi = _axis_wavenumbers(d, n, period)
    shape = [1] * d
    shape[axis] = n
    out = np.broadcast_to(xi.reshape(shape), (n,) * d).copy()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _wavenumber_sq(d: int, n: int, period: float) -> np.ndarray:
    xi = _axis_wavenumbers(d, n, period)
    out = np.zeros((n,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        out = out + (xi**2).reshape(shape)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _half_wavenumber_sq(d: int, n: int, period: float) -> np.ndarray:
    # The Nyquist column reads -n/2 in the full layout and +n/2 in the half
    # one; its square is the same.
    out = np.ascontiguousarray(_wavenumber_sq(d, n, period)[..., : n // 2 + 1])
    out.flags.writeable = False
    return out
