import os
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from smap.grid import GridSpec
from smap.nonlinearity import nonlinearity_spectrum
from smap.solver import difference_energy, gronwall_report, midpoint_snapshots
from smap.spectral import FREQUENCY, ComplexField, to_physical

from oracles import samples_of, spectrum_of

# Property tests draw the same examples on every run and stay short.
settings.register_profile(
    "smap", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("smap")


@pytest.fixture
def grid32():
    return GridSpec(2, 32, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_smooth_field(grid, rng, band=None, amp=1.0):
    """Band-limited random field with a mildly decaying spectrum."""
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    radius = np.sqrt(grid.wavenumber_sq())
    cut = band if band is not None else grid.nyquist / 2.0
    spec *= (radius < cut) / (1.0 + radius) ** 2
    field = to_physical(ComplexField(grid, 0.0, FREQUENCY, spec))
    field.values *= amp / np.max(np.abs(field.values))
    return field


def allow_cpus(monkeypatch, n):
    """Fake an affinity mask of n CPUs: the norms pool sizes itself from it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def multiplied(values, grid, mult):
    """Samples of values with the spectrum times mult, a multiplier of the
    library, through the reference transforms."""
    axes = tuple(range(values.ndim - grid.d, values.ndim))
    return samples_of(spectrum_of(values, axes) * mult, axes)


def nonlinearity_samples(values, grid, policy):
    """Physical samples of the nonlinearity of one field: its one-row
    nonlinearity_spectrum, through the reference transforms."""
    nl = nonlinearity_spectrum(spectrum_of(values[None], tuple(range(1, grid.d + 1))), grid, policy)
    return samples_of(nl[0])


def physical_stack(traj):
    """The physical samples of a trajectory as one stack: its sample_blocks
    concatenated."""
    return np.concatenate([block.copy() for _, block in traj.sample_blocks()])


def midpoint_stack(s0, T, dt, inner_tol=1e-12):
    """The snapshots of midpoint_snapshots stacked: (M+1, 3, *grid)."""
    return np.stack([values for _, values, _ in midpoint_snapshots(s0, T, dt, inner_tol)])


def gronwall_of(times, a, b, grid):
    """gronwall_report of the difference energy of two sphere stacks, pair by pair."""
    return gronwall_report(times, [difference_energy(x, y, grid) for x, y in zip(a, b)])


class TracedPeak:
    """Peak of the bytes traced inside a traced_peak block, set when it ends."""

    bytes = 0


@contextmanager
def traced_peak():
    """Trace Python allocations in the block; yields a TracedPeak filled at exit."""
    peak = TracedPeak()
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
