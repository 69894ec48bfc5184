"""Self-test of the benchmark's span recorder and call wrappers.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402


def test_self_time_nested_spans():
    outer = Span(0, "outer", 0.0, tid=1, parent=None, end=10.0)
    first = Span(1, "a", 2.0, tid=1, parent=0, end=5.0)
    second = Span(2, "b", 6.0, tid=1, parent=0, end=7.0)
    leaf = Span(3, "c", 3.0, tid=1, parent=1, end=4.0)
    own = self_times([outer, first, second, leaf])
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_pool_children_once():
    outer = Span(0, "lemma", 0.0, tid=1, parent=None, end=10.0)
    on_t2 = Span(1, "member", 1.0, tid=2, parent=0, end=6.0)
    on_t3 = Span(2, "member", 4.0, tid=3, parent=0, end=8.0)
    own = self_times([outer, on_t2, on_t3])
    assert own[0] == pytest.approx(10.0 - 7.0)


def test_parent_is_innermost_span_on_thread_or_main_for_workers():
    rec = Recorder()
    outer = rec.open("outer")
    seen = {}

    def worker():
        top = rec.open("top")
        inner = rec.open("inner")
        seen.update(top=top.parent, inner=inner.parent, top_sid=top.sid)
        rec.close(inner)
        rec.close(top)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.close(outer)
    assert seen["top"] == outer.sid
    assert seen["inner"] == seen["top_sid"]
    assert outer.parent is None
    assert len(rec.spans) == 3


def test_wrapped_functions_return_same_objects_and_values():
    import smap.solver
    import smap.spectral
    from smap.grid import GridSpec
    from smap.spectral import FREQUENCY, PHYSICAL, ComplexField

    grid = GridSpec(2, 16, 1.0)
    rng = np.random.default_rng(3)
    values = 1e-2 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    u = ComplexField(grid, 0.0, PHYSICAL, values)
    u_hat = ComplexField(grid, 0.0, FREQUENCY, values)

    def compute():
        spectral, solver = smap.spectral, smap.solver
        traj, history = solver.picard_solve(u, 1.0 / 16.0, 1.0 / 64.0, sigma0=1.6)
        return (
            spectral.to_frequency(u_hat),
            spectral.transform(u, "forward").values,
            solver.free_trajectory(u, np.linspace(0.0, 0.25, 5)).values,
            traj.values,
            history.ratios,
        )

    originals = (smap.solver.picard_solve, smap.spectral.transform)
    plain = compute()
    rec = Recorder()
    patch = spans.install(rec, layers.MODULES, layers.EXTRA, layers.ANNOTATE)
    try:
        assert smap.solver.picard_solve is not originals[0]
        traced = compute()
    finally:
        patch.restore()
    assert (smap.solver.picard_solve, smap.spectral.transform) == originals

    assert plain[0] is u_hat and traced[0] is u_hat
    for a, b in zip(plain[1:4], traced[1:4]):
        assert np.array_equal(a, b)
    assert plain[4] == traced[4]

    names = {s.name for s in rec.spans}
    assert {"solver.picard_solve", "solver.duhamel_map", "scipy.fft.fftn"} <= names
    iters = len(plain[4])
    assert sum(s.name == "solver.duhamel_map" for s in rec.spans) == iters
    values = layers.metrics(rec.spans, rec.main_tid)
    assert values["solver.picard_iters"] == iters
    assert values["spectral.fft_calls"] > 0
