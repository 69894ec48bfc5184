"""The benchmark workloads: which CLI commands run, in order, with which config.

Every config key not listed keeps its ``ExperimentConfig`` default. The
workload seed is the config ``seed``; it reaches the program through the
CLI's ``--seed``, so the same seed gives the same inputs. ``threads`` is the
``SMAP_THREADS`` a pass runs with; 0 means the number of usable cores. Why
each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed at which the stored CSV bodies under bench/baseline/ were written.
BASELINE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    config: tuple = ()  # (key, value) pairs written as a `key = value` file
    threads: int = 0

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chart_sweep",
            ("picard",),
            (("amplitudes", "1e-3, 0.1, 1.0, 2.0, 4.0"),),
            threads=1,
        ),
        Workload(
            "route_d3",
            ("evolve", "compare", "verify"),
            (
                ("d", 3),
                ("n", 32),
                ("sigma0", 2.1),
                ("amplitudes", 0.5),
                ("snapshot_stride", 8),
            ),
            threads=1,
        ),
        Workload("lemma_norms", ("norms",)),
    )
}
