import math
import os
import re
import string
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import smap
from smap import cli, solver, spacetime, spectral
from smap.errors import ConfigError, NoContraction
from smap.geometry import SphereField, stereo_lift
from smap.grid import GridSpec
from smap.harness import checks, runner
from smap.harness import data as data_module
from smap.harness.config import ExperimentConfig, load_config, parse_config
from smap.harness.data import DATA_KINDS, build_lemma_ensemble, seeded_data, sphere_seeded_data
from smap.harness.runner import _norms_windows, run
from smap.harness.snapshots import read_snapshot, write_snapshot
from smap.nonlinearity import DealiasPolicy
from smap.solver import midpoint_snapshots, picard_solve, uniform_times
from smap.spacetime import (
    DirectionSet,
    FreeMember,
    _cell_power,
    _shell_tables,
    _xk_values,
    free_spectrum,
    lemma_diagnostics,
)
from smap.spectral import PHYSICAL, ComplexField, hsigma_norm, to_frequency, to_physical

from conftest import allow_cpus, gronwall_of, midpoint_stack, physical_stack, traced_peak

SMALL_CONFIG = """
# small deterministic run
d = 2
n = 16
period = 4.0
T = 0.125
dt = 0.015625
sigma0 = 1.6
amplitudes = 1e-3
tol = 1e-10
max_iter = 40
dealias = two_thirds
directions = axes_diagonals
seed = 11
ensemble_samples = 64
shells = 1,2
snapshot_stride = 4
"""

# The CLI in a child that first pins itself to the CPUs listed in argv[1].
PINNED_CLI = """
import os
import sys

os.sched_setaffinity(0, [int(cpu) for cpu in sys.argv[1].split(",")])
from smap.cli import main

sys.exit(main(sys.argv[2:]))
"""

# The grid of the overflowing-period repros at d = 3, without its period.
OVERFLOW_D3 = "d = 3\nn = 16\nsigma0 = 2.1\nT = 0.0625\ndt = 0.015625\namplitudes = 1e-3\n"


CONFIG_KEYS = {f.name for f in fields(ExperimentConfig) if f.init}
NUMERIC_KEYS = sorted(
    key
    for key in CONFIG_KEYS
    if isinstance(getattr(ExperimentConfig(), key), (int, float, tuple))
    and not isinstance(getattr(ExperimentConfig(), key), bool)
)


@st.composite
def valid_config_values(draw):
    """A valid value for every config key, of every field type."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([8, 16, 32, 64]))
    ensemble_period = draw(st.floats(0.25, 4.0))
    T = draw(st.floats(1e-3, 1.0))
    subcritical = draw(st.booleans())
    threshold = (d + 1) / 2.0
    last_shell = GridSpec(d, n, ensemble_period).max_shell
    return {
        "d": d,
        "n": n,
        "period": draw(st.floats(0.25, 8.0)),
        "T": T,
        "dt": T / draw(st.integers(1, 1000)),
        "sigma0": draw(st.floats(0.5 if subcritical else threshold, 8.0, exclude_min=True)),
        "amplitudes": tuple(draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4))),
        "tol": draw(st.floats(1e-300, 1.0)),
        "max_iter": draw(st.integers(1, 1000)),
        "dealias": draw(st.sampled_from(["two_thirds", "none"])),
        "directions": draw(st.sampled_from(["axes", "axes_diagonals"])),
        "seed": draw(st.integers(0, 2**63 - 1)),
        "out_dir": draw(st.text(alphabet=string.ascii_letters + "/._-", min_size=1, max_size=20)),
        "inner_tol": draw(st.floats(1e-300, 1.0)),
        "t_window": draw(st.floats(1e-3, 10.0)),
        "data_kind": draw(st.sampled_from(DATA_KINDS)),
        "snapshot_stride": draw(st.integers(1, 1000)),
        "ensemble_period": ensemble_period,
        "ensemble_samples": draw(st.integers(16, 1 << 20)),
        "shells": tuple(
            draw(st.lists(st.integers(0, last_shell), min_size=1, max_size=5, unique=True))
        ),
        "allow_subcritical": subcritical,
    }


def render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def render_config(values) -> str:
    return "".join(f"{key} = {render_value(value)}\n" for key, value in values.items())


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.sigma0 == pytest.approx(1.6)
        assert cfg.grid().n == 64

    def test_parse_small_config(self):
        cfg = parse_config(SMALL_CONFIG)
        assert cfg.n == 16
        assert cfg.amplitudes == (1e-3,)
        assert cfg.shells == (1, 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("frobnicate = 3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n = 16\nn = 32")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("n = sixteen")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("just some words")

    def test_subcritical_sigma_rejected_by_default(self):
        with pytest.raises(ConfigError, match="subcritical"):
            parse_config("sigma0 = 1.0")

    def test_subcritical_override(self):
        cfg = parse_config("sigma0 = 1.0\nallow_subcritical = true")
        assert cfg.subcritical is True

    def test_long_window_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("T = 2.0")

    @pytest.mark.parametrize(
        "line",
        [
            "amplitudes = nan",
            "amplitudes = 1e-3, inf",
            "sigma0 = nan",
            "period = inf",
            "tol = nan",
        ],
    )
    def test_non_finite_value_rejected(self, line):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(line)

    def test_non_finite_field_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(sigma0=float("nan"))

    def test_shell_past_ensemble_grid_rejected(self):
        # Only norms reads the shells, so the bound is one of its pre-work
        # checks; the config itself accepts them.
        assert ExperimentConfig().ensemble_grid().max_shell == 7
        _norms_windows(parse_config("shells = 2, 7"))
        cfg = parse_config("shells = 40")
        with pytest.raises(ConfigError, match="norms: shells must not exceed 7"):
            _norms_windows(cfg)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("seed = -1", "seed must be non-negative"),
            ("data_kind = nope", "unknown data kind"),
            ("T = 0.5\ndt = 0.003", "does not divide"),
            ("shells = 2, 2, 3", "shells must not repeat"),
        ],
    )
    def test_bad_input_is_config_error(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(line)

    @given(valid_config_values())
    def test_parse_round_trips_every_field(self, values):
        assert parse_config(render_config(values)) == ExperimentConfig(**values)

    @given(
        st.text(alphabet=string.ascii_letters + string.digits + " _.,;:-+", min_size=1).filter(
            str.strip
        )
    )
    def test_line_without_equals_rejected(self, line):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config("seed = 3\n" + line)

    @given(st.from_regex(r"[a-z_]{1,16}", fullmatch=True).filter(lambda k: k not in CONFIG_KEYS))
    def test_unknown_key_rejected_everywhere(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"{key} = 1")

    @given(
        st.sampled_from(NUMERIC_KEYS),
        st.from_regex(r"[a-z]{1,8}", fullmatch=True).filter(
            lambda raw: raw not in ("inf", "nan", "infinity")
        ),
    )
    def test_non_numeric_value_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            parse_config(f"{key} = {raw}")

    @given(st.sampled_from(sorted(CONFIG_KEYS)))
    def test_any_duplicate_key_rejected(self, key):
        line = f"{key} = {render_value(getattr(ExperimentConfig(), key))}\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(line + line)

    def test_default_path_takes_overrides_like_a_file(self):
        # Without a file the overrides go through the same parser: None
        # values are dropped and an unknown key is a config error.
        assert load_config(None, seed=3, out_dir=None) == parse_config("", seed=3)
        with pytest.raises(ConfigError):
            load_config(None, frobnicate=3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_cli_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\nout_dir = a\n")
        cfg = load_config(path, seed=123, out_dir="b")
        assert cfg.seed == 123
        assert cfg.out_dir == "b"


class TestSnapshots:
    def test_complex_roundtrip_bit_identical(self, tmp_path, grid32, rng):
        field = ComplexField(
            grid32,
            0.375,
            PHYSICAL,
            rng.standard_normal(grid32.shape) + 1j * rng.standard_normal(grid32.shape),
        )
        path = write_snapshot(tmp_path / "c.fld", field)
        first = path.read_bytes()
        back = read_snapshot(path)
        assert back.time == field.time
        assert np.array_equal(back.values, field.values)
        write_snapshot(path, back)
        assert path.read_bytes() == first

    def test_sphere_roundtrip_bit_identical(self, tmp_path, grid32, rng):
        vals = rng.standard_normal((3,) + grid32.shape) + np.array(
            [0.0, 0.0, 3.0]
        ).reshape(3, 1, 1)
        field = SphereField(grid32, 0.5, vals)
        path = write_snapshot(tmp_path / "s.fld", field)
        first = path.read_bytes()
        back = read_snapshot(path)
        assert isinstance(back, SphereField)
        assert np.array_equal(back.values, field.values)
        write_snapshot(path, back)
        assert path.read_bytes() == first

    def test_frequency_field_written_as_physical(self, tmp_path, grid32, rng):
        field = to_frequency(
            ComplexField(grid32, 0.0, PHYSICAL, rng.standard_normal(grid32.shape) + 0j)
        )
        back = read_snapshot(write_snapshot(tmp_path / "f.fld", field))
        assert back.representation == PHYSICAL

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fld"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, grid32):
        field = ComplexField.zeros(grid32)
        path = write_snapshot(tmp_path / "t.fld", field)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)


def _valid_snapshot_bytes(directory, kind, d):
    grid = GridSpec(d, 8, 1.5)
    rng = np.random.default_rng(d)
    if kind == "complex":
        field = ComplexField(grid, 0.25, PHYSICAL, rng.standard_normal(grid.shape) + 0j)
    else:
        field = SphereField(grid, 0.25, rng.standard_normal((3,) + grid.shape))
    return write_snapshot(directory / f"{kind}{d}.fld", field).read_bytes()


class TestSnapshotDecoding:
    @given(st.sampled_from(["complex", "sphere"]), st.sampled_from([1, 2, 3]), st.data())
    def test_every_strict_prefix_raises_value_error(self, tmp_path_factory, kind, d, data):
        directory = tmp_path_factory.mktemp("prefix")
        raw = _valid_snapshot_bytes(directory, kind, d)
        cut = data.draw(st.integers(0, len(raw) - 1))
        path = directory / "cut.fld"
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            read_snapshot(path)

    @pytest.mark.parametrize("length", [10, 14, 30])
    def test_truncated_header(self, tmp_path, length):
        raw = _valid_snapshot_bytes(tmp_path, "sphere", 2)
        path = tmp_path / "cut.fld"
        path.write_bytes(raw[:length])
        with pytest.raises(ValueError, match="header truncated"):
            read_snapshot(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "d0.fld"
        path.write_bytes(b"SMAPFLD1" + struct.pack("<I", 0) + struct.pack("<ddB", 1.0, 0.0, 0))
        with pytest.raises(ValueError, match="d >= 1"):
            read_snapshot(path)


class TestSeededData:
    @pytest.mark.parametrize("kind", ["gaussian_bump", "mode_sum", "random_bandlimited"])
    def test_norm_scaled_to_amplitude(self, grid32, kind):
        amp = 2.5e-3
        field = seeded_data(kind, amp, 3, grid32, 1.6)
        assert abs(hsigma_norm(field, 1.6) - amp) < 1e-10 * amp

    def test_zero_amplitude(self, grid32):
        field = seeded_data("gaussian_bump", 0.0, 3, grid32, 1.6)
        assert np.max(np.abs(field.values)) == 0.0

    def test_deterministic_per_seed(self, grid32):
        a = seeded_data("mode_sum", 1e-3, 5, grid32, 1.6)
        b = seeded_data("mode_sum", 1e-3, 5, grid32, 1.6)
        c = seeded_data("mode_sum", 1e-3, 6, grid32, 1.6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_bandlimited_support_is_dealias_safe(self, grid32):
        field = seeded_data("random_bandlimited", 1.0, 9, grid32, 1.6)
        spec = to_frequency(field).values
        for axis in range(2):
            xi = np.abs(grid32.wavenumber_component(axis))
            assert np.max(np.abs(spec[xi >= (2.0 / 3.0) * grid32.nyquist])) == 0.0

    def test_unknown_kind(self, grid32):
        with pytest.raises(ValueError, match="unknown data kind"):
            seeded_data("white_noise", 1.0, 0, grid32, 1.6)

    def test_sphere_variant_unit_norm(self, grid32):
        s = sphere_seeded_data("gaussian_bump", 1e-3, 4, grid32, 1.6)
        assert np.max(np.abs(np.sum(s.values**2, axis=0) - 1.0)) < 1e-12

    def test_ensemble_has_twenty_members(self):
        grid = GridSpec(2, 64, 1.0)
        members = build_lemma_ensemble(grid, range(2, 7), 64, seed=7, T=0.125, sigma0=1.6)
        names = [name for name, _ in members]
        assert len(members) == 20
        assert len(set(names)) == 20

    @pytest.mark.parametrize("d, n, top", [(1, 64, 5), (2, 32, 4), (3, 16, 3)])
    def test_plane_wave_members_peak_at_their_shell(self, d, n, top):
        # Shells 1..top have a band where only their own bump is active.
        grid = GridSpec(d, n, 1.0)
        members = build_lemma_ensemble(grid, range(1, top + 1), 64, seed=7, T=0.125, sigma0=1.6)
        modes = [(name, f) for name, f in members if name.startswith("mode_k")]
        assert len(modes) >= 2 * top - 1  # shell 1 may hold a single mode
        for name, member in modes:
            F = free_spectrum(member.phi, member.m_t, member.t_window)
            xk = _xk_values(_shell_tables(_cell_power(F))[0])
            assert int(np.argmax(xk)) == int(name[len("mode_k") : -1]), (name, xk)

    def small_ensemble(self):
        grid = GridSpec(2, 32, 1.0)
        members = build_lemma_ensemble(grid, range(2, 5), 128, seed=7, T=0.125, sigma0=1.6)
        return members, (128,) + grid.shape

    def test_ensemble_members_built_on_call(self, monkeypatch):
        # The free members are FreeMember records, whose spectra
        # lemma_diagnostics builds (spacetime.free_spectrum); the Picard
        # member is a factory, called once.
        calls = []
        for module, name in ((spacetime, "free_spectrum"), (data_module, "picard_solve")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module,
                name,
                lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw),
            )
        members, _ = self.small_ensemble()
        assert calls == []
        built = []

        def counted(name, factory):
            def call():
                built.append(name)
                return factory()

            return call

        free = [name for name, f in members if isinstance(f, FreeMember)]
        lemma_diagnostics(
            [(name, f if name in free else counted(name, f)) for name, f in members],
            DirectionSet.default(2),
            range(2, 5),
            1.6,
        )
        assert sorted(built + free) == sorted(name for name, _ in members)
        assert built == ["picard"]
        assert calls.count("picard_solve") == 1
        assert calls.count("free_spectrum") == len(members) - 1

    def test_streamed_ensemble_memory_bound(self, monkeypatch):
        # One member's trajectory at a time: the whole run stays below six
        # trajectory sizes, where holding all 14 members would need more.
        allow_cpus(monkeypatch, 1)
        with traced_peak() as peak:
            members, shape = self.small_ensemble()
            lemma_diagnostics(members, DirectionSet.default(2), range(2, 5), 1.6)
        trajectory_bytes = 16 * math.prod(shape)
        assert peak.bytes < 6 * trajectory_bytes


class TestRunnerAndCli:
    @pytest.fixture
    def small_cfg(self, tmp_path):
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CONFIG)
        return path

    def run_cli(self, *args, cpus=None):
        # The child imports the same package as this test process and, as
        # pyproject's filterwarnings does in process, turns numpy's
        # RuntimeWarnings into errors. Given cpus, it runs on those only.
        src = str(Path(smap.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        if cpus is None:
            head = ["-m", "smap.cli"]
        else:
            head = ["-c", PINNED_CLI, ",".join(str(cpu) for cpu in sorted(cpus))]
        return subprocess.run(
            [sys.executable, *head, *args],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"},
        )

    def test_picard_writes_history_csv(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("picard", cfg) == 0
        text = (out / "picard_amp0.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,sup_hsigma0,diff_hsigma0,ratio"
        ratios = [float(line.split(",")[3]) for line in lines[2:]]
        assert all(r <= 0.5 for r in ratios)

    def test_picard_rebuilds_only_the_final_row(self, tmp_path, small_cfg, monkeypatch):
        # After each solve the command inverts one row, the snapshot it
        # writes, and never the whole fixed point: neither through
        # to_physical (single fields, on spectral.unitary_dft) nor through
        # the stack transform of the sample stream.
        grid = load_config(small_cfg).grid()
        solve, field_dft, stack_dft = runner.picard_solve, spectral.unitary_dft, solver.unitary_dft
        after_solve = []

        def solve_then_count(*args, **kwargs):
            after_solve.append(None)
            result = solve(*args, **kwargs)
            after_solve[-1] = []
            return result

        def counted(x, axes, inverse=False, *args, **kwargs):
            if inverse and after_solve and after_solve[-1] is not None:
                after_solve[-1].append(np.shape(x))
            return field_dft(x, axes, inverse, *args, **kwargs)

        def counted_stack(x, *args, **kwargs):
            if after_solve and after_solve[-1] is not None:
                after_solve[-1].append(("stack", np.shape(x)))
            return stack_dft(x, *args, **kwargs)

        monkeypatch.setattr(runner, "picard_solve", solve_then_count)
        monkeypatch.setattr(spectral, "unitary_dft", counted)
        monkeypatch.setattr(solver, "unitary_dft", counted_stack)
        cfg = load_config(small_cfg, out_dir=str(tmp_path / "out"), amplitudes=(1e-3, 1e-2))
        assert run("picard", cfg) == 0
        assert after_solve == [[grid.shape], [grid.shape]]

    def test_compare_holds_no_chart_stack_d3(self, tmp_path, monkeypatch):
        # d = 3: compare streams the chart route's physical snapshots beside
        # the sphere stream, so its traced peak stays well below one physical
        # chart trajectory, which the command held whole before.
        allow_cpus(monkeypatch, 1)
        monkeypatch.setattr(solver, "BLOCK_BYTES", 4 * 16 * 16**3)
        text = (
            "d = 3\nn = 16\nT = 0.5\ndt = 0.001953125\nsigma0 = 2.1\n"
            "amplitudes = 0.1\nshells = 2, 3\n"
        )
        cfg = parse_config(text, out_dir=str(tmp_path / "out"))
        traj_bytes = 16 * uniform_times(cfg.T, cfg.dt).size * cfg.grid().num_points
        with traced_peak() as peak:
            assert run("compare", cfg) == 0
        assert peak.bytes < 0.6 * traj_bytes

    def test_csv_determinism_excluding_comment(self, tmp_path, small_cfg):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = load_config(small_cfg, out_dir=str(out))
            run("picard", cfg)
            body = [
                line
                for line in (out / "picard_amp0.csv").read_text().splitlines()
                if not line.startswith("#")
            ]
            outs.append("\n".join(body))
        assert outs[0] == outs[1]

    def test_evolve_writes_snapshots(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("evolve", cfg) == 0
        snaps = sorted(out.glob("evolve_*.fld"))
        assert snaps
        field = read_snapshot(snaps[0])
        assert isinstance(field, SphereField)

    def test_compare_reports_distance_and_growth(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("compare", cfg) == 0
        assert (out / "compare.csv").exists()
        growth = (out / "gronwall.csv").read_text().splitlines()
        assert growth[1] == "t,energy,rate"

    def test_compare_growth_matches_lifted_trajectory(self, tmp_path, small_cfg):
        # compare takes the difference energy snapshot by snapshot; the CSV
        # body equals the diagnostic of the whole lifted chart trajectory.
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("compare", cfg) == 0
        grid = cfg.grid()
        phi = seeded_data(cfg.data_kind, cfg.amplitudes[0], cfg.seed, grid, cfg.sigma0)
        chart, _ = picard_solve(
            phi, cfg.T, cfg.dt, tol=cfg.tol, max_iter=cfg.max_iter, sigma0=cfg.sigma0,
            policy=DealiasPolicy(cfg.dealias),
        )
        s0 = stereo_lift(to_physical(phi))
        sphere = midpoint_stack(s0, cfg.T, cfg.dt, inner_tol=cfg.inner_tol)
        lifted = np.stack(
            [
                stereo_lift(ComplexField(grid, float(t), PHYSICAL, row)).values
                for t, row in zip(chart.times, physical_stack(chart))
            ]
        )
        want = gronwall_of(chart.times, sphere, lifted, grid)
        body = (out / "gronwall.csv").read_text().split("\n", 1)[1]
        assert body == want.to_csv(timestamp=False).split("\n", 1)[1]

    def test_sweep_telemetry_in_comment_lines(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("evolve", cfg) == 0
        assert run("compare", cfg) == 0
        grid = cfg.grid()
        starts = {
            "evolve.csv": sphere_seeded_data(
                cfg.data_kind, cfg.amplitudes[0], cfg.seed, grid, cfg.sigma0
            ),
            "compare.csv": stereo_lift(
                seeded_data(cfg.data_kind, cfg.amplitudes[0], cfg.seed, grid, cfg.sigma0)
            ),
        }
        for name, s0 in starts.items():
            comment = (out / name).read_text().splitlines()[0]
            meta = dict(part.split("=", 1) for part in comment.split()[1:])
            sweeps = [n for _, _, n in midpoint_snapshots(s0, cfg.T, cfg.dt, cfg.inner_tol)]
            assert int(meta["inner_sweeps"]) == sum(sweeps)
            assert int(meta["inner_sweeps_max"]) == max(sweeps)

    def test_norms_emits_schema_report(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("norms", cfg) == 0
        lines = (out / "lemma_diagnostics.csv").read_text().splitlines()
        assert lines[1] == "trajectory_id,k,quantity,direction,value"
        quantities = {line.split(",")[2] for line in lines[2:]}
        assert {"Xk", "R1", "R2", "R3", "R4", "Fsigma"} <= quantities
        assert (out / "linear_estimate.csv").exists()

    def test_norms_bodies_deterministic(self, tmp_path, small_cfg, monkeypatch):
        # Both CSV bodies repeat byte for byte across runs and thread counts,
        # with the members built by their factories on the pool threads.
        bodies = []
        for sub, threads in (("a", 1), ("b", 1), ("c", 2), ("d", 3)):
            allow_cpus(monkeypatch, threads)
            out = tmp_path / sub
            assert run("norms", load_config(small_cfg, out_dir=str(out))) == 0
            bodies.append(
                [
                    (out / name).read_text().split("\n", 1)[1]
                    for name in ("lemma_diagnostics.csv", "linear_estimate.csv")
                ]
            )
        assert bodies[0] == bodies[1] == bodies[2] == bodies[3]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity call")
    def test_norms_bodies_match_across_affinity_masks(self, tmp_path, small_cfg):
        # The pool sizes itself from the CPUs the command may run on: one,
        # then every usable CPU, with the same CSV bodies byte for byte.
        usable = os.sched_getaffinity(0)
        bodies = []
        for sub, cpus in (("one", {min(usable)}), ("all", usable)):
            out = tmp_path / sub
            res = self.run_cli("norms", "--config", str(small_cfg), "--out", str(out), cpus=cpus)
            assert res.returncode == 0, res.stdout + res.stderr
            bodies.append(
                [
                    (out / name).read_bytes().split(b"\n", 1)[1]
                    for name in ("lemma_diagnostics.csv", "linear_estimate.csv")
                ]
            )
        assert bodies[0] == bodies[1]

    def test_norms_picard_member_follows_config(self, tmp_path, small_cfg):
        # The ensemble's fixed-point member solves under the config's
        # dealias rule (and tol, max_iter); the free members do not solve.
        rows = {}
        for dealias in ("two_thirds", "none"):
            out = tmp_path / dealias
            assert run("norms", load_config(small_cfg, out_dir=str(out), dealias=dealias)) == 0
            rows[dealias] = (out / "lemma_diagnostics.csv").read_text().splitlines()[2:]
        picard = {rule: [r for r in body if r.startswith("picard,")] for rule, body in rows.items()}
        assert picard["two_thirds"] and picard["two_thirds"] != picard["none"]
        free = {rule: [r for r in body if r.startswith("mode_")] for rule, body in rows.items()}
        assert free["two_thirds"] and free["two_thirds"] == free["none"]

    def test_norms_transforms_only_the_ensemble(self, tmp_path, small_cfg, monkeypatch):
        # One space-time transform per ensemble member; the linear-estimate
        # data are pooled in closed form, so they build no spectrum.
        calls = []
        transform = spacetime._transform
        monkeypatch.setattr(
            spacetime, "_transform", lambda *a, **kw: calls.append(None) or transform(*a, **kw)
        )
        out = tmp_path / "out"
        assert run("norms", load_config(small_cfg, out_dir=str(out))) == 0
        lines = (out / "lemma_diagnostics.csv").read_text().splitlines()
        meta = dict(part.split("=", 1) for part in lines[0].split()[1:])
        assert len(calls) == int(meta["num_members"]) > 0
        free = [line for line in lines[2:] if line.startswith("free_phi")]
        assert len(free) == 20 and all(",Fsigma," in line for line in free)

    def test_axes_only_direction_set(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out), directions="axes")
        assert run("norms", cfg) == 0

    def test_cli_verify_exit_zero(self, tmp_path, small_cfg):
        res = self.run_cli("verify", "--config", str(small_cfg), "--out", str(tmp_path / "v"))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all" in res.stdout and "passed" in res.stdout

    def test_cli_zero_amplitude_every_command(self, tmp_path):
        # Zero data: the Picard solve stops before its first map and records
        # no ratio, which verify's contraction check once took the max of.
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            SMALL_CONFIG.replace("amplitudes = 1e-3", "amplitudes = 0").replace(
                "T = 0.125", "T = 0.0625"
            )
        )
        out = tmp_path / "out"
        for command in runner.COMMANDS:
            res = self.run_cli(command, "--config", str(cfg), "--out", str(out))
            assert res.returncode in (0, 2, 3, 4), (command, res.stderr)
            assert "Traceback" not in res.stderr, command
        rows = (out / "verify.csv").read_text().splitlines()[2:]
        assert len(rows) == 31
        assert all(row.endswith(",true") for row in rows)

    def test_cli_small_grid_needs_shells_only_for_norms(self, tmp_path):
        # The default shells 2..6 pass the last shell (4) of the d = 1,
        # n = 16 ensemble grid. Only norms reads them: the other commands
        # run, and norms exits 2 and leaves no output directory.
        cfg = tmp_path / "small_grid.cfg"
        cfg.write_text("d = 1\nn = 16\n")
        out = tmp_path / "out"
        for command in ("picard", "evolve", "compare", "verify"):
            res = self.run_cli(command, "--config", str(cfg), "--out", str(out))
            assert res.returncode == 0, (command, res.stderr)
        rows = (out / "verify.csv").read_text().splitlines()[2:]
        assert len(rows) == 31 and all(row.endswith(",true") for row in rows)
        res = self.run_cli("norms", "--config", str(cfg), "--out", str(tmp_path / "n"))
        assert res.returncode == 2
        assert "ConfigError: norms: shells must not exceed 4" in res.stderr
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("dt", ["0.0625", "0.03125", "0.25"])
    def test_cli_verify_coarse_dt_exit_zero(self, tmp_path, dt):
        # verify's reduced run steps by at most 1/64: a step of 4 dt overran
        # its own T <= 0.125 and picard's T <= 1 (dt = 1/16, 1/4) or stalled
        # the midpoint sweeps (dt = 1/32).
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(f"T = 0.5\ndt = {dt}\n")
        res = self.run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "v"))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_retired_thread_variable_is_ignored(
        self, tmp_path, small_cfg, monkeypatch, capsys, value
    ):
        # SMAP_THREADS no longer sets anything: values that ended the command
        # with exit 2 before it made its output directory now leave the run
        # as it is without them.
        monkeypatch.setenv("SMAP_THREADS", value)
        out = tmp_path / "o"
        assert cli.main(["picard", "--config", str(small_cfg), "--out", str(out)]) == 0
        assert "SMAP_THREADS" not in capsys.readouterr().err
        assert out.is_dir() and any(out.iterdir())

    def test_allocation_failure_exit_two(self, tmp_path, small_cfg, monkeypatch, capsys):
        # An array the config asks for that does not fit (d = 3, n = 512 asks
        # picard_solve for an 82 GB band iterate) ends as a config error with
        # numpy's message, not a traceback with exit 1. The solve's workspace
        # allocation is patched to fail as numpy's would, so nothing large
        # is allocated.
        message = "Unable to allocate 82.0 GiB for an array with shape (129, 341, 341, 341)"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(solver, "complex_work", no_memory)
        out = tmp_path / "o"
        assert cli.main(["picard", "--config", str(small_cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"ConfigError: not enough memory for this config: {message}\n"
        assert not out.exists()

    def test_failed_norms_leaves_no_directory(self, tmp_path, capsys):
        # The ensemble's Picard member stops after one map; norms has written
        # nothing yet, so the directories it made (parent included) go again,
        # and an output directory that existed before stays.
        cfg = tmp_path / "one_iter.cfg"
        cfg.write_text(SMALL_CONFIG.replace("max_iter = 40", "max_iter = 1"))
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (tmp_path / "new" / "o", kept):
            assert cli.main(["norms", "--config", str(cfg), "--out", str(out)]) == 4
            assert capsys.readouterr().err.startswith("MaxIterExceeded: ")
        assert not (tmp_path / "new").exists()
        assert kept.is_dir() and not any(kept.iterdir())

    def test_cli_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate = 3\n")
        res = self.run_cli("picard", "--config", str(bad))
        assert res.returncode == 2
        assert "ConfigError" in res.stderr

    def test_cli_config_not_utf8_exit_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe")
        res = self.run_cli("picard", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert "ConfigError: cannot read config file" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
    def test_cli_output_path_through_a_file_exit_two(self, tmp_path, small_cfg, below):
        # --out names an existing file, or a directory under one: the command
        # exits 2 before any work and leaves the file as it was.
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / below if below else blocker
        res = self.run_cli("picard", "--config", str(small_cfg), "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "ConfigError: cannot use output directory" in res.stderr
        assert "Traceback" not in res.stderr
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "line", ["amplitudes = nan", "shells = 40", "data_kind = nope", "dt = 0.003", "seed = -1"]
    )
    def test_cli_rejected_config_exit_two(self, tmp_path, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        out = tmp_path / "o"
        res = self.run_cli("norms", "--config", str(bad), "--out", str(out))
        assert res.returncode == 2
        assert "ConfigError" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, lines",
        [
            # seeded_data's width**2 raised OverflowError: a traceback, exit 1.
            ("picard", "period = 1e200\n"),
            # Overflow warnings, then exit 0 with the history of a garbage field.
            ("picard", "period = 1e154\n"),
            # NoContraction: ||phi|| = nan, exit 4.
            ("picard", "period = 1e-300\n"),
            # OverflowError in the shell kernel: a traceback, exit 1.
            (
                "norms",
                "ensemble_period = 1e-300\nshells = 2\nensemble_samples = 256\ndt = 0.0078125\n",
            ),
            # Exit 2, but for "shells must not exceed -660".
            ("norms", "ensemble_period = 1e200\n"),
            # OverflowError from GridSpec.cell_volume (spacing**3): a traceback, exit 1.
            ("picard", OVERFLOW_D3 + "period = 1e120\n"),
            # NoContraction: the weight (1 + |xi|^2)^sigma0 overflows, so
            # ||phi|| = nan, exit 4.
            ("picard", OVERFLOW_D3 + "period = 1e-100\n"),
            # The weight (1 + |xi|^2)^(sigma0 + 1) overflows at the default
            # period because of sigma0, and the message named the period only.
            ("picard", "d = 2\nn = 64\nsigma0 = 400\n"),
        ],
    )
    def test_cli_overflowing_period_exit_two(self, tmp_path, command, lines):
        # A period whose squared box length or largest |xi|^2 is not a finite
        # float, whose box or cell volume is not a finite, nonzero one, or
        # whose largest Bessel weight at sigma0 + 1 overflows is a config
        # error, for the solve grid and the ensemble grid. Cases that name
        # no dimension run at d = 1, n = 16.
        bad = tmp_path / "bad.cfg"
        bad.write_text(lines if lines.startswith("d = ") else "d = 1\nn = 16\n" + lines)
        out = tmp_path / "o"
        res = self.run_cli(command, "--config", str(bad), "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "ConfigError" in res.stderr and "overflows the grid" in res.stderr
        if "Bessel weight" in res.stderr:  # sigma0 or the period may overflow it: name both
            assert re.search(r"period \S+ with sigma0 \S+ overflows the grid", res.stderr)
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines",
        [
            # dt divides T but not the linear-estimate window 2 * t_window = 2.
            "T = 0.3\ndt = 0.003\n",
            # The ensemble step 2 * t_window / ensemble_samples = 0.002 does not divide T.
            "T = 0.125\nensemble_samples = 1000\n",
            # Shell 5 reaches |xi|^2 = 961 on the ensemble grid, past the
            # pi * 256 / 2 ~ 402 that its window resolves: it would alias.
            "d = 1\nn = 64\nensemble_samples = 256\nshells = 2, 3, 4, 5\n",
            # The solve grid reaches |xi|^2 ~ 120, past the pi / dt ~ 101
            # that the linear-estimate window resolves.
            "dt = 0.03125\n",
        ],
    )
    def test_cli_norms_window_exit_two(self, tmp_path, lines):
        bad = tmp_path / "bad.cfg"
        bad.write_text(lines)
        out = tmp_path / "o"
        res = self.run_cli("norms", "--config", str(bad), "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "ConfigError" in res.stderr and "norms:" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, SMALL_CONFIG], ids=["default", "small"])
    def test_norms_windows_resolve_default_and_small(self, tmp_path, text):
        # Default: shells reach |xi|^2 = 1922 < pi * 1280 / 2 ~ 2010.6, and
        # the solve grid 120.1 < pi / dt ~ 804.2.
        path = None
        if text is not None:
            path = tmp_path / "small.cfg"
            path.write_text(text)
        cfg = load_config(path)
        assert _norms_windows(cfg) == round(2.0 * cfg.t_window / cfg.dt)

    def test_cli_no_contraction_exit_four(self, tmp_path, small_cfg):
        big = tmp_path / "big.cfg"
        big.write_text(SMALL_CONFIG.replace("amplitudes = 1e-3", "amplitudes = 1e3"))
        res = self.run_cli(
            "picard", "--config", str(big), "--out", str(tmp_path / "o4")
        )
        assert res.returncode == 4
        assert "NoContraction" in res.stderr
        history = (tmp_path / "o4" / "picard_amp0.csv").read_text().splitlines()
        assert "error=NoContraction" in history[0]
        assert len(history) > 2

    def test_failed_picard_keeps_partial_history(self, tmp_path):
        # Amplitude 40 leaves the smallness regime of the default grid.
        out = tmp_path / "out"
        cfg = load_config(None, out_dir=str(out), amplitudes=(40.0,))
        with pytest.raises(NoContraction) as err:
            run("picard", cfg)
        lines = (out / "picard_amp0.csv").read_text().splitlines()
        assert "error=NoContraction" in lines[0]
        assert lines[1] == "n,sup_hsigma0,diff_hsigma0,ratio"
        records = err.value.history.records
        assert records
        assert [int(line.split(",")[0]) for line in lines[2:]] == [r.n for r in records]
        assert [float(line.split(",")[3]) for line in lines[2:]] == [r.ratio for r in records]

    def test_cli_subcritical_flag(self, tmp_path):
        sub = tmp_path / "sub.cfg"
        sub.write_text(SMALL_CONFIG.replace("sigma0 = 1.6", "sigma0 = 1.2"))
        res = self.run_cli("picard", "--config", str(sub), "--out", str(tmp_path / "o5"))
        assert res.returncode == 2
        res = self.run_cli(
            "picard",
            "--config",
            str(sub),
            "--out",
            str(tmp_path / "o6"),
            "--allow-subcritical",
        )
        assert res.returncode == 0
        header = (tmp_path / "o6" / "picard_amp0.csv").read_text().splitlines()[0]
        assert "subcritical=true" in header


class TestVerifyContract:
    # The route_d3 benchmark config; its verify.csv is the gate's baseline.
    BASELINE = Path(__file__).resolve().parents[1] / "bench/baseline/route_d3/verify.csv"

    @pytest.mark.parametrize("dealias", ["two_thirds", "none"])
    def test_checks_match_the_route_d3_baseline(self, tmp_path, dealias):
        # Names, order, thresholds and outcomes of every check; the none rule
        # has no dealias_support check.
        rows = [line.split(",") for line in self.BASELINE.read_text().splitlines()[1:]]
        want = [(name, float(threshold), passed == "true") for name, _, threshold, passed in rows]
        if dealias == "none":
            want = [row for row in want if row[0] != "dealias_support"]
        config = ExperimentConfig(
            d=3, n=32, sigma0=2.1, amplitudes=(0.5,), seed=7, dealias=dealias
        )
        results = checks.run_checks(config, tmp_path)
        assert [(r.name, r.threshold, r.passed) for r in results] == want


class TestVerifySpaceTime:
    # verify's space-time section runs on the kernels behind norms
    # (_cell_power, _shell_reductions), so a fault in either fails it.
    SECTION = (
        "spacetime_plancherel",
        "shell_completeness",
        "region_mask_idempotent",
        "lpq_fubini",
        "lpq_cauchy_schwarz",
    )

    @staticmethod
    def failed_checks():
        config = ExperimentConfig(d=3, n=32, sigma0=2.1)
        results = []

        def check(name, value, threshold):
            results.append((name, value <= threshold))

        checks._spacetime_checks(config, config.grid(), np.random.default_rng(7), check)
        assert [name for name, _ in results] == list(TestVerifySpaceTime.SECTION)
        return [name for name, ok in results if not ok]

    def test_scaled_shell_reductions_fail_plancherel(self, monkeypatch):
        # Both sample-side sums scale alike, so only the comparison with the
        # pooled spectrum sees the fault.
        reductions = checks._shell_reductions
        monkeypatch.setattr(
            checks,
            "_shell_reductions",
            lambda *args: tuple((1.0 + 1e-9) * out for out in reductions(*args)),
        )
        assert self.failed_checks() == ["spacetime_plancherel"]

    def test_dropped_cell_class_fails_plancherel_and_completeness(self, monkeypatch):
        # The |xi| = 0 class (the first in np.unique order) lies in shell 0.
        cell_power = checks._cell_power

        def dropped(F):
            P = cell_power(F)
            P.cells[:, 0] = 0.0
            return P

        monkeypatch.setattr(checks, "_cell_power", dropped)
        assert self.failed_checks() == ["spacetime_plancherel", "shell_completeness"]

    def test_one_window_stack_at_d3(self):
        # verify's space-time section at d = 3, n = 32: the free evolution's
        # spectrum is transformed in its own buffer, pooled block by block
        # and inverted on shell 0's columns (3% of the points), so about one
        # 64-row window stack is alive (2.09 when the samples were copied
        # and reduced through |u|, omega and masked stacks; 2.02 when the
        # inverted shell covers 86% of the points).
        config = ExperimentConfig(d=3, n=32, sigma0=2.1)
        grid = config.grid()
        results = []

        def check(name, value, threshold):
            results.append((name, value <= threshold))

        with traced_peak() as peak:
            checks._spacetime_checks(config, grid, np.random.default_rng(7), check)
        assert peak.bytes < 1.3 * 16 * 64 * grid.num_points
        assert results == [(name, True) for name in self.SECTION]
