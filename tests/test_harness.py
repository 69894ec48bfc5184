import subprocess
import sys

import numpy as np
import pytest

from smap.errors import ConfigError, NoContraction
from smap.geometry import SphereField
from smap.grid import GridSpec
from smap.harness.config import ExperimentConfig, load_config, parse_config
from smap.harness.data import build_lemma_ensemble, seeded_data, sphere_seeded_data
from smap.harness.runner import run
from smap.harness.snapshots import read_snapshot, write_snapshot
from smap.solver import uniform_times
from smap.spectral import PHYSICAL, ComplexField, hsigma_norm, to_frequency

SMALL_CONFIG = """
# small deterministic run
d = 2
n = 16
period = 4.0
T = 0.125
dt = 0.015625
sigma0 = 1.6
amplitudes = 1e-3
perturbations = 1e-4
tol = 1e-10
max_iter = 40
dealias = two_thirds
directions = axes_diagonals
seed = 11
ensemble_samples = 64
shells = 1,2
snapshot_stride = 4
"""


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
            "perturbations = inf",
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
        assert ExperimentConfig().ensemble_grid().max_shell == 7
        parse_config("shells = 2, 7")
        with pytest.raises(ConfigError, match="shells must not exceed 7"):
            parse_config("shells = 40")

    @pytest.mark.parametrize(
        "line, match",
        [
            ("seed = -1", "seed must be non-negative"),
            ("data_kind = nope", "unknown data kind"),
            ("T = 0.5\ndt = 0.003", "does not divide"),
        ],
    )
    def test_bad_input_is_config_error(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(line)

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
        times = uniform_times(2.0, 2.0 / 64, t0=-1.0)
        members = build_lemma_ensemble(
            grid, range(2, 7), times, seed=7, T=0.125, dt=2.0 / 64, sigma0=1.6
        )
        names = [name for name, _ in members]
        assert len(members) == 20
        assert len(set(names)) == 20


class TestRunnerAndCli:
    @pytest.fixture
    def small_cfg(self, tmp_path):
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CONFIG)
        return path

    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "smap.cli", *args],
            capture_output=True,
            text=True,
            timeout=600,
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

    def test_norms_emits_schema_report(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out))
        assert run("norms", cfg) == 0
        lines = (out / "lemma_diagnostics.csv").read_text().splitlines()
        assert lines[1] == "trajectory_id,k,quantity,direction,value"
        quantities = {line.split(",")[2] for line in lines[2:]}
        assert {"Xk", "R1", "R2", "R3", "R4", "Fsigma"} <= quantities
        assert (out / "linear_estimate.csv").exists()

    def test_axes_only_direction_set(self, tmp_path, small_cfg):
        out = tmp_path / "out"
        cfg = load_config(small_cfg, out_dir=str(out), directions="axes")
        assert run("norms", cfg) == 0

    def test_cli_verify_exit_zero(self, tmp_path, small_cfg):
        res = self.run_cli("verify", "--config", str(small_cfg), "--out", str(tmp_path / "v"))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "all" in res.stdout and "passed" in res.stdout

    def test_cli_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate = 3\n")
        res = self.run_cli("picard", "--config", str(bad))
        assert res.returncode == 2
        assert "ConfigError" in res.stderr

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
