"""Experiment configuration: key = value text files with strict validation.

Unknown keys are rejected so typos cannot silently fall back to defaults.
The regularity index must exceed (d+1)/2 unless the subcritical override is
set, in which case all outputs are labeled as exploratory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ..errors import ConfigError
from ..grid import GridSpec
from ..solver import default_sigma0, uniform_times
from .data import DATA_KINDS


@dataclass
class ExperimentConfig:
    d: int = 2
    n: int = 64
    period: float = 4.0
    T: float = 0.5
    dt: float = 1.0 / 256.0
    sigma0: float = 1.6
    amplitudes: tuple = (1e-3, 1e-2)
    tol: float = 1e-10
    max_iter: int = 40
    dealias: str = "two_thirds"
    directions: str = "axes_diagonals"
    seed: int = 7
    out_dir: str = "out"
    inner_tol: float = 1e-12
    t_window: float = 1.0
    data_kind: str = "gaussian_bump"
    snapshot_stride: int = 16
    ensemble_period: float = 1.0
    ensemble_samples: int = 1280
    shells: tuple = (2, 3, 4, 5, 6)
    allow_subcritical: bool = False
    subcritical: bool = field(default=False, init=False)

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in items):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        # Grid checks, and norms weighs both grids up to H^(sigma0 + 1).
        for label, build in (("", self.grid), ("ensemble grid: ", self.ensemble_grid)):
            try:
                grid = build()
                (1.0 + grid.d * grid.nyquist**2) ** (self.sigma0 + 1.0)
            except ValueError as exc:
                raise ConfigError(f"{label}{exc}") from exc
            except OverflowError:
                raise ConfigError(
                    f"{label}period {grid.period} with sigma0 {self.sigma0} overflows the "
                    f"grid: the largest Bessel weight (1 + |xi|^2)^(sigma0 + 1) must be finite"
                ) from None
        positive = ["T", "dt", "tol", "inner_tol", "t_window", "ensemble_period"]
        for name in positive:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.T > 1.0 + 1e-12:
            raise ConfigError(f"solve window must satisfy T <= 1, got {self.T}")
        try:
            uniform_times(self.T, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"unknown data kind {self.data_kind!r}; choose from {DATA_KINDS}")
        if self.max_iter < 1 or self.snapshot_stride < 1 or self.ensemble_samples < 16:
            raise ConfigError("max_iter, snapshot_stride >= 1; ensemble_samples >= 16")
        if any(a < 0 for a in self.amplitudes) or not self.amplitudes:
            raise ConfigError("amplitudes must be non-negative and non-empty")
        if self.dealias not in ("two_thirds", "none"):
            raise ConfigError(f"unknown dealias rule {self.dealias!r}")
        if self.directions not in ("axes", "axes_diagonals"):
            raise ConfigError(f"unknown direction set {self.directions!r}")
        if any(k < 0 for k in self.shells) or not self.shells:
            raise ConfigError("shells must be non-negative and non-empty")
        if len(set(self.shells)) != len(self.shells):
            raise ConfigError(f"shells must not repeat, got {self.shells}")
        threshold = default_sigma0(self.d) - 0.1
        if self.sigma0 <= threshold:
            if not self.allow_subcritical:
                raise ConfigError(
                    f"sigma0={self.sigma0} is at or below the supported threshold "
                    f"(d+1)/2={threshold}; pass --allow-subcritical for "
                    "exploratory runs"
                )
            self.subcritical = True

    def grid(self) -> GridSpec:
        return GridSpec(self.d, self.n, self.period)

    def ensemble_grid(self) -> GridSpec:
        return GridSpec(self.d, self.n, self.ensemble_period)

    def meta(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ";".join(str(x) for x in v)
            out[f.name] = v
        return out


_INT_KEYS = {"d", "n", "max_iter", "seed", "snapshot_stride", "ensemble_samples"}
_FLOAT_KEYS = {"period", "T", "dt", "sigma0", "tol", "inner_tol", "t_window", "ensemble_period"}
_LIST_FLOAT_KEYS = {"amplitudes"}
_LIST_INT_KEYS = {"shells"}
_STR_KEYS = {"dealias", "directions", "out_dir", "data_kind"}
_BOOL_KEYS = {"allow_subcritical"}


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _LIST_FLOAT_KEYS:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if key in _LIST_INT_KEYS:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse 'key = value' lines; blank lines and '#' comments are ignored."""
    known = _INT_KEYS | _FLOAT_KEYS | _LIST_FLOAT_KEYS | _LIST_INT_KEYS | _STR_KEYS | _BOOL_KEYS
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path=None, **overrides) -> ExperimentConfig:
    """Read a config file (defaults when path is None) with CLI overrides."""
    if path is None:
        cfg = ExperimentConfig()
        if overrides:
            cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        return cfg
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, **overrides)
