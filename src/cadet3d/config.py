"""Run configuration: dataclass defaults plus a flat ``key = value`` file format.

Angles are degrees in the file and converted to radians exactly once at load;
everything downstream works in radians. The seed is mandatory so no run ever
depends on wall-clock state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .geometry import Transform


class ConfigError(ValueError):
    """Bad key, bad value, or missing mandatory setting."""


@dataclass
class RunConfig:
    seed: int = -1  # mandatory; -1 means "not set"
    dataset_root: str = "dataset"
    out_dir: str = "run"
    threads: int = 1  # validated, otherwise unused: detection runs serially
    # dataset
    n_scenes: int = 200
    n_val_scenes: int = 50
    fraction: float = 0.05
    # channel policies, their only defaults (angles in degrees here)
    n_channels: int = 3
    weak_rot_deg: float = 22.5
    weak_scale_low: float = 0.98
    weak_scale_high: float = 1.02
    strong_rot_deg: float = 45.0
    strong_scale_low: float = 0.95
    strong_scale_high: float = 1.05
    strong_flip_prob: float = 0.5
    # training
    pretrain_epochs: int = 25
    epochs: int = 10
    threshold_period: int = 5
    ema_momentum: float = 0.999
    prefilter_min_score: float = 0.1
    shuffle_grid_cells: int = 4
    unsup_background_weight: float = 0.3

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed is mandatory (set it in the config file or pass --seed)")
        # the weak scales are checked even when n_channels = 1 reads neither
        for key, ok, rule in (
            ("dataset_root", bool(self.dataset_root), "must not be empty"),
            ("dataset_root", "\0" not in self.dataset_root, "must not hold a NUL byte"),
            ("out_dir", bool(self.out_dir), "must not be empty"),
            ("out_dir", "\0" not in self.out_dir, "must not hold a NUL byte"),
            ("fraction", 0.0 < self.fraction <= 1.0, "must be in (0, 1]"),
            ("n_scenes", self.n_scenes >= 1, "must be >= 1"),
            ("n_val_scenes", self.n_val_scenes >= 0, "must be >= 0"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
            ("pretrain_epochs", self.pretrain_epochs >= 0, "must be >= 0"),
            ("threshold_period", self.threshold_period >= 1, "must be >= 1"),
            ("ema_momentum", 0.0 <= self.ema_momentum <= 1.0, "must be in [0, 1]"),
            # scores p_hat * o_hat lie in [0, 1]
            ("prefilter_min_score", 0.0 <= self.prefilter_min_score <= 1.0, "must be in [0, 1]"),
            ("shuffle_grid_cells", self.shuffle_grid_cells >= 0, "must be >= 0"),
            ("unsup_background_weight", self.unsup_background_weight >= 0.0, "must be >= 0"),
            ("threads", self.threads >= 1, "must be >= 1"),
            ("n_channels", self.n_channels in (1, 3), "must be 1 or 3"),
            ("weak_scale_low", self.weak_scale_low > 0.0, "must be > 0"),
            ("weak_scale_high", self.weak_scale_high > 0.0, "must be > 0"),
            ("strong_rot_deg", self.strong_rot_deg >= 0.0, "must be >= 0"),
            ("strong_scale_low", self.strong_scale_low > 0.0, "must be > 0"),
            ("strong_scale_low", self.strong_scale_low <= self.strong_scale_high,
             "must be <= strong_scale_high"),
            ("strong_flip_prob", 0.0 <= self.strong_flip_prob <= 1.0, "must be in [0, 1]"),
        ):
            if not ok:
                raise ConfigError(f"bad value for {key!r}: {rule}, got {getattr(self, key)!r}")

    def weak_policy(self, n_channels: int | None = None) -> tuple[Transform, ...]:
        """The teacher's fixed channel transforms: the identity, then for 3
        channels two mirrored, counter-rotated, re-scaled ones."""
        n = self.n_channels if n_channels is None else n_channels
        if n == 1:
            return (Transform.identity(),)
        if n != 3:
            raise ValueError("the weak policy is defined for 1 or 3 channels")
        rot = math.radians(self.weak_rot_deg)
        return (
            Transform.identity(),
            Transform(flip_y=True, theta=-rot, s=self.weak_scale_low),
            Transform(flip_y=True, theta=rot, s=self.weak_scale_high),
        )


def _flatten(cfg: RunConfig) -> dict[str, object]:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _coerce(raw: str, template):
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    return raw


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in _flatten(cfg).items())


def parse_config_text(text: str) -> dict[str, str]:
    """``key: value`` per ``key = value`` line; a key set on two lines raises."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in line_of:
            raise ConfigError(f"config key {key!r} is set twice, on lines {line_of[key]} "
                              f"and {line_no}")
        line_of[key] = line_no
        out[key] = value.strip()
    return out


def load_config(path=None, overrides: dict[str, object] | None = None) -> RunConfig:
    """Defaults, then file values, then explicit overrides (e.g. CLI flags)."""
    defaults = _flatten(RunConfig())
    flat: dict[str, object] = dict(defaults)
    if path is not None:
        for key, raw in parse_config_text(Path(path).read_text()).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                flat[key] = _coerce(raw, defaults[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        flat[key] = value
    cfg = RunConfig(**flat)
    cfg.validate()
    return cfg
