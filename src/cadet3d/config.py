"""Run configuration: dataclass defaults plus a flat ``key = value`` file format.

Angles are degrees in the file and converted to radians exactly once at load;
everything downstream works in radians. The seed is mandatory so no run ever
depends on wall-clock state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .augment import StrongRanges, weak_default_policy
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
        for key in ("dataset_root", "out_dir"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must not be empty")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.n_scenes < 1 or self.n_val_scenes < 0:
            raise ConfigError("scene counts must be positive")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.threshold_period < 1:
            raise ConfigError("threshold_period must be >= 1")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ConfigError("ema_momentum must be in [0, 1]")
        if not 0.0 <= self.prefilter_min_score <= 1.0:  # scores p_hat * o_hat lie in [0, 1]
            raise ConfigError("prefilter_min_score must be in [0, 1]")
        if self.shuffle_grid_cells < 0:
            raise ConfigError("shuffle_grid_cells must be >= 0")
        if not self.unsup_background_weight >= 0.0:
            raise ConfigError("unsup_background_weight must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def weak_policy(self, n_channels: int | None = None) -> tuple[Transform, ...]:
        """The teacher's fixed channel transforms, identity first."""
        return weak_default_policy(
            n_channels=self.n_channels if n_channels is None else n_channels,
            rot=math.radians(self.weak_rot_deg),
            scale_low=self.weak_scale_low,
            scale_high=self.weak_scale_high,
        )

    def strong_policy(self) -> StrongRanges:
        """The ranges the student's ``n_channels`` channel transforms are drawn from."""
        rot = math.radians(self.strong_rot_deg)
        return StrongRanges(
            rot_min=-rot,
            rot_max=rot,
            scale_min=self.strong_scale_low,
            scale_max=self.strong_scale_high,
            flip_prob=self.strong_flip_prob,
        )


# the config keys each channel policy is built from
_WEAK_KEYS = ("n_channels", "weak_rot_deg", "weak_scale_low", "weak_scale_high")
_STRONG_KEYS = ("strong_rot_deg", "strong_scale_low", "strong_scale_high", "strong_flip_prob")


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


def _built(build, keys, flat: dict[str, object], defaults: dict[str, object]):
    """``build()``, its ValueError re-raised as a ConfigError that names those of
    ``keys`` set away from their defaults (the defaults always build)."""
    try:
        return build()
    except ValueError as exc:
        named = ", ".join(repr(k) for k in keys if flat[k] != defaults[k])
        raise ConfigError(f"bad value for {named}: {exc}") from None


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in _flatten(cfg).items())


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
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
    # built here so that a value no policy accepts fails before a command writes
    for build, keys in ((cfg.weak_policy, _WEAK_KEYS), (cfg.strong_policy, _STRONG_KEYS)):
        _built(build, keys, flat, defaults)
    return cfg
