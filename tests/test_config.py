import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d.config import (
    ConfigError,
    RunConfig,
    _flatten,
    config_to_text,
    load_config,
    parse_config_text,
)
from cadet3d.geometry import Transform


class TestConfigFile:
    def test_defaults_need_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(None)

    def test_seed_via_override(self):
        cfg = load_config(None, {"seed": 7})
        assert cfg.seed == 7

    def test_text_roundtrip(self, tmp_path):
        cfg = load_config(None, {"seed": 3})
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(cfg))
        back = load_config(path)
        assert config_to_text(back) == config_to_text(cfg)

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 11\nepochs = 4\nsynth.object_radius = 10.5\n")
        cfg = load_config(path)
        assert cfg.seed == 11
        assert cfg.epochs == 4
        assert cfg.synth.object_radius == 10.5

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\n\nseed = 5\n")
        assert load_config(path).seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\nnot_a_key = 2\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\nepochs = banana\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("seed 1\n")

    def test_fraction_validated(self):
        with pytest.raises(ConfigError, match="fraction"):
            load_config(None, {"seed": 1, "fraction": 0.0})

    def test_threads_validated(self):
        with pytest.raises(ConfigError, match="threads"):
            load_config(None, {"seed": 1, "threads": 0})

    @pytest.mark.parametrize("key, value", [("n_channels", "2"),
                                            ("weak_scale_low", "0"),
                                            ("strong_scale_low", "-1"),
                                            ("strong_flip_prob", "7"),
                                            ("strong_rot_deg", "inf"),
                                            ("unsup_background_weight", "nan"),
                                            ("prefilter_min_score", "nan"),
                                            ("synth.object_radius", "nan"),
                                            ("synth.ground_points", "-1"),
                                            ("synth.max_per_class", "-1"),
                                            ("synth.clutter_max", "1"),
                                            ("synth.range_scale", "0"),
                                            ("synth.size_jitter", "-0.1"),
                                            ("synth.ground_sigma", "-1"),
                                            ("synth.surface_inset", "-0.05")])
    def test_unbuildable_value_named_at_load(self, tmp_path, key, value):
        path = tmp_path / "cfg.txt"
        path.write_text(f"seed = 1\nepochs = 3\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^bad value for '{key}': "):
            load_config(path)

    # the detector's settings are constants of detector.py, not config keys
    @pytest.mark.parametrize("key, value", [("det.min_cells", "3"),
                                            ("det.voxel.voxel_size", "0"),
                                            ("det.learning_rate", "0"),
                                            ("det.roi_enlarge", "0"),
                                            ("det.voxel.nx", "-5"),
                                            ("det.voxel.ny", "0")])
    def test_former_detector_key_unknown(self, tmp_path, key, value):
        path = tmp_path / "cfg.txt"
        path.write_text(f"seed = 1\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            load_config(path)

    def test_key_count(self):
        keys = _flatten(RunConfig())
        assert len(keys) == 35
        assert not any(k.startswith("det.") for k in keys)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 1\nout_dir = from_file\n")
        cfg = load_config(path, {"out_dir": "from_cli"})
        assert cfg.out_dir == "from_cli"


KNOWN_KEYS = sorted(_flatten(RunConfig()))


@st.composite
def config_text(draw):
    """Any text, or ``key = value`` lines over mostly known keys with values
    that are numbers, near-numbers or any text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    value = st.one_of(st.integers().map(str), st.floats().map(repr),
                      st.sampled_from(["nan", "inf", "-1", "0", "1e400", "9" * 5000, "True"]),
                      st.text(max_size=10))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.one_of(st.sampled_from(KNOWN_KEYS), st.sampled_from(KNOWN_KEYS),
                             st.text(max_size=8)))
        lines.append(f"{key} = {draw(value)}")
    if draw(st.booleans()):
        lines.insert(0, "seed = 1")
    return "\n".join(lines)


class TestConfigFuzz:
    @given(text=config_text())
    @settings(max_examples=300)
    def test_any_text_loads_or_raises_config_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.txt"
            path.write_text(text, encoding="utf-8")
            try:
                cfg = load_config(path)
            except ConfigError:
                return
        assert isinstance(cfg, RunConfig)
        cfg.validate()


class TestPolicies:
    def test_degrees_converted_once(self):
        cfg = load_config(None, {"seed": 1})
        assert cfg.weak_policy()[2].theta == pytest.approx(math.radians(22.5))
        assert cfg.strong_policy().rot_max == pytest.approx(math.radians(45.0))

    def test_single_channel_variant(self):
        cfg = load_config(None, {"seed": 1})
        assert cfg.weak_policy(n_channels=1) == (Transform.identity(),)

    def test_defaults_match_stated_policy(self):
        cfg = RunConfig(seed=1)
        assert cfg.n_channels == 3
        assert (cfg.weak_scale_low, cfg.weak_scale_high) == (0.98, 1.02)
        assert (cfg.strong_scale_low, cfg.strong_scale_high) == (0.95, 1.05)
        assert cfg.strong_flip_prob == 0.5
        assert cfg.threshold_period == 5
        assert cfg.ema_momentum == 0.999
