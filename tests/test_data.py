import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d.data import (
    BinFormatError,
    CLASS_NAMES,
    KittiFormatError,
    KNOWN_TOKENS,
    Scene,
    SplitFormatError,
    SplitSpec,
    SynthConfig,
    load_scene,
    parse_kitti_label,
    read_bin_cloud,
    read_split,
    save_scene,
    split_sample,
    synth_scene,
    write_bin_cloud,
    write_kitti_label,
    write_split,
)
from cadet3d.geometry import PointCloud, points_in_box

# numbers and near-numbers a parser must accept or reject cleanly
NUMBERISH = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-0", "0x10", "1_0", "", "1.5.2", "+", "-"]),
    st.text(max_size=6),
)


@st.composite
def label_text(draw):
    """Any text, or lines of mostly 15 fields led by mostly known class tokens."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        token = draw(st.one_of(st.sampled_from(sorted(KNOWN_TOKENS)), st.text(max_size=5)))
        n = draw(st.sampled_from([15, 15, 15, 14, 16, 1]))
        lines.append(" ".join([token] + [draw(NUMBERISH) for _ in range(n - 1)]))
    return "\n".join(lines)


@st.composite
def bin_bytes(draw):
    """Any bytes, or float32 records with non-finite values, possibly cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    vals = draw(st.lists(st.floats(width=32), max_size=40))
    raw = np.array(vals, dtype="<f4").tobytes()
    return raw[: draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(42, SynthConfig())
        b = synth_scene(42, SynthConfig())
        np.testing.assert_array_equal(a.cloud.xyz, b.cloud.xyz)
        np.testing.assert_array_equal(a.cloud.intensity, b.cloud.intensity)
        assert a.gt_boxes == b.gt_boxes and a.gt_classes == b.gt_classes

    def test_different_seeds_differ(self):
        a, b = synth_scene(1, SynthConfig()), synth_scene(2, SynthConfig())
        assert len(a.cloud) != len(b.cloud) or not np.array_equal(a.cloud.xyz, b.cloud.xyz)

    def test_no_objects_when_disabled(self):
        sc = synth_scene(7, SynthConfig(max_per_class=0))
        assert sc.gt_boxes == [] and sc.gt_classes == []
        assert len(sc.cloud) > 0  # ground and clutter remain

    def test_boxes_contain_min_points(self):
        cfg = SynthConfig()
        for seed in range(100):
            sc = synth_scene(seed, cfg)
            for box in sc.gt_boxes:
                assert points_in_box(box, sc.cloud.xyz, strict=True).sum() >= cfg.min_pts

    def test_classes_valid_and_counts_bounded(self):
        cfg = SynthConfig()
        for seed in range(30):
            sc = synth_scene(seed, cfg)
            assert all(c in (1, 2, 3) for c in sc.gt_classes)
            for c in (1, 2, 3):
                assert sc.gt_classes.count(c) <= cfg.max_per_class

    def test_intensities_in_unit_range(self):
        sc = synth_scene(3, SynthConfig())
        assert sc.cloud.intensity.min() >= 0.0
        assert sc.cloud.intensity.max() <= 1.0


class TestKittiLabels:
    def test_roundtrip(self):
        for seed in range(100):
            sc = synth_scene(seed, SynthConfig())
            boxes, classes = parse_kitti_label(write_kitti_label(sc))
            assert classes == sc.gt_classes
            for parsed, orig in zip(boxes, sc.gt_boxes):
                assert np.abs(parsed.as_array() - orig.as_array()).max() <= 0.005 + 1e-12

    def test_line_format(self):
        sc = synth_scene(0, SynthConfig())
        text = write_kitti_label(sc)
        for line in text.splitlines():
            fields = line.split()
            assert len(fields) == 15
            assert fields[0] in CLASS_NAMES
            assert fields[4] == "-1.00"  # 2D bbox placeholder

    def test_malformed_line_reports_number(self):
        with pytest.raises(KittiFormatError, match="line 1"):
            parse_kitti_label("Car 1 2\n")

    def test_unknown_token_named(self):
        line = "Tree " + " ".join(["0.00"] * 14)
        with pytest.raises(KittiFormatError, match="'Tree'"):
            parse_kitti_label(line)

    def test_non_numeric_field(self):
        line = "Car " + " ".join(["0.00"] * 13) + " abc"
        with pytest.raises(KittiFormatError, match="line 1"):
            parse_kitti_label(line)

    def test_dontcare_skipped(self):
        line = "DontCare " + " ".join(["-1.00"] * 7 + ["1.00"] * 7)
        boxes, classes = parse_kitti_label(line)
        assert boxes == [] and classes == []

    def test_error_on_later_line(self):
        sc = synth_scene(0, SynthConfig())
        good = write_kitti_label(sc)
        n_lines = len(good.splitlines())
        if n_lines == 0:
            pytest.skip("seed drew no objects")
        with pytest.raises(KittiFormatError, match=f"line {n_lines + 1}"):
            parse_kitti_label(good + "Car 1 2\n")

    def test_empty_text(self):
        assert parse_kitti_label("") == ([], [])

    @pytest.mark.parametrize("field, value", [(8, "nan"), (9, "0.00"), (10, "-1.00"), (14, "inf")])
    def test_invalid_box_reports_number(self, field, value):
        good = ["Car"] + ["1.00"] * 14
        bad = good[:field] + [value] + good[field + 1:]
        with pytest.raises(KittiFormatError, match="line 2"):
            parse_kitti_label(" ".join(good) + "\n" + " ".join(bad) + "\n")

    @given(text=label_text())
    @settings(max_examples=300)
    def test_any_text_parses_or_raises_format_error(self, text):
        try:
            boxes, classes = parse_kitti_label(text)
        except KittiFormatError:
            return
        assert len(boxes) == len(classes)
        assert all(c in range(1, len(CLASS_NAMES) + 1) for c in classes)
        assert all(math.isfinite(v) for b in boxes for v in b.as_array())


class TestBinClouds:
    @given(raw=bin_bytes())
    @settings(max_examples=300)
    def test_any_bytes_read_or_raise_format_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "any.bin"
            path.write_bytes(raw)
            try:
                pc = read_bin_cloud(path)
            except BinFormatError:
                return
        assert len(pc) == len(raw) // 16
        assert np.isfinite(pc.xyz).all() and np.isfinite(pc.intensity).all()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        pc = read_bin_cloud(path)
        assert len(pc) == 0

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        n = 100_000
        # values that are exactly representable in float32
        xyz = rng.standard_normal((n, 3)).astype(np.float32).astype(np.float64)
        inten = rng.random(n).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.bin"
        write_bin_cloud(path, PointCloud(xyz, inten))
        back = read_bin_cloud(path)
        np.testing.assert_array_equal(back.xyz, xyz)
        np.testing.assert_array_equal(back.intensity, inten)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(BinFormatError, match="byte 16"):
            read_bin_cloud(path)

    @pytest.mark.parametrize("column, value", [(3, np.nan), (3, np.inf), (0, np.nan), (2, -np.inf)])
    def test_non_finite_record_named(self, tmp_path, column, value):
        arr = np.ones((4, 4), dtype="<f4")
        arr[2, column] = value
        path = tmp_path / "bad.bin"
        arr.tofile(path)
        with pytest.raises(BinFormatError, match=r"bad\.bin: non-finite value in record at byte 32"):
            read_bin_cloud(path)

    @pytest.mark.parametrize("value", [-0.25, -1e-6, 1.0000001, 3.0, 1e30])
    def test_intensity_outside_unit_interval_named(self, tmp_path, value):
        arr = np.full((4, 4), 0.5, dtype="<f4")
        arr[3, 3] = value
        path = tmp_path / "bad.bin"
        arr.tofile(path)
        with pytest.raises(BinFormatError, match=r"bad\.bin: intensity .* outside \[0, 1\] "
                                                 r"in record at byte 48"):
            read_bin_cloud(path)

    def test_intensity_bounds_accepted(self, tmp_path):
        arr = np.full((2, 4), 0.5, dtype="<f4")
        arr[:, 3] = (0.0, 1.0)
        path = tmp_path / "edge.bin"
        arr.tofile(path)
        assert read_bin_cloud(path).intensity.tolist() == [0.0, 1.0]


class TestSplits:
    def test_kitti_scale_one_percent(self):
        labeled, unlabeled = split_sample(3712, SplitSpec(0.01, 0))
        assert len(labeled) == 37
        assert len(labeled) + len(unlabeled) == 3712

    def test_full_fraction(self):
        labeled, unlabeled = split_sample(10, SplitSpec(1.0, 3))
        assert len(labeled) == 10 and unlabeled == []

    def test_minimum_one_frame(self):
        labeled, _ = split_sample(10, SplitSpec(0.001, 0))
        assert len(labeled) == 1

    def test_partition_exact(self):
        labeled, unlabeled = split_sample(100, SplitSpec(0.2, 5))
        assert sorted(labeled + unlabeled) == [f"{i:06d}" for i in range(100)]
        assert not set(labeled) & set(unlabeled)

    def test_seeds_differ_sizes_match(self):
        a, _ = split_sample(200, SplitSpec(0.05, 1))
        b, _ = split_sample(200, SplitSpec(0.05, 2))
        assert len(a) == len(b) == 10
        assert a != b

    def test_deterministic(self):
        assert split_sample(50, SplitSpec(0.1, 9)) == split_sample(50, SplitSpec(0.1, 9))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_sample(10, SplitSpec(0.0, 0))
        with pytest.raises(ValueError):
            split_sample(10, SplitSpec(1.5, 0))


class TestSceneIo:
    def test_scene_roundtrip(self, tmp_path):
        sc = synth_scene(21, SynthConfig())
        save_scene(tmp_path, sc)
        back = load_scene(tmp_path, sc.id)
        assert back.id == sc.id
        assert len(back.cloud) == len(sc.cloud)
        assert back.gt_classes == sc.gt_classes
        np.testing.assert_allclose(back.cloud.xyz, sc.cloud.xyz, atol=1e-6)

    def test_split_files(self, tmp_path):
        write_split(tmp_path, "labeled", ["000001", "000005"])
        assert read_split(tmp_path, "labeled") == ["000001", "000005"]

    @pytest.mark.parametrize("text", [
        "../../model_data/points/000000\n000001\n",  # reads a cloud outside the dataset
        "000001\npoints/000001\n",
        "000001\n..\\000002\n",
        ".\n",
        "..\n",
        "000001\n000002\n000001\n",  # would count scene 000001 twice
    ])
    def test_bad_split_ids_rejected(self, tmp_path, text):
        (tmp_path / "splits").mkdir()
        (tmp_path / "splits" / "val.txt").write_text(text)
        with pytest.raises(SplitFormatError):
            read_split(tmp_path, "val")

    def test_split_ids_whitespace_separated(self, tmp_path):
        (tmp_path / "splits").mkdir()
        (tmp_path / "splits" / "val.txt").write_text("\n 000003  000001\n\n...\n")
        assert read_split(tmp_path, "val") == ["000003", "000001", "..."]

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            Scene("x", PointCloud.empty(), [], [1])
