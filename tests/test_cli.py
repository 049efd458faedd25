import csv
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cadet3d
import reference
from cadet3d import cli, data, detector, evaluation, geometry, selftrain
from cadet3d.cli import main
from cadet3d.config import RunConfig
from cadet3d.detector import DetectorParams, load_params, save_params

# a dataset small enough for CLI responsiveness tests
SMALL = """
seed = 5
n_scenes = 12
n_val_scenes = 4
fraction = 0.2
pretrain_epochs = 2
epochs = 1
"""


@pytest.fixture
def small_env(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        SMALL + f"dataset_root = {tmp_path/'data'}\nout_dir = {tmp_path/'run'}\n"
    )
    return tmp_path, cfg_path


def set_keys(cfg_path, path, text):
    """Write ``path`` as the config file ``cfg_path`` with the ``key = value``
    lines of ``text`` in place of its lines for the same keys (a key set on
    two lines is a config error)."""
    keys = {line.partition("=")[0].strip() for line in text.splitlines()}
    kept = [line for line in cfg_path.read_text().splitlines(keepends=True)
            if line.partition("=")[0].strip() not in keys]
    path.write_text("".join(kept) + text)


def read_bytes_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


class TestGenData:
    def test_writes_layout_and_counts(self, small_env, capsys):
        tmp, cfg = small_env
        assert main(["gen-data", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "12 train scenes" in out and "2 labeled" in out
        root = tmp / "data"
        assert len(list((root / "points").glob("*.bin"))) == 16
        assert len(list((root / "labels").glob("*.txt"))) == 16
        assert (root / "splits" / "labeled.txt").read_text().count("\n") == 2

    def test_rerun_byte_identical(self, small_env):
        tmp, cfg = small_env
        assert main(["gen-data", "--config", str(cfg)]) == 0
        first = read_bytes_tree(tmp / "data")
        assert main(["gen-data", "--config", str(cfg)]) == 0
        assert read_bytes_tree(tmp / "data") == first

    def test_writes_default_generator_scenes(self, small_env):
        # gen-data's scenes are synth_scene's with data.SynthConfig's defaults
        tmp, cfg = small_env
        assert main(["gen-data", "--config", str(cfg)]) == 0
        ref = tmp / "ref"
        for i in range(12 + 4):
            stream, index = (10, i) if i < 12 else (11, i - 12)
            seed = selftrain.scene_seed(5, 0, index, stream)
            data.save_scene(ref, data.synth_scene(seed, data.SynthConfig(), scene_id=f"{i:06d}"))
        written = read_bytes_tree(tmp / "data")
        assert {k: v for k, v in written.items() if not k.startswith("splits")} == \
            read_bytes_tree(ref)

    def test_fraction_zero_config_error(self, small_env):
        tmp, cfg = small_env
        bad = tmp / "bad.txt"
        set_keys(cfg, bad, "fraction = 0\n")
        assert main(["gen-data", "--config", str(bad)]) == 2

    def test_seed_required(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("n_scenes = 5\n")
        assert main(["gen-data", "--config", str(cfg)]) == 2


class TestConfigErrors:
    # the det.* and synth.* lines name keys that no longer exist; they exit 2 as unknown keys
    @pytest.mark.parametrize("line", ["n_channels = 2", "det.voxel.voxel_size = 0",
                                      "weak_scale_low = 0", "strong_scale_low = -1",
                                      "det.learning_rate = 0", "det.roi_enlarge = 0",
                                      "det.voxel.nx = -5", "synth.ground_points = -1",
                                      "synth.clutter_max = 1", "strong_rot_deg = inf",
                                      "synth.object_radius = nan",
                                      "unsup_background_weight = nan",
                                      "prefilter_min_score = nan", "synth.range_scale = 0",
                                      "synth.size_jitter = -0.1", "shuffle_grid_cells = -3",
                                      "unsup_background_weight = -1.0",
                                      "prefilter_min_score = 7.0", "prefilter_min_score = -2.0",
                                      "strong_rot_deg = -1", "strong_scale_low = 1.2",
                                      "dataset_root = da\0ta", "out_dir = ru\0n"])
    def test_unbuildable_config_exits_2_before_writing(self, small_env, line):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        bad = tmp / "bad.txt"
        set_keys(cfg, bad, line + "\n")
        assert main(["pretrain", "--config", str(bad)]) == 2
        assert not (tmp / "run").exists()

    def test_key_set_twice_exits_2_before_writing(self, small_env, capsys):
        # one of two values would be silently unused
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        twice = tmp / "twice.txt"
        set_keys(cfg, twice, "epochs = 10\nepochs = 2\n")
        n = twice.read_text().count("\n")
        capsys.readouterr()
        assert main(["pretrain", "--config", str(twice)]) == 2
        assert (f"config key 'epochs' is set twice, on lines {n - 1} and {n}"
                in capsys.readouterr().err)
        assert not (tmp / "run").exists()

    def test_former_detector_key_exits_2_before_writing(self, small_env, capsys):
        # detector settings are constants of detector.py; a valid old value is still refused
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        keyed = tmp / "keyed.txt"
        set_keys(cfg, keyed, "det.min_cells = 3\n")
        capsys.readouterr()
        assert main(["pretrain", "--config", str(keyed)]) == 2
        assert "unknown config key 'det.min_cells'" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_former_synth_key_exits_2_before_writing(self, small_env, capsys):
        # the generator's settings are data.SynthConfig's defaults; a valid old value is refused
        tmp, cfg = small_env
        keyed = tmp / "keyed.txt"
        set_keys(cfg, keyed, "synth.object_radius = 10.5\n")
        assert main(["gen-data", "--config", str(keyed)]) == 2
        assert "unknown config key 'synth.object_radius'" in capsys.readouterr().err
        assert not (tmp / "data").exists() and not (tmp / "run").exists()

    @pytest.mark.parametrize("key", ["dataset_root", "out_dir"])
    def test_empty_path_exits_2_before_writing(self, small_env, capsys, monkeypatch, key):
        tmp, cfg = small_env
        work = tmp / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        blank = tmp / "blank.txt"
        set_keys(cfg, blank, f"{key} =\n")
        assert main(["gen-data", "--config", str(blank)]) == 2
        assert key in capsys.readouterr().err
        assert list(work.iterdir()) == []
        assert not (tmp / "data").exists()

    def test_undecodable_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        assert main(["gen-data", "--config", str(bad)]) == 2


class TestPretrain:
    def test_zero_epochs_equals_initialization(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        zero_cfg = tmp / "zero.txt"
        set_keys(cfg, zero_cfg, "pretrain_epochs = 0\n")
        assert main(["pretrain", "--config", str(zero_cfg)]) == 0
        params = load_params(tmp / "run" / "pretrain.params")
        for arr in params.arrays():
            np.testing.assert_array_equal(arr, 0.0)

    def test_metrics_csv_written(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        assert main(["pretrain", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(open(tmp / "run" / "pretrain_metrics.csv")))
        assert len(rows) == 3  # epoch 0 plus two training epochs
        assert "labeled_map" in rows[0]

    def test_training_improves_labeled_map(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        longer = tmp / "longer.txt"
        set_keys(cfg, longer, "pretrain_epochs = 10\n")
        assert main(["pretrain", "--config", str(longer)]) == 0
        rows = list(csv.DictReader(open(tmp / "run" / "pretrain_metrics.csv")))
        assert float(rows[-1]["labeled_map"]) > float(rows[0]["labeled_map"])

    def test_missing_dataset_io_error(self, small_env):
        tmp, cfg = small_env
        assert main(["pretrain", "--config", str(cfg)]) == 2

    def test_class_count_is_fixed(self, small_env):
        # the three classes of CLASS_NAMES; no config key sets the count
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        keyed = tmp / "keyed.txt"
        set_keys(cfg, keyed, "det.num_classes = 3\n")
        assert main(["pretrain", "--config", str(keyed)]) == 2
        assert not (tmp / "run").exists()
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert load_params(tmp / "run" / "pretrain.params").num_classes == 3

    def test_deterministic_rerun(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        first = (tmp / "run" / "pretrain.params").read_bytes()
        main(["pretrain", "--config", str(cfg)])
        assert (tmp / "run" / "pretrain.params").read_bytes() == first


class TestSslTrain:
    def test_zero_epochs_passthrough(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        zero_cfg = tmp / "zero.txt"
        set_keys(cfg, zero_cfg, "epochs = 0\n")
        assert main(["ssl-train", "--config", str(zero_cfg)]) == 0
        pre = load_params(tmp / "run" / "pretrain.params")
        stu = load_params(tmp / "run" / "student.params")
        tea = load_params(tmp / "run" / "teacher.params")
        for a, b, c in zip(pre.arrays(), stu.arrays(), tea.arrays()):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
        rows = list(csv.reader(open(tmp / "run" / "metrics.csv")))
        assert len(rows) == 1  # header only

    def test_metrics_rows_per_epoch(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        assert main(["ssl-train", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(open(tmp / "run" / "metrics.csv")))
        assert len(rows) == 1
        assert all(v != "" for v in rows[0].values())

    def test_missing_params_io_error(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        assert main(["ssl-train", "--config", str(cfg), "--params", str(tmp / "no.params")]) == 2

    def test_incompatible_params_exit_3(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        bad = tmp / "bad.params"
        save_params(DetectorParams.zeros(num_classes=2), bad)
        assert main(["ssl-train", "--config", str(cfg), "--params", str(bad)]) == 3

    def test_corrupt_params_exit_3(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        bad = tmp / "corrupt.params"
        bad.write_bytes(b"JUNKJUNK" + bytes(80))
        assert main(["ssl-train", "--config", str(cfg), "--params", str(bad)]) == 3

    @pytest.mark.parametrize("split", ["unlabeled", "labeled"])
    def test_cloud_turned_bad_after_the_check_exits_2(self, small_env, monkeypatch, capsys,
                                                      split):
        # a student step reads its scene's cloud when it is built, with the
        # checks of the first pass, so no stale copy of a cloud ever trains;
        # the first unlabeled scene is weak-encoded by the first call
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        first = (tmp / "data" / "splits" / f"{split}.txt").read_text().split()[0]
        path = tmp / "data" / "points" / f"{first}.bin"
        calls = []
        original = detector.encode_batch

        def encode_then_truncate(*args):
            encoded = original(*args)
            if not calls:
                path.write_bytes(path.read_bytes()[:-3])
            calls.append(len(args[0]))
            return encoded

        monkeypatch.setattr(detector, "encode_batch", encode_then_truncate)
        out = tmp / "bad_out"
        capsys.readouterr()
        assert main(["ssl-train", "--config", str(cfg), "--out", str(out),
                     "--params", str(tmp / "run" / "pretrain.params")]) == 2
        assert f"{first}.bin: truncated record" in capsys.readouterr().err
        assert len(calls) > 1
        assert not {cli.STUDENT_PARAMS, cli.TEACHER_PARAMS, cli.METRICS_CSV} & {
            f.name for f in out.iterdir()}

    def test_memory_does_not_grow_with_the_splits(self, small_env):
        # ssl-train holds the weak encodings, labels and pseudo-boxes of its
        # unlabeled and val scenes, but one batch of clouds. From 8 to 32
        # unlabeled and val scenes, with 4 labeled scenes and 1 epoch, the
        # traced peak grew 2.48 MiB while every cloud and every teacher
        # detection of the epoch was held, 1.59 MiB with the detections held
        # alone, and grows 1.11 MiB now: 0.49 MiB of encodings and
        # pseudo-boxes, and the largest strong-encode batch of 32 scenes'
        # steps outweighs that of 8
        bound = 1.35 * 2**20
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        params = tmp / "run" / "pretrain.params"
        peaks = []
        for n, fraction in ((8, 0.34), (32, 0.12)):  # 4 of n + 4 train scenes labeled
            sized = tmp / f"splits{n}.txt"
            set_keys(cfg, sized, f"n_scenes = {n + 4}\nfraction = {fraction}\n"
                     f"n_val_scenes = {n}\ndataset_root = {tmp / f'data{n}'}\n")
            assert main(["gen-data", "--config", str(sized)]) == 0
            labeled = (tmp / f"data{n}" / "splits" / "labeled.txt").read_text().split()
            assert len(labeled) == 4
            tracemalloc.start()
            try:
                assert main(["ssl-train", "--config", str(sized), "--params", str(params)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < bound, [p / 2**20 for p in peaks]


class TestEval:
    def test_eval_writes_results(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        assert main(["eval", "--config", str(cfg),
                     "--params", str(tmp / "run" / "pretrain.params")]) == 0
        rows = list(csv.DictReader(open(tmp / "run" / "results.csv")))
        assert rows[0]["split"] == "val"
        assert set(rows[0]) == {"split", "seed", "Car", "Pedestrian", "Cyclist", "Avg"}
        long_rows = list(csv.DictReader(open(tmp / "run" / "results_by_class.csv")))
        assert [r["class"] for r in long_rows] == ["Car", "Pedestrian", "Cyclist"]

    def test_missing_params_exit_2(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        assert main(["eval", "--config", str(cfg), "--params", str(tmp / "nope.params")]) == 2

    @pytest.mark.parametrize("bad_id", ["../labeled_copy/000000", "DUPLICATE", "0000\x0007"])
    def test_bad_split_id_exit_2(self, small_env, capsys, bad_id):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        split = tmp / "data" / "splits" / "val.txt"
        ids = split.read_text().split()
        split.write_text("\n".join(ids + [ids[0] if bad_id == "DUPLICATE" else bad_id]) + "\n")
        out = tmp / "eval_out"
        assert main(["eval", "--config", str(cfg), "--out", str(out),
                     "--params", str(tmp / "run" / "pretrain.params")]) == 2
        assert "val.txt: scene id" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_intensity_out_of_range_exit_2(self, small_env, capsys):
        # the last val scene is bad: every scene is read before any is detected
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        last = (tmp / "data" / "splits" / "val.txt").read_text().split()[-1]
        path = tmp / "data" / "points" / f"{last}.bin"
        records = np.fromfile(path, dtype="<f4").reshape(-1, 4)
        records[1, 3] = 1.5
        records.tofile(path)
        out = tmp / "eval_out"
        assert main(["eval", "--config", str(cfg), "--out", str(out),
                     "--params", str(tmp / "run" / "pretrain.params")]) == 2
        err = capsys.readouterr().err
        assert f"{last}.bin: intensity 1.5 outside [0, 1] in record at byte 16" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command, split, bad", [
        pytest.param(c, split, bad, id=bad if c == "eval" else f"{c}-{bad}")
        for c, split in [("eval", "val"), ("pretrain", "labeled"), ("ssl-train", "val")]
        for bad in ("bin", "label")
    ])
    def test_bad_last_scene_exits_2_before_any_encode(self, small_env, monkeypatch, capsys,
                                                      command, split, bad):
        # every command checks every scene it reads before encoding any;
        # ssl-train loads its val split last, so all three splits are loaded
        # before the unlabeled encode (each command reads a cloud again when
        # it encodes it)
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        params = tmp / "zeros.params"
        save_params(DetectorParams.zeros(), params)
        last = (tmp / "data" / "splits" / f"{split}.txt").read_text().split()[-1]
        if bad == "bin":
            path = tmp / "data" / "points" / f"{last}.bin"
            path.write_bytes(path.read_bytes()[:-3])
        else:
            (tmp / "data" / "labels" / f"{last}.txt").write_text("Car 1 2 3\n")
        encoded = []
        original = detector.encode_batch
        monkeypatch.setattr(detector, "encode_batch",
                            lambda *a: encoded.append(len(a[0])) or original(*a))
        out = tmp / "bad_out"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--params", str(params)] if command != "pretrain" else [])) == 2
        assert encoded == []
        assert not [f for f in out.iterdir() if f.suffix in (".csv", ".params")]
        if bad == "label":  # the message names the file among the split's
            assert f"{last}.txt: line 1: expected 15 fields, got 4" in capsys.readouterr().err

    def test_memory_does_not_grow_with_the_split(self, small_env):
        # eval holds one encode batch of clouds and one scene's detections, not
        # the split's. From 8 to 32 val scenes the traced peak grew 1.04 MiB
        # while every cloud and detection was held to the end, and grows
        # 0.32 MiB with labels and score tallies alone (the largest batch of
        # 32 scenes also outweighs that of 8)
        bound = 0.6 * 2**20
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        params = tmp / "run" / "pretrain.params"
        peaks = []
        for n_val in (8, 32):
            sized = tmp / f"val{n_val}.txt"
            set_keys(cfg, sized, f"n_val_scenes = {n_val}\n"
                     f"dataset_root = {tmp / f'data{n_val}'}\n")
            assert main(["gen-data", "--config", str(sized)]) == 0
            tracemalloc.start()
            try:
                assert main(["eval", "--config", str(sized), "--params", str(params)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < bound

    @pytest.mark.parametrize("kind", ["non_finite", "class_mismatch", "ragged_body"])
    def test_bad_params_exit_3(self, small_env, kind):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        bad = tmp / "bad.params"
        params = DetectorParams.zeros(num_classes=2 if kind == "class_mismatch" else 3)
        if kind == "non_finite":
            params.w_cls[1, 0] = np.nan
        save_params(params, bad)
        if kind == "ragged_body":  # not a whole number of float64s
            bad.write_bytes(bad.read_bytes() + b"\x00\x00\x00")
        assert main(["eval", "--config", str(cfg), "--params", str(bad)]) == 3

    @staticmethod
    def failed_scene(small_env, capsys, head, command, what):
        """The scene id that ``command``'s ``what`` pass names when detection
        overflows on finite weights: an internal failure (exit 1), not an
        input problem."""
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        huge = tmp / "huge.params"
        params = DetectorParams.zeros()
        getattr(params, head)[:] = 1e308
        save_params(params, huge)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg), "--params", str(huge)]) == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        prefix = f"internal error: {what} scene "
        assert len(err) == 1 and err[0].startswith(prefix)
        return err[0].removeprefix(prefix).split(":")[0]

    @staticmethod
    def split_ids(small_env, split):
        return (small_env[0] / "data" / "splits" / f"{split}.txt").read_text().split()

    @pytest.mark.parametrize("head", ["w_cls", "w_reg"])
    def test_numeric_failure_exit_1(self, small_env, head, capsys):
        scene_id = self.failed_scene(small_env, capsys, head, "eval", "val")
        assert scene_id in self.split_ids(small_env, "val")

    @pytest.mark.parametrize("head", ["w_cls", "w_reg"])
    def test_ssl_train_numeric_failure_exit_1(self, small_env, head, capsys):
        # the teacher pass detects the unlabeled scenes before any student step
        scene_id = self.failed_scene(small_env, capsys, head, "ssl-train", "teacher")
        assert scene_id in self.split_ids(small_env, "unlabeled")


# a tiny dataset whose clouds or labels the degenerate cases rewrite
DEGENERATE = """
seed = 5
n_scenes = 8
n_val_scenes = 3
fraction = 0.5
pretrain_epochs = 2
epochs = 2
"""


def flat_cloud(xyz):
    """A cloud of the (N, 3) ``xyz`` with intensity 0.5."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    return geometry.PointCloud(xyz, np.full(len(xyz), 0.5))


def tiny_label_boxes(text):
    """The KITTI label ``text`` with every box's height, width and length 1e-7."""
    rows = [line.split() for line in text.splitlines()]
    return "".join(" ".join([*row[:8], "1e-07", "1e-07", "1e-07", *row[11:]]) + "\n"
                   for row in rows)


# each case: the rewrite of every cloud, or of every label file's text
DEGENERATE_CASES = {
    "empty_clouds": (lambda pc: flat_cloud([]), None),
    "one_point": (lambda pc: geometry.PointCloud(pc.xyz[:1], pc.intensity[:1]), None),
    "collinear": (lambda pc: flat_cloud(np.column_stack(
        [pc.xyz[:, 0], 0.5 * pc.xyz[:, 0] + 1.0, np.ones(len(pc))])), None),
    "outside_grid": (lambda pc: geometry.PointCloud(pc.xyz + [100.0, 100.0, 0.0],
                                                    pc.intensity), None),
    "tiny_label_boxes": (None, tiny_label_boxes),
    "empty_label_files": (None, lambda text: ""),
    "stacked_points": (lambda pc: flat_cloud(np.tile([3.0, 3.0, 1.0], (500, 1))), None),
}


class TestDegenerateDatasets:
    """Valid datasets at the edges of what the detector sees: each command
    returns a code that the CLI documents, and none raises."""

    @pytest.mark.parametrize("case", list(DEGENERATE_CASES))
    def test_commands_exit_documented_codes(self, tmp_path, capsys, case):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(DEGENERATE + f"dataset_root = {tmp_path / 'data'}\n"
                       f"out_dir = {tmp_path / 'run'}\n")
        assert main(["gen-data", "--config", str(cfg)]) == 0
        cloud_rewrite, label_rewrite = DEGENERATE_CASES[case]
        root = tmp_path / "data"
        for path in sorted((root / "points").glob("*.bin")) if cloud_rewrite else ():
            data.write_bin_cloud(path, cloud_rewrite(data.read_bin_cloud(path)))
        for path in sorted((root / "labels").glob("*.txt")) if label_rewrite else ():
            path.write_text(label_rewrite(path.read_text()))
        capsys.readouterr()
        params = str(tmp_path / "run" / "pretrain.params")
        codes = [main([*command, "--config", str(cfg)])
                 for command in (["pretrain"], ["ssl-train"], ["eval", "--params", params])]
        err = capsys.readouterr().err
        if case == "stacked_points":
            # the student's log-size residuals overflow on the stacked
            # points: a numeric failure, exit 1, naming the scene it ran on
            assert codes == [0, 1, 0]
            assert err == "internal error: unlabeled scene 000006: non-finite box field\n"
        else:
            assert codes == [0, 0, 0]


class TestReport:
    def run_pipeline(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        main(["ssl-train", "--config", str(cfg)])
        return tmp

    def test_report_series_written(self, small_env):
        tmp = self.run_pipeline(small_env)
        assert main(["report", "--run", str(tmp / "run")]) == 0
        report = tmp / "run" / "report"
        for stem in ("loss_curves", "level_counts", "incorrect_boxes", "pair_evals"):
            assert (report / f"{stem}.csv").exists()
            assert (report / f"{stem}.svg").exists()
        rows = list(csv.DictReader(open(report / "incorrect_boxes.csv")))
        assert len(rows) == 1  # one epoch, rows preserved 1:1

    def test_no_svg_flag(self, small_env):
        tmp = self.run_pipeline(small_env)
        assert main(["report", "--run", str(tmp / "run"), "--no-svg"]) == 0
        assert not list((tmp / "run" / "report").glob("*.svg"))

    def test_empty_metrics_valid_headers(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        zero_cfg = tmp / "zero.txt"
        set_keys(cfg, zero_cfg, "epochs = 0\n")
        main(["ssl-train", "--config", str(zero_cfg)])
        assert main(["report", "--run", str(tmp / "run")]) == 0
        rows = list(csv.reader(open(tmp / "run" / "report" / "loss_curves.csv")))
        assert len(rows) == 1 and rows[0][0] == "epoch"

    def test_one_epoch_on_every_row(self, tmp_path):
        # every row at one epoch: the x span is zero
        columns = ["epoch", *(c for cols in cli._REPORT_SERIES.values() for c in cols)]
        with open(tmp_path / "metrics.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, columns)
            writer.writeheader()
            writer.writerows([{**{c: str(v) for c in columns}, "epoch": "0"} for v in (1, 2)])
        assert main(["report", "--run", str(tmp_path)]) == 0
        svgs = sorted(p.name for p in (tmp_path / "report").glob("*.svg"))
        assert svgs == sorted(f"{stem}.svg" for stem in cli._REPORT_SERIES)
        assert len(svgs) == 5

    def test_missing_metrics_exit_2(self, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 2

    def test_missing_column_exit_2(self, tmp_path, capsys):
        (tmp_path / "metrics.csv").write_text("epoch,sup_total\n0,1.5\n")
        assert main(["report", "--run", str(tmp_path)]) == 2
        assert "unsup_total" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_non_numeric_value_exit_2(self, small_env):
        tmp = self.run_pipeline(small_env)
        metrics = tmp / "run" / "metrics.csv"
        header, row = metrics.read_text().splitlines()
        metrics.write_text(header + "\n" + row.replace(",", ",x", 1) + "\n")
        assert main(["report", "--run", str(tmp / "run")]) == 2

    def test_field_over_csv_limit_exit_2(self, tmp_path, capsys):
        # the csv module refuses a field over csv.field_size_limit() (131072 by default)
        columns = ["epoch", *(c for cols in cli._REPORT_SERIES.values() for c in cols)]
        (tmp_path / "metrics.csv").write_text(
            ",".join(columns) + "\n" + '"' + "1" * (csv.field_size_limit() + 1) + '"\n')
        assert main(["report", "--run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'metrics.csv'}: ") and err.count("\n") == 1
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("column, value", [("val_map", "inf"), ("sup_total", "nan"),
                                               ("val_ap_car", "-inf")])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, column, value):
        columns = ["epoch", *(c for cols in cli._REPORT_SERIES.values() for c in cols)]
        rows = [{**{c: "1.5" for c in columns}, "epoch": str(e)} for e in range(3)]
        for name in ("good", "bad"):
            if name == "bad":
                rows[1][column] = value
            (tmp_path / name).mkdir()
            with open(tmp_path / name / "metrics.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, columns)
                writer.writeheader()
                writer.writerows(rows)
        assert main(["report", "--run", str(tmp_path / "good")]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert f"{column} = {value} at epoch 1" in err
        assert not (tmp_path / "bad" / "report").exists()


class TestRunConfigSnapshot:
    def test_config_snapshot_written(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        snap = tmp / "run" / "run_config.txt"
        assert snap.exists()
        assert "seed = 5" in snap.read_text()


def package_env():
    """The environment of a child Python that imports this ``cadet3d``."""
    src = str(Path(cadet3d.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


class TestModuleEntry:
    def test_python_m_runs_the_command(self, small_env):
        tmp, cfg = small_env
        proc = subprocess.run([sys.executable, "-m", "cadet3d.cli", "gen-data", "--config", str(cfg)],
                              env=package_env(), capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp / "data" / "splits" / "labeled.txt").read_text().count("\n") == 2


class TestImports:
    """The numpy submodules a command imports, in a fresh process: the test
    process has numpy.random already, through hypothesis. ``ssl-train`` needs
    ``numpy.random``, for ``scene_seed`` and the strong channels; that import
    costs about 6 MB RSS (Python 3.11, numpy 2.4 on Linux), 3.6 MB of it the
    OpenSSL that ``secrets`` and ``hashlib`` load. ``eval`` needs neither it
    nor ``numpy.ma``, which costs 1.3 MB more and which no command needs:
    ``np.unique`` without return flags imports it, so
    ``optimal_three_partition`` counts distinct values without it."""

    SCRIPT = ("import sys\nfrom cadet3d.cli import main\nrc = main(sys.argv[1:])\n"
              "print(rc, *(m for m in ('numpy.ma', 'numpy.random') if m in sys.modules))")

    @pytest.mark.parametrize("command, absent", [("eval", ["numpy.ma", "numpy.random"]),
                                                 ("ssl-train", ["numpy.ma"])],
                             ids=["eval", "ssl-train"])
    def test_numpy_submodules_not_imported(self, small_env, command, absent):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, command, "--config", str(cfg),
                               "--params", str(tmp / "run" / "pretrain.params")],
                              env=package_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, *imported = proc.stdout.splitlines()[-1].split()
        assert rc == "0"
        assert not set(absent) & set(imported)


class TestWorkCounts:
    """Weak-policy scenes are encoded once per command, however many passes
    score them; strong-channel student steps encode anew, ``ENCODE_BATCH``
    steps per ``encode_batch`` call. Every weak-channel pass detects
    ``ENCODE_BATCH`` scenes per ``detect_batch`` call, and the teacher pass
    and the levels (stages 1-2 of ``ssl_epoch``) clip no box pair with the
    scalar ``_bev_overlap`` outside detection: the channel consistencies and
    the pseudo-box quality counts go through the array IoU."""

    def counting(self, monkeypatch, module, name):
        """Calls of ``module.name``; a ``voxelize`` call counts once per slot
        (scene and channel) of its batch."""
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            slots = args[2] if name == "voxelize" else [None]
            calls.extend([name] * len(slots))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_pretrain_encodes_each_labeled_scene_once(self, small_env, monkeypatch):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        three = tmp / "three.txt"
        set_keys(cfg, three, "pretrain_epochs = 3\n")
        voxelized = self.counting(monkeypatch, detector, "voxelize")
        assert main(["pretrain", "--config", str(three)]) == 0
        assert len(voxelized) == 2  # two labeled scenes, one channel each

    def test_ssl_train_encodes_weak_scenes_once(self, small_env, monkeypatch):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        two = tmp / "two.txt"
        set_keys(cfg, two, "epochs = 2\n")
        params = tmp / "zeros.params"
        save_params(DetectorParams.zeros(), params)
        drawn = self.counting(monkeypatch, selftrain, "strong_channels")
        voxelized = self.counting(monkeypatch, detector, "voxelize")
        assert main(["ssl-train", "--config", str(two), "--params", str(params)]) == 0
        n_unlabeled, n_val, n_channels, epochs = 10, 4, 3, 2
        # one unlabeled and one labeled strong step per unlabeled scene and epoch,
        # each drawing its own strong transforms
        strong_steps = epochs * 2 * n_unlabeled
        assert len(drawn) == strong_steps
        assert len(voxelized) == n_channels * (n_unlabeled + n_val + strong_steps)

    def test_student_steps_encode_in_batches(self, small_env, monkeypatch):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        two = tmp / "two.txt"
        set_keys(cfg, two, "epochs = 2\n")
        params = tmp / "zeros.params"
        save_params(DetectorParams.zeros(), params)
        events = []  # ("encode", batch size) and ("target", None), in call order
        for module, name in ((detector, "encode_batch"), (selftrain, "remove_low_level_points")):
            original = getattr(module, name)

            def logged(*args, _original=original, _name=name):
                events.append(("encode", len(args[0])) if _name == "encode_batch"
                              else ("target", None))
                return _original(*args)

            monkeypatch.setattr(module, name, logged)
        assert main(["ssl-train", "--config", str(two), "--params", str(params)]) == 0
        n_unlabeled, n_val, epochs, batch = 10, 4, 2, detector.ENCODE_BATCH
        steps = 2 * n_unlabeled  # an unlabeled and a labeled step per unlabeled scene
        n_weak = -(-n_unlabeled // batch) + -(-n_val // batch)  # ceil divisions
        per_epoch = -(-steps // batch)
        encodes = [size for kind, size in events if kind == "encode"]
        assert len(encodes) == n_weak + epochs * per_epoch
        sizes = [min(batch, steps - k * batch) for k in range(per_epoch)]
        assert encodes[n_weak:] == epochs * sizes
        # targets are built per batch: by the k-th student encode of an epoch,
        # at most k * ENCODE_BATCH unlabeled targets of that epoch exist; with
        # steps interleaved 1:1, exactly half of them
        built, built_by_encode = 0, []
        for kind, _ in events[n_weak:]:
            if kind == "target":
                built += 1
            else:
                built_by_encode.append(built)
        for e in range(epochs):
            for k, n in enumerate(built_by_encode[e * per_epoch:(e + 1) * per_epoch], start=1):
                assert n - e * n_unlabeled <= k * batch
                assert n - e * n_unlabeled == min(k * batch // 2, n_unlabeled)
        assert built == epochs * n_unlabeled


    @staticmethod
    def ceil(n):
        return -(-n // detector.ENCODE_BATCH)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Per ``detect_batch`` call its batch size, and the scalar overlaps of
        stages 1-2 made outside detection, as they happen."""
        counts = {"batches": [], "stage": None, "detecting": False, "clipped": 0}
        original = {name: getattr(mod, name) for mod, name in (
            (selftrain, "detect_batch"), (selftrain, "train_on_scene"), (cli, "ssl_epoch"),
            (geometry, "_bev_overlap"))}

        def detect_batch(encs, params):
            counts["batches"].append(len(encs))
            counts["detecting"] = True
            try:
                return original["detect_batch"](encs, params)
            finally:
                counts["detecting"] = False

        def ssl_epoch(*args, **kwargs):
            counts["stage"] = "teacher and levels"
            return original["ssl_epoch"](*args, **kwargs)

        def train_on_scene(*args):
            counts["stage"] = "student"
            return original["train_on_scene"](*args)

        def bev_overlap(a, b):
            if counts["stage"] == "teacher and levels" and not counts["detecting"]:
                counts["clipped"] += 1
            return original["_bev_overlap"](a, b)

        monkeypatch.setattr(selftrain, "detect_batch", detect_batch)
        monkeypatch.setattr(selftrain, "train_on_scene", train_on_scene)
        monkeypatch.setattr(cli, "ssl_epoch", ssl_epoch)
        monkeypatch.setattr(geometry, "_bev_overlap", bev_overlap)
        return counts

    def test_weak_passes_detect_in_batches(self, small_env, counted):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        n_labeled, n_unlabeled, n_val, pretrain_epochs, epochs = 2, 10, 4, 2, 1
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert len(counted["batches"]) == (pretrain_epochs + 1) * self.ceil(n_labeled)
        counted["batches"].clear()
        assert main(["ssl-train", "--config", str(cfg)]) == 0
        passes = [n_unlabeled, n_val] * epochs  # the teacher pass, then the val pass
        assert counted["batches"] == [min(detector.ENCODE_BATCH, n - k)
                                      for n in passes for k in range(0, n, detector.ENCODE_BATCH)]
        assert counted["clipped"] == 0
        counted["batches"].clear()
        assert main(["eval", "--config", str(cfg), "--params",
                     str(tmp / "run" / "pretrain.params")]) == 0
        assert len(counted["batches"]) == self.ceil(n_val)

    def test_scalar_consistency_would_be_counted(self, small_env, counted, monkeypatch):
        # with the pair-by-pair consistency, stages 1-2 clip pairs one at a
        # time, and the count above sees them
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        main(["pretrain", "--config", str(cfg)])
        monkeypatch.setattr(selftrain, "channel_consistencies", lambda boxes, counter: np.array(
            [reference.scalar_channel_iou_consistency(chans) for chans in boxes.tolist()]))
        assert main(["ssl-train", "--config", str(cfg)]) == 0
        assert counted["clipped"] > 0


    def test_ssl_epoch_builds_boxes_only_for_kept_targets(self, small_env, monkeypatch):
        """The teacher pass keeps its pseudo-boxes as rows: ``ssl_epoch``
        builds no ``PseudoBox``, and one ``Box3D`` per kept (high or
        ambiguous) target, none with the shuffle off."""
        tmp, cfg = small_env
        more = tmp / "more.txt"
        set_keys(cfg, more, "fraction = 0.5\npretrain_epochs = 6\nepochs = 2\n"
                            "shuffle_grid_cells = 0\n")
        main(["gen-data", "--config", str(more)])
        assert main(["pretrain", "--config", str(more)]) == 0
        counts = {"pseudo": 0, "box3d": 0, "in_epoch": False}
        box_new, pseudo_init, ssl_epoch = (geometry.Box3D.__new__, selftrain.PseudoBox.__init__,
                                           cli.ssl_epoch)

        def counted_box(cls, *args):
            counts["box3d"] += counts["in_epoch"]
            return box_new(cls, *args)

        def counted_pseudo(self, *args, **kwargs):
            counts["pseudo"] += 1
            pseudo_init(self, *args, **kwargs)

        def counted_epoch(*args, **kwargs):
            counts["in_epoch"] = True
            try:
                return ssl_epoch(*args, **kwargs)
            finally:
                counts["in_epoch"] = False

        monkeypatch.setattr(geometry.Box3D, "__new__", staticmethod(counted_box))
        monkeypatch.setattr(selftrain.PseudoBox, "__init__", counted_pseudo)
        monkeypatch.setattr(cli, "ssl_epoch", counted_epoch)
        assert main(["ssl-train", "--config", str(more)]) == 0
        rows = list(csv.DictReader(open(tmp / "run" / "metrics.csv")))
        assert len(rows) == 2
        kept = sum(int(row["n_high"]) + int(row["n_ambiguous"]) for row in rows)
        assert kept > 0
        assert counts["pseudo"] == 0
        assert counts["box3d"] == kept

    def test_eval_scores_each_scene_in_one_pass(self, small_env, monkeypatch):
        """``detect_batch`` builds no ``Box3D``; evaluation builds one overlap
        table per scene with detections, not one per class, and runs the
        scalar ``iou_3d`` on exactly the pairs that class-by-class matching
        runs it on."""
        tmp, cfg = small_env
        more = tmp / "more.txt"
        set_keys(cfg, more, "fraction = 0.5\npretrain_epochs = 6\n")
        main(["gen-data", "--config", str(more)])
        assert main(["pretrain", "--config", str(more)]) == 0
        counts = {"box3d": 0, "detecting": False, "tables": 0, "iou_3d": 0}
        scored = []  # the (scene, detections) pairs evaluation draws
        box_new, detect_batch = geometry.Box3D.__new__, selftrain.detect_batch
        tables, evaluate_scenes = evaluation.overlap_candidates, selftrain.evaluate_scenes

        def counted_box(cls, *args):
            counts["box3d"] += counts["detecting"]
            return box_new(cls, *args)

        def counted_detect_batch(encs, params):
            counts["detecting"] = True
            try:
                return detect_batch(encs, params)
            finally:
                counts["detecting"] = False

        def counted(key, fn):
            return lambda *args: counts.__setitem__(key, counts[key] + 1) or fn(*args)

        monkeypatch.setattr(geometry.Box3D, "__new__", staticmethod(counted_box))
        monkeypatch.setattr(selftrain, "detect_batch", counted_detect_batch)
        monkeypatch.setattr(evaluation, "overlap_candidates", counted("tables", tables))
        # detection clips with iou_bev, so eval's scalar iou_3d calls are evaluation's
        monkeypatch.setattr(geometry, "iou_3d", counted("iou_3d", geometry.iou_3d))
        monkeypatch.setattr(selftrain, "evaluate_scenes", lambda detected: evaluate_scenes(
            scored.append(pair) or pair for pair in detected))
        assert main(["eval", "--config", str(more), "--params",
                     str(tmp / "run" / "pretrain.params")]) == 0
        assert counts["box3d"] == 0
        with_dets = [dets for _, dets in scored if len(dets)]
        # a scene with two detected classes, so matching class by class
        # would build more tables than there are scenes
        assert any(len(set(dets.predicted_class.tolist())) > 1 for dets in with_dets)
        assert counts["tables"] == len(with_dets)
        evaluated, counts["iou_3d"] = counts["iou_3d"], 0
        scenes, dets = zip(*scored)
        reference.classwise_evaluate_scenes(dets, scenes)
        assert evaluated == counts["iou_3d"] > 0


class TestAtomicOutputs:
    @pytest.mark.parametrize("write", [
        lambda path, value: save_params(DetectorParams.zeros(lr=value), path),
        lambda path, value: cli._write_csv(path, ["lr"], [[value]] * 100),
        lambda path, value: cli._snapshot_config(
            RunConfig(seed=1, out_dir=str(path.parent), ema_momentum=value)),
        lambda path, value: cli._write_svg(path, [0.0, 1.0], {"lr": [value, value]}),
    ], ids=["save_params", "write_csv", "snapshot_config", "write_svg"])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "run_config.txt"  # the one name _snapshot_config writes
        write(path, 0.1)
        before = path.read_bytes()

        class HalfWriter:
            """Writes half of the first chunk it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.fh.write(chunk[: len(chunk) // 2])
                self.fh.flush()
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(data, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(path, 0.2)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
