import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cadet3d
from cadet3d import cli, data, detector, selftrain
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

    def test_fraction_zero_config_error(self, small_env):
        tmp, cfg = small_env
        bad = tmp / "bad.txt"
        bad.write_text(cfg.read_text() + "fraction = 0\n")
        assert main(["gen-data", "--config", str(bad)]) == 2

    def test_seed_required(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("n_scenes = 5\n")
        assert main(["gen-data", "--config", str(cfg)]) == 2


class TestConfigErrors:
    # the det.* lines name keys that no longer exist; they exit 2 as unknown keys
    @pytest.mark.parametrize("line", ["n_channels = 2", "det.voxel.voxel_size = 0",
                                      "weak_scale_low = 0", "strong_scale_low = -1",
                                      "det.learning_rate = 0", "det.roi_enlarge = 0",
                                      "det.voxel.nx = -5", "synth.ground_points = -1",
                                      "synth.clutter_max = 1", "strong_rot_deg = inf",
                                      "synth.object_radius = nan",
                                      "unsup_background_weight = nan",
                                      "prefilter_min_score = nan", "synth.range_scale = 0",
                                      "synth.size_jitter = -0.1"])
    def test_unbuildable_config_exits_2_before_writing(self, small_env, line):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        bad = tmp / "bad.txt"
        bad.write_text(cfg.read_text() + line + "\n")
        assert main(["pretrain", "--config", str(bad)]) == 2
        assert not (tmp / "run").exists()

    def test_former_detector_key_exits_2_before_writing(self, small_env, capsys):
        # detector settings are constants of detector.py; a valid old value is still refused
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        keyed = tmp / "keyed.txt"
        keyed.write_text(cfg.read_text() + "det.min_cells = 3\n")
        capsys.readouterr()
        assert main(["pretrain", "--config", str(keyed)]) == 2
        assert "unknown config key 'det.min_cells'" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_undecodable_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        assert main(["gen-data", "--config", str(bad)]) == 2


class TestPretrain:
    def test_zero_epochs_equals_initialization(self, small_env):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        zero_cfg = tmp / "zero.txt"
        zero_cfg.write_text(cfg.read_text() + "pretrain_epochs = 0\n")
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
        longer.write_text(cfg.read_text() + "pretrain_epochs = 10\n")
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
        keyed.write_text(cfg.read_text() + "det.num_classes = 3\n")
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
        zero_cfg.write_text(cfg.read_text() + "epochs = 0\n")
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

    @pytest.mark.parametrize("bad_id", ["../labeled_copy/000000", "DUPLICATE"])
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

    @pytest.mark.parametrize("head", ["w_cls", "w_reg"])
    def test_numeric_failure_exit_1(self, small_env, head, capsys):
        # finite weights that overflow inside detection: an internal failure,
        # not an input problem
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        huge = tmp / "huge.params"
        params = DetectorParams.zeros()
        getattr(params, head)[:] = 1e308
        save_params(params, huge)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--config", str(cfg), "--params", str(huge)]) == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("internal error:")


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
        zero_cfg.write_text(cfg.read_text() + "epochs = 0\n")
        main(["ssl-train", "--config", str(zero_cfg)])
        assert main(["report", "--run", str(tmp / "run")]) == 0
        rows = list(csv.reader(open(tmp / "run" / "report" / "loss_curves.csv")))
        assert len(rows) == 1 and rows[0][0] == "epoch"

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


class TestModuleEntry:
    def test_python_m_runs_the_command(self, small_env):
        tmp, cfg = small_env
        src = str(Path(cadet3d.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "cadet3d.cli", "gen-data", "--config", str(cfg)],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp / "data" / "splits" / "labeled.txt").read_text().count("\n") == 2


class TestWorkCounts:
    """Weak-policy scenes are encoded once per command, however many passes
    score them; strong-channel student steps encode anew."""

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
        three.write_text(cfg.read_text() + "pretrain_epochs = 3\n")
        voxelized = self.counting(monkeypatch, detector, "voxelize")
        assert main(["pretrain", "--config", str(three)]) == 0
        assert len(voxelized) == 2  # two labeled scenes, one channel each

    def test_ssl_train_encodes_weak_scenes_once(self, small_env, monkeypatch):
        tmp, cfg = small_env
        main(["gen-data", "--config", str(cfg)])
        two = tmp / "two.txt"
        two.write_text(cfg.read_text() + "epochs = 2\n")
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
