#!/usr/bin/env python3
"""cadet3d benchmark: drive the real CLI on generated inputs and measure it.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's dataset from --seed and repeats the timed CLI
command, one at a time in its own process, until the repetitions have taken
--seconds. The model under test is fixed: a default `pretrain` on scenes of
MODEL_SEED, whatever --seed is. The set-up (gen-data and pretrain of the
model, gen-data of the workload's dataset) runs three times, before each of
the first three repetitions, so that set-up and repetitions are spread over
the whole run. Every command is an
operation: it fails on a nonzero exit, a missing params or CSV output, a
non-finite mAP, or an output digest that differs from the other runs of the
same inputs and source tree.

--trace 0 prints the end-to-end metrics (medians over the repetitions; times
calibrated against calibrate(), see perfbench/README.md).
--trace 1 alternates untraced and traced repetitions of the timed command,
then runs it once with `--threads 2`. It checks that all of them write
identical outputs and prints the per-layer metrics, the tracing overhead and
the speed-up of the thread pool. The last line of stdout is the result JSON; see
perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHILD = Path(__file__).resolve().parent / "child.py"
SRC = Path("src")
WORK = Path(".perfbench_work")
SETUP_REPS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
HELD_OUT_SEED = 90017  # never used while tuning; reserved for checking claims
# Every workload starts from params pretrained on a fixed dataset. A model
# pretrained on --seed's own scenes changed the work per scene and the mAP so
# much between seeds that no bound could hold.
MODEL_SEED = 1
MODEL_DATA = {"n_scenes": 10, "fraction": 1.0, "n_val_scenes": 0}  # 10 labeled scenes
NPROC = os.cpu_count() or 1
# a typical calibrate() time on the 2-vCPU VM the benchmark was tuned on; the
# *_cal_s metrics and setup_s are seconds on a host that runs it this fast
CALIB_REF_S = 0.22
# timed commands run single-threaded: with two threads on a 2-vCPU VM, steal
# on either vCPU made eval-large's wall time spread 40 % across seeds. The
# traced run measures the thread pool instead (threads.speedup).
POOL_THREADS = min(2, NPROC)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    data: dict  # dataset keys of the config file, generated from --seed
    command: str  # the timed CLI command
    config: dict  # extra config keys of the timed command
    outputs: tuple  # files the timed command must write
    map_from: tuple  # (csv file, column); the last row is the output mAP
    split: str  # split whose scenes the timed command processes
    epochs_key: str | None = None  # scenes per command = split size * this key


WORKLOADS = {
    "ssl-default": Workload(
        data={"n_scenes": 50, "fraction": 0.2, "n_val_scenes": 60},
        command="ssl-train",
        config={"epochs": 2},
        outputs=("student.params", "teacher.params", "metrics.csv"),
        map_from=("metrics.csv", "val_map"),
        split="unlabeled",
        epochs_key="epochs",
    ),
    "eval-large": Workload(
        data={"n_scenes": 1, "fraction": 1.0, "n_val_scenes": 200},
        command="eval",
        config={},
        outputs=("results.csv", "results_by_class.csv"),
        map_from=("results.csv", "Avg"),
        split="val",
    ),
}


class Run:
    """Operation counts, output digests and samples of one benchmark run."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.setup_traces: list[dict] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def cli(self, label: str, args: list[str], trace: bool = False) -> dict | None:
        """Run one CLI command in a child process; None if it failed to exit 0."""
        self.attempted += 1
        report = self.workdir / f"{label}.report.json"
        log = self.workdir / f"{label}.log"
        report.unlink(missing_ok=True)
        stem = str(self.workdir / f"{label}.spans") if trace else "-"
        cmd = [sys.executable, str(CHILD), str(SRC), str(report), stem, "--", *args]
        env = {**os.environ, **THREAD_ENV}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.fail(f"{label}: no time left in the run budget")
            return None
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not report.exists():
            tail = log.read_text()[-2000:]
            self.fail(f"{label}: exit code {proc.returncode}\n{tail}")
            return None
        result = json.loads(report.read_text())
        result.update(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
        return result

    def check_outputs(self, label: str, key: str, files: list[Path], combine=False) -> bool:
        """Digest `files` (as one digest if `combine`); fail if one is missing or
        differs from the first run under `key`."""
        missing = [str(f) for f in files if not f.is_file()]
        if missing or not files:
            self.fail(f"{label}: missing outputs {missing}")
            return False
        digests = {str(f.relative_to(self.workdir)): sha256_file(f) for f in files}
        if combine:
            digests = {"all": hashlib.sha256(json.dumps(digests).encode()).hexdigest()}
        reference = self.digests.setdefault(key, digests)
        if digests != reference:
            self.fail(f"{label}: outputs differ from an earlier run of the same inputs")
            return False
        return True


def calibrate() -> float:
    """Seconds taken by a fixed mix of numpy and Python work: the host's speed now."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(60):
        a = rng.random(20000)
        b = np.sort(a)
        np.searchsorted(b, a)
        np.bincount((a * 100).astype(np.int64), minlength=100)
        np.cumsum(a * a)
        sum(i * i for i in range(5000))
    return time.perf_counter() - t0


def median_cal(pairs) -> float:
    """Median of (seconds, calibrate() seconds around them) pairs, each rescaled
    to a host on which calibrate() takes CALIB_REF_S."""
    return statistics.median(t * CALIB_REF_S / c for t, c in pairs)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def src_fingerprint() -> tuple[str, int]:
    """SHA-256 over the package sources, and their line count."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def read_map(path: Path, column: str) -> float:
    """`column` of the last CSV row; NaN if the CSV does not hold it."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        return float(rows[-1][column])
    except (IndexError, KeyError, TypeError, ValueError):
        return math.nan


def write_config(path: Path, seed: int, data_root: Path, keys: dict) -> None:
    keys = {"seed": seed, "dataset_root": data_root, **keys}
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def gen_data(run: Run, label: str, cfg: Path, data: Path, out: Path, trace: bool) -> float | None:
    """gen-data into `data`; returns its wall time, None on failure."""
    shutil.rmtree(data, ignore_errors=True)
    gen = run.cli(label, ["gen-data", "--config", str(cfg), "--out", str(out)], trace)
    if gen is None or not run.check_outputs(label, label, tree_files(data), combine=True):
        return None
    if trace:
        run.setup_traces.append(gen["trace"])
    return gen["wall_s"]


def setup(run: Run, model_cfg: Path, cfg: Path, out: Path, trace: bool) -> float | None:
    """gen-data and the default pretrain of the model, then gen-data of the
    workload's dataset; returns the set-up wall time, None on failure."""
    shutil.rmtree(out, ignore_errors=True)
    model_gen = gen_data(run, "model-data", model_cfg, run.workdir / "model_data", out, trace)
    if model_gen is None:
        return None
    # untraced: its training would show under the per-layer metrics of
    # workloads that do not train
    pre = run.cli("pretrain", ["pretrain", "--config", str(model_cfg), "--out", str(out)])
    files = [out / "pretrain.params", out / "pretrain_metrics.csv"]
    if pre is None or not run.check_outputs("pretrain", "pretrain", files):
        return None
    gen = gen_data(run, "gen-data", cfg, run.workdir / "data", out, trace)
    if gen is None:
        return None
    return model_gen + pre["wall_s"] + gen


def timed(run: Run, wl: Workload, cfg: Path, setup_out: Path, label: str,
          trace: bool, threads: int = 1) -> dict | None:
    """One repetition of the workload's timed command, with its output checks."""
    out = run.workdir / "timed"
    shutil.rmtree(out, ignore_errors=True)
    args = [wl.command, "--config", str(cfg), "--out", str(out), "--threads", str(threads),
            "--params", str(setup_out / "pretrain.params")]
    sample = run.cli(label, args, trace)
    if sample is None:
        return None
    if not run.check_outputs(label, "timed", [out / name for name in wl.outputs]):
        return None
    sample["map"] = read_map(out / wl.map_from[0], wl.map_from[1])
    if not math.isfinite(sample["map"]):
        run.fail(f"{label}: non-finite mAP {sample['map']}")
        return None
    return sample


def scenes_per_command(wl: Workload, data: Path) -> int:
    n = len((data / "splits" / f"{wl.split}.txt").read_text().split())
    return n * (int(wl.config[wl.epochs_key]) if wl.epochs_key else 1)


# per-layer metrics printed by --trace 1, in BENCHMARK.json order: (name, unit)
PER_LAYER = [
    *[(f"voxels.{n}", u) for n, u in (
        ("voxelize.calls", "count"), ("voxelize.s", "s"), ("voxelize.voxels", "count"),
        ("bev_from_voxels.s", "s"), ("bev_align.calls", "count"), ("bev_align.s", "s"),
        ("plan_builds", "count"), ("plan_hit_ratio", "ratio"), ("self_s", "s"))],
    *[(f"detector.{n}", u) for n, u in (
        ("propose.calls", "count"), ("propose.s", "s"), ("propose.proposals", "count"),
        ("roi_features.calls", "count"), ("roi_features.s", "s"), ("refine.s", "s"),
        ("detect.calls", "count"), ("detect.s", "s"), ("detect.detections", "count"),
        ("build_training_examples.calls", "count"), ("build_training_examples.s", "s"),
        ("build_training_examples.fg_ratio", "ratio"), ("train_step.calls", "count"),
        ("train_step.s", "s"), ("self_s", "s"))],
    *[(f"geometry.{n}", u) for n, u in (
        ("iou_3d.calls", "count"), ("iou_3d.s", "s"), ("nms.calls", "count"), ("nms.s", "s"),
        ("points_in_box.calls", "count"), ("points_in_box.s", "s"), ("self_s", "s"))],
    *[(f"selftrain.{n}", u) for n, u in (
        ("ssl_epoch.s", "s"), ("pseudo_from_detection.s", "s"),
        ("pairing_iou_consistency.s", "s"), ("fit_threshold_bank.s", "s"), ("stratify.s", "s"),
        ("remove_low_level_points.s", "s"), ("ema_update.s", "s"), ("kept_ratio", "ratio"),
        ("self_s", "s"))],
    *[(f"augment.{n}", u) for n, u in (
        ("weak_channels.s", "s"), ("strong_channels.s", "s"), ("shuffle_augment.s", "s"),
        ("self_s", "s"))],
    *[(f"evaluation.{n}", u) for n, u in (
        ("evaluate_scenes.s", "s"), ("pseudo_quality.s", "s"), ("self_s", "s"), ("map", "mAP"))],
    *[(f"data.{n}", u) for n, u in (
        ("synth_scene.s", "s"), ("save_scene.s", "s"), ("load_scene.calls", "count"),
        ("load_scene.s", "s"), ("bytes_written", "B"), ("bytes_read", "B"), ("self_s", "s"))],
    ("trace.overhead_s", "s"),
    ("threads.speedup", "ratio"),
]


def layer_metrics(summaries: list[dict], output_map: float, overhead_s: float,
                  speedup: float) -> dict[str, tuple]:
    """PER_LAYER values from the trace summaries of the traced commands."""
    m: dict[str, float] = {}
    for summary in summaries:
        for name, span in summary["spans"].items():
            module = name.split(".")[0]
            for key in ("calls", "s"):
                m[f"{name}.{key}"] = m.get(f"{name}.{key}", 0) + span[key]
            m[f"{module}.self_s"] = m.get(f"{module}.self_s", 0.0) + span["self_s"]
        for name, value in summary["counters"].items():
            m[name] = m.get(name, 0) + value

    def ratio(num: str, den: str) -> float:
        return m.get(num, 0) / m[den] if m.get(den) else 0.0

    m["voxels.plan_builds"] = m.get("voxels.BilinearPlan.calls", 0)
    m["voxels.plan_hit_ratio"] = 1.0 - ratio("voxels.BilinearPlan.calls", "voxels._plan_for.calls") \
        if m.get("voxels._plan_for.calls") else 0.0
    m["detector.build_training_examples.fg_ratio"] = ratio(
        "detector.build_training_examples.fg", "detector.build_training_examples.examples")
    m["selftrain.kept_ratio"] = ratio("selftrain.stratify.kept", "selftrain.stratify.pseudo")
    m["data.bytes_written"] = m.get("data.save_scene.bytes", 0)
    m["data.bytes_read"] = m.get("data.load_scene.bytes", 0)
    m["evaluation.map"] = output_map
    m["trace.overhead_s"] = overhead_s
    m["threads.speedup"] = speedup
    return {name: (m.get(name, 0), unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "cadet3d" / "cli.py").is_file():
        print(f"error: no cadet3d sources under {SRC.resolve()}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    # traced and untraced runs share the directory, so they share the config
    # and digest-history key: tracing must not change any output
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workdir, start + RUN_BUDGET_S)
    setup_out, cfg, model_cfg = workdir / "setup", workdir / "run.cfg", workdir / "model.cfg"
    write_config(cfg, args.seed, workdir / "data", {**wl.data, **wl.config})
    write_config(model_cfg, MODEL_SEED, workdir / "model_data", MODEL_DATA)

    # The CPU speed of a shared host drifts over seconds to minutes, so set-ups
    # and repetitions interleave, their medians spanning the whole run, and
    # each is timed against calibrate() runs just before and after it.
    setup_reps = 1 if trace else SETUP_REPS
    setups, samples, traced = [], [], []  # setups: (wall_s, calib_s)
    calibs = [calibrate()]
    measured = 0.0
    while True:
        if len(setups) < setup_reps:
            t = setup(run, model_cfg, cfg, setup_out, trace)
            if t is None:
                break
            calibs.append(calibrate())
            setups.append((t, (calibs[-2] + calibs[-1]) / 2))
        sample = timed(run, wl, cfg, setup_out, f"timed{len(samples)}", trace=False)
        if sample is None:
            break
        calibs.append(calibrate())
        sample["calib_s"] = (calibs[-2] + calibs[-1]) / 2
        samples.append(sample)
        measured += sample["wall_s"]
        if trace:
            sample = timed(run, wl, cfg, setup_out, f"traced{len(traced)}", trace=True)
            if sample is None:
                break
            traced.append(sample)
            measured += sample["wall_s"]
        if len(setups) == setup_reps and measured >= args.seconds:
            break
    pooled = None
    if trace and traced and POOL_THREADS > 1:
        # the same command through _detect_many's thread pool; outputs must not change
        pooled = timed(run, wl, cfg, setup_out, "pooled", trace=False, threads=POOL_THREADS)

    fingerprint, src_lines = src_fingerprint()
    meta = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "model_seed": MODEL_SEED,
        "seconds": args.seconds, "trace": args.trace, "src_sha256": fingerprint,
        "src_lines": src_lines, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "nproc": NPROC,
        "threads": 1, "pool_threads": POOL_THREADS, "setup_reps": len(setups),
        "samples": len(samples), "traced_samples": len(traced),
        "trace_missing": traced[-1]["trace"]["missing"] if traced else [],
    }
    check_digest_history(run, f"{fingerprint}:{sha256_file(cfg)}:{sha256_file(model_cfg)}")

    metrics: dict[str, tuple] = {}
    info: dict[str, tuple] = {}  # printed and saved, but not part of the result line
    if samples and (traced or not trace):
        if trace:
            overhead = (statistics.median(s["main_s"] for s in traced)
                        - statistics.median(s["main_s"] for s in samples))
            speedup = (statistics.median(s["main_s"] for s in samples) / pooled["main_s"]
                       if pooled else 0.0)
            metrics = layer_metrics([*run.setup_traces, traced[-1]["trace"]], traced[-1]["map"],
                                    overhead, speedup)
        else:
            n_scenes = scenes_per_command(wl, workdir / "data")
            metrics = {
                "wall_cal_s": (median_cal((s["wall_s"], s["calib_s"]) for s in samples), "s"),
                "cpu_cal_s": (median_cal((s["cpu_s"], s["calib_s"]) for s in samples), "s"),
                "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
                "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
                "map": (samples[-1]["map"], "mAP"),
                "setup_s": (median_cal(setups), "s"),
            }
            info = {
                "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
                "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
                "setup_raw_s": (statistics.median(t for t, _ in setups), "s"),
                "calib_s": (statistics.median(calibs), "s"),
                "scenes_per_s": (statistics.median(n_scenes / s["wall_s"] for s in samples), "1/s"),
                "fail_ratio": (run.failed / run.attempted, "ratio"),
            }
    elif not run.failed:
        run.fail("no repetition of the timed command completed")

    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:45s} {value:>14.6g} {unit}")
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "meta": meta, "digests": run.digests, "errors": run.errors,
        "setups": setups, "calibs": calibs, "samples": [strip_trace(s) for s in samples],
        "traced": [strip_trace(s) for s in traced], "pooled": pooled,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **info}.items()},
    }, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def strip_trace(sample: dict) -> dict:
    return {k: v for k, v in sample.items() if k != "trace"}


def check_digest_history(run: Run, key: str) -> None:
    """Outputs of one source tree and config (workload and seed) must match across runs."""
    path = WORK / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    known = history.setdefault(key, run.digests)
    for name, digests in run.digests.items():
        if name in known and known[name] != digests:
            run.fail(f"{name}: outputs differ from an earlier run of this source tree and seed")
        known.setdefault(name, digests)
    path.write_text(json.dumps(history, indent=1))


if __name__ == "__main__":
    sys.exit(main())
