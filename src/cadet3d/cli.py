"""Experiment driver: dataset generation, pretraining, self-training, metric
evaluation, and report emission.

Exit codes: 0 success, 1 internal error (numeric failures included), 2 input
problem (unreadable file, bad config, malformed label, point or metrics file),
3 model-compatibility problem. Every command is a pure function of its config
and input files; reruns produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ConfigError, RunConfig, config_to_text, load_config
from .data import (
    CLASS_NAMES,
    BinFormatError,
    KittiFormatError,
    Scene,
    SplitFormatError,
    SplitSpec,
    atomic_open,
    load_scene,
    read_split,
    save_scene,
    split_sample,
    synth_scene,
    write_split,
)
from .detector import (
    BACKGROUND_WEIGHT,
    ENCODE_BATCH,
    DetectorParams,
    LossTotals,
    NonFiniteLossError,
    ParamsFormatError,
    SceneEncoding,
    encode_batch,
    load_params,
    save_params,
    train_on_scene,
)
from .geometry import PointCloud
from .selftrain import (
    EmaTeacher,
    EpochMetrics,
    SslState,
    detect_and_score,
    scene_seed,
    ssl_epoch,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_IO = 2
EXIT_COMPAT = 3

PRETRAIN_PARAMS = "pretrain.params"
STUDENT_PARAMS = "student.params"
TEACHER_PARAMS = "teacher.params"
METRICS_CSV = "metrics.csv"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _snapshot_config(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "run_config.txt") as fh:
        fh.write(config_to_text(cfg))


def _load_split_scenes(cfg: RunConfig, name: str) -> list[Scene]:
    root = Path(cfg.dataset_root)
    return [load_scene(root, sid) for sid in read_split(root, name)]


def _encode(scenes: list[Scene], policy, drop_clouds: bool = False) -> Iterator[SceneEncoding]:
    """Encodings of ``scenes`` under ``policy``, ``ENCODE_BATCH`` scenes per
    :func:`encode_batch` call. With ``drop_clouds``, each scene's cloud is
    replaced by an empty one once its batch is encoded; its labels stay."""
    for k in range(0, len(scenes), ENCODE_BATCH):
        batch = scenes[k:k + ENCODE_BATCH]
        encodings = encode_batch([s.cloud for s in batch], [policy] * len(batch))
        if drop_clouds:
            for scene in batch:
                scene.cloud = PointCloud.empty()
        yield from encodings


def _load_model(path) -> DetectorParams:
    """Params file checked against the class count of ``CLASS_NAMES`` (exit 3 if not)."""
    params = load_params(path)
    if params.num_classes != len(CLASS_NAMES):
        raise ParamsFormatError(
            f"{path}: {params.num_classes} classes, expected {len(CLASS_NAMES)}")
    return params


def cmd_gen_data(cfg: RunConfig) -> int:
    root = Path(cfg.dataset_root)
    root.mkdir(parents=True, exist_ok=True)
    for i in range(cfg.n_scenes):
        scene = synth_scene(scene_seed(cfg.seed, 0, i, 10), cfg.synth, scene_id=f"{i:06d}")
        save_scene(root, scene)
    val_ids = []
    for i in range(cfg.n_val_scenes):
        sid = f"{cfg.n_scenes + i:06d}"
        scene = synth_scene(scene_seed(cfg.seed, 0, i, 11), cfg.synth, scene_id=sid)
        save_scene(root, scene)
        val_ids.append(sid)
    labeled, unlabeled = split_sample(cfg.n_scenes, SplitSpec(cfg.fraction, cfg.seed))
    write_split(root, "labeled", labeled)
    write_split(root, "unlabeled", unlabeled)
    write_split(root, "val", val_ids)
    print(
        f"generated {cfg.n_scenes} train scenes ({len(labeled)} labeled, "
        f"{len(unlabeled)} unlabeled) and {len(val_ids)} validation scenes at {root}"
    )
    return EXIT_OK


def _metrics_header() -> list[str]:
    return [f.name for f in dataclasses.fields(EpochMetrics)]


def _metrics_row(m: EpochMetrics) -> list:
    return [getattr(m, f.name) for f in dataclasses.fields(EpochMetrics)]


def cmd_pretrain(cfg: RunConfig) -> int:
    _snapshot_config(cfg)
    labeled = _load_split_scenes(cfg, "labeled")
    params = DetectorParams.zeros(len(CLASS_NAMES))
    # supervised pretraining is single-channel and weak, so every epoch trains
    # and scores on the same encodings
    policy = cfg.weak_policy(n_channels=1)
    encodings = list(_encode(labeled, policy))
    rows = []
    for epoch in range(cfg.pretrain_epochs + 1):  # epoch 0 scores the initialization
        totals = LossTotals()
        for scene, enc in zip(labeled, encodings) if epoch else ():
            totals.add(train_on_scene(enc, scene.gt_boxes, scene.gt_classes,
                                      [1.0] * len(scene.gt_boxes), params, BACKGROUND_WEIGHT))
        labeled_map = detect_and_score(labeled, encodings, params).map
        rows.append([epoch, *totals.means(), 100.0 * labeled_map])
    out = Path(cfg.out_dir)
    save_params(params, out / PRETRAIN_PARAMS)
    _write_csv(out / "pretrain_metrics.csv",
               ["epoch", "cls_loss", "reg_loss", "obj_loss", "total_loss", "labeled_map"], rows)
    print(f"pretrained {cfg.pretrain_epochs} epochs on {len(labeled)} labeled scenes; "
          f"labeled-set mAP {rows[-1][-1]:.2f} (epoch 0: {rows[0][-1]:.2f})")
    return EXIT_OK


def cmd_ssl_train(cfg: RunConfig, params_path) -> int:
    _snapshot_config(cfg)
    pretrained = _load_model(params_path)
    labeled = _load_split_scenes(cfg, "labeled")
    unlabeled = _load_split_scenes(cfg, "unlabeled")
    val = _load_split_scenes(cfg, "val")
    state = SslState(
        student=pretrained.copy(),
        teacher=EmaTeacher(pretrained.copy(), momentum=cfg.ema_momentum),
        seed=cfg.seed,
    )
    # the weak-policy teacher and validation passes re-score the same
    # encodings; nothing reads a val cloud after its encode
    weak = cfg.weak_policy()
    unlabeled_enc = list(_encode(unlabeled, weak))
    val_enc = list(_encode(val, weak, drop_clouds=True))
    rows = []
    for _ in range(cfg.epochs):
        metrics = ssl_epoch(state, labeled, unlabeled, unlabeled_enc, cfg,
                            val_scenes=val, val_enc=val_enc)
        rows.append(_metrics_row(metrics))
        print(
            f"epoch {metrics.epoch}: val mAP {metrics.val_map:.2f}, "
            f"pseudo h/a/l = {metrics.n_high}/{metrics.n_ambiguous}/{metrics.n_low}, "
            f"incorrect pre/post = {metrics.incorrect_prefilter}/{metrics.incorrect_postfilter}"
        )
    out = Path(cfg.out_dir)
    save_params(state.student, out / STUDENT_PARAMS)
    save_params(state.teacher.params, out / TEACHER_PARAMS)
    _write_csv(out / METRICS_CSV, _metrics_header(), rows)
    return EXIT_OK


def cmd_eval(cfg: RunConfig, params_path, split: str) -> int:
    _snapshot_config(cfg)
    params = _load_model(params_path)
    scenes = _load_split_scenes(cfg, split)
    policy = cfg.weak_policy()
    # every scene is loaded and checked before any is detected; then each batch
    # is encoded as it is scored, its clouds dropped, and no encoding is held
    result = detect_and_score(scenes, _encode(scenes, policy, drop_clouds=True), params)
    out = Path(cfg.out_dir)
    per_class = {CLASS_NAMES[c - 1]: (None if v is None else 100.0 * v) for c, v in result.ap.items()}
    mean_ap = 100.0 * result.map
    wide = [[split, cfg.seed] + [per_class.get(n, None) for n in CLASS_NAMES] + [mean_ap]]
    _write_csv(out / "results.csv", ["split", "seed", *CLASS_NAMES, "Avg"], wide)
    long_rows = [
        [split, cfg.seed, name, per_class.get(name), mean_ap] for name in CLASS_NAMES
    ]
    _write_csv(out / "results_by_class.csv", ["split", "seed", "class", "AP", "mAP"], long_rows)
    parts = ", ".join(f"{n} {per_class.get(n)}" for n in CLASS_NAMES)
    print(f"{split}: {parts}, Avg {mean_ap:.2f}")
    return EXIT_OK


# report series: (output stem, columns drawn from the metrics CSV)
_REPORT_SERIES = {
    "loss_curves": ["sup_total", "unsup_total", "sup_cls", "sup_reg", "sup_obj",
                    "unsup_cls", "unsup_reg", "unsup_obj"],
    "level_counts": ["n_high", "n_ambiguous", "n_low"],
    "incorrect_boxes": ["incorrect_prefilter", "incorrect_postfilter"],
    "pair_evals": ["channel_pair_evals", "pairing_pair_evals"],
    "val_map": ["val_map", "val_ap_car", "val_ap_pedestrian", "val_ap_cyclist"],
}


def _write_svg(path, epochs: list[float], series: dict[str, list[float]]) -> None:
    width, height, margin = 640, 320, 40
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")
    all_vals = [v for vals in series.values() for v in vals] or [0.0]
    lo, hi = min(all_vals + [0.0]), max(all_vals)
    span = (hi - lo) or 1.0
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin
    xspan = (max(epochs) - min(epochs)) if len(epochs) > 1 else 1.0
    xmin = min(epochs) if epochs else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for k, (name, vals) in enumerate(series.items()):
        if not epochs:
            continue
        pts = " ".join(
            f"{x0 + (e - xmin) / xspan * (x1 - x0):.1f},"
            f"{y0 - (v - lo) / span * (y0 - y1):.1f}"
            for e, v in zip(epochs, vals)
        )
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{x1 - 150}" y="{y1 + 14 * k}" fill="{color}" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_report(run_dir, svg: bool = True) -> int:
    run = Path(run_dir)
    metrics_path = run / METRICS_CSV
    if not metrics_path.exists():
        raise FileNotFoundError(f"no metrics CSV at {metrics_path}")
    with open(metrics_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    needed = ["epoch", *(c for cols in _REPORT_SERIES.values() for c in cols)]
    missing = [c for c in needed if c not in (reader.fieldnames or ())]
    if missing:
        print(f"error: {metrics_path} lacks column(s) {', '.join(missing)}", file=sys.stderr)
        return EXIT_IO
    try:
        values = {c: [float(r[c]) for r in rows] for c in needed}
    except (TypeError, ValueError) as exc:
        print(f"error: {metrics_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    for i, r in enumerate(rows):
        for c in needed:
            if not math.isfinite(values[c][i]):
                print(f"error: {metrics_path}: non-finite {c} = {r[c]} at epoch {r['epoch']}",
                      file=sys.stderr)
                return EXIT_IO
    report_dir = run / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    for stem, cols in _REPORT_SERIES.items():
        out_rows = [[r["epoch"], *[r[c] for c in cols]] for r in rows]
        _write_csv(report_dir / f"{stem}.csv", ["epoch", *cols], out_rows)
        if svg:
            _write_svg(report_dir / f"{stem}.svg", values["epoch"], {c: values[c] for c in cols})
    print(f"report written to {report_dir} ({len(rows)} epochs, svg={'on' if svg else 'off'})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key = value config file")
    common.add_argument("--seed", type=int, default=None, help="master seed (mandatory somewhere)")
    common.add_argument("--threads", type=int, default=None,
                        help="kept for existing configs and scripts (must be >= 1); detection "
                        "runs serially, so it changes neither outputs nor speed")
    common.add_argument("--out", type=str, default=None, help="output directory")
    parser = argparse.ArgumentParser(prog="cadet3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", parents=[common], help="generate the synthetic dataset")
    sub.add_parser("pretrain", parents=[common], help="supervised single-channel pretraining")
    p_ssl = sub.add_parser("ssl-train", parents=[common], help="teacher-student self-training")
    p_ssl.add_argument("--params", type=str, default=None, help="pretrained params file")
    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a params file")
    p_eval.add_argument("--params", type=str, required=True)
    p_eval.add_argument("--split", type=str, default="val", choices=["labeled", "unlabeled", "val"])
    p_rep = sub.add_parser("report", parents=[common], help="emit plot-data files from a run")
    p_rep.add_argument("--run", type=str, default=None, help="run directory (defaults to --out)")
    p_rep.add_argument("--no-svg", action="store_true", help="write CSV series only")
    return parser


def _config_from_args(args) -> RunConfig:
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out_dir"] = args.out
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            run_dir = args.run or args.out
            if run_dir is None:
                print("report: need --run or --out", file=sys.stderr)
                return EXIT_IO
            return cmd_report(run_dir, svg=not args.no_svg)
        cfg = _config_from_args(args)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "pretrain":
            return cmd_pretrain(cfg)
        if args.command == "ssl-train":
            params = args.params or str(Path(cfg.out_dir) / PRETRAIN_PARAMS)
            return cmd_ssl_train(cfg, params)
        if args.command == "eval":
            return cmd_eval(cfg, args.params, args.split)
        raise AssertionError(f"unhandled command {args.command}")
    except ParamsFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    # input problems; UnicodeDecodeError is undecodable config, label or split text
    except (ConfigError, KittiFormatError, BinFormatError, SplitFormatError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteLossError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
