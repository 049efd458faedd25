#!/usr/bin/env python3
"""Run the standard 3-seed semi-supervised benchmark end to end.

Per seed: generate the 200+50-scene dataset, pretrain on the 5% labeled
split, self-train for the default epoch budget, and evaluate both parameter
sets on the validation split. Prints a compact per-seed table plus the mean
gain of self-training over pretraining.

Usage:
    python scripts/run_benchmark.py [--seeds 1 2 3] [--workdir DIR]
"""
import argparse
import csv
import sys
import tempfile
import time
from pathlib import Path

from cadet3d.cli import main as cli


def read_results(path):
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    return {k: float(row[k]) for k in ("Car", "Pedestrian", "Cyclist", "Avg")}


def run_seed(seed: int, workdir: Path) -> dict:
    data = workdir / f"data{seed}"
    out = workdir / f"run{seed}"
    cfg = workdir / f"cfg{seed}.txt"
    cfg.write_text(f"seed = {seed}\ndataset_root = {data}\nout_dir = {out}\n")
    for args in (
        ["gen-data", "--config", str(cfg)],
        ["pretrain", "--config", str(cfg)],
        ["ssl-train", "--config", str(cfg)],
        ["eval", "--config", str(cfg), "--params", str(out / "pretrain.params"),
         "--out", str(out / "eval_pretrain")],
        ["eval", "--config", str(cfg), "--params", str(out / "student.params"),
         "--out", str(out / "eval_student")],
        ["report", "--run", str(out)],
    ):
        rc = cli(args)
        if rc != 0:
            raise SystemExit(f"command {args[0]} failed with exit code {rc}")
    return {
        "pretrain": read_results(out / "eval_pretrain" / "results.csv"),
        "student": read_results(out / "eval_student" / "results.csv"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workdir", type=str, default=None,
                    help="where datasets and runs go (default: a temp dir)")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="bench_"))
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    rows = []
    for seed in args.seeds:
        res = run_seed(seed, workdir)
        rows.append((seed, res))
        p, s = res["pretrain"], res["student"]
        print(f"seed {seed}: pretrain Car {p['Car']:.1f} Ped {p['Pedestrian']:.1f} "
              f"Cyc {p['Cyclist']:.1f} Avg {p['Avg']:.1f}  ->  "
              f"self-trained Avg {s['Avg']:.1f} ({s['Avg'] - p['Avg']:+.1f})")
    gains = [r["student"]["Avg"] - r["pretrain"]["Avg"] for _, r in rows]
    print(f"mean gain over {len(rows)} seeds: {sum(gains) / len(gains):+.2f} mAP "
          f"({time.time() - t0:.0f}s, outputs in {workdir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
