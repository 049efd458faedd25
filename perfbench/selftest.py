#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py

Checks, and exits nonzero if any fails:
  * BENCHMARK.json lists exactly the workloads of run.py and the per-layer
    metrics run.py prints, in the same order and units;
  * a run in a directory holding only BENCHMARK.json and perfbench/ exits
    nonzero without printing a result line;
  * one untraced run prints exactly the end-to-end metrics, correct, no
    failure;
  * one traced run per workload prints exactly the per-layer metrics,
    correct, no failure; no per-layer metric reads zero on every workload;
  * the bypass predictions of README.md hold: on eval-large nothing in
    selftrain runs, train_step is never called and the plan cache hits
    (hit ratio >= 0.95); on ssl-default strong channels and shuffle_augment
    run and nearly every strong-channel plan is built fresh.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

RUN = ["python3", "perfbench/run.py"]
SEED = 3


def result_of(args: list[str], cwd: str = ".") -> tuple[int, dict | None]:
    proc = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last if last is not None and "correct" in last else None


def main() -> int:
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.PER_LAYER")
    end_to_end = [m["name"] for m in bench["end_to_end"]]

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = result_of(["--workload", "eval-large", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=str(bare))
    check(rc != 0 and result is None, "without sources the run exits nonzero and prints no result")
    shutil.rmtree(bare)

    common = ["--seed", str(SEED), "--seconds", "1"]
    rc, result = result_of(["--workload", "eval-large", *common, "--trace", "0"])
    check(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
          "untraced eval-large run is correct")
    if result is not None:
        check(list(result["metrics"]) == end_to_end, "untraced run prints exactly the end-to-end metrics")

    layers: dict[str, dict[str, float]] = {}
    for name in run.WORKLOADS:
        rc, result = result_of(["--workload", name, *common, "--trace", "1"])
        check(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
              f"traced {name} run is correct (traced and untraced outputs identical)")
        if result is None:
            continue
        check(list(result["metrics"]) == [n for n, _ in run.PER_LAYER],
              f"traced {name} run prints exactly the per-layer metrics")
        layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
    if len(layers) != len(run.WORKLOADS):
        check(False, "every workload produced per-layer metrics")
        return 1

    for metric, _ in run.PER_LAYER:
        check(any(layers[w][metric] != 0 for w in layers), f"{metric} is nonzero on some workload")

    ev, ssl = layers["eval-large"], layers["ssl-default"]
    check(all(v == 0 for k, v in ev.items() if k.startswith("selftrain.")),
          "eval-large: every selftrain.* metric is zero")
    check(ev["detector.train_step.calls"] == 0, "eval-large: detector.train_step.calls is zero")
    check(ev["voxels.plan_hit_ratio"] >= 0.95, "eval-large: voxels.plan_hit_ratio >= 0.95")
    check(ssl["augment.strong_channels.s"] > 0 and ssl["augment.shuffle_augment.s"] > 0,
          "ssl-default: strong channels and shuffle_augment run")
    # each training step aligns 2 fresh strong channels to the reference one
    check(ssl["voxels.plan_builds"] >= 0.9 * 2 * ssl["detector.build_training_examples.calls"],
          "ssl-default: nearly every strong-channel plan is built fresh")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
