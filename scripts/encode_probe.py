#!/usr/bin/env python3
"""Per-stage CPU and traced memory of ``encode_batch`` at three point densities,
alone or against a second source tree.

Builds ``ENCODE_BATCH`` synth scenes (seeds 0 to ENCODE_BATCH - 1) in process
at 1x, 20x and 100x the default density: ``SynthConfig(ground_points=1000 * k,
surface_density=8 * k)``, about 1.5k, 25k and 125k points per scene. Each
batch is encoded under the weak channel policy, once under ``tracemalloc``
and then ``REPEATS`` times with the encode stages (the channel clouds, then
the five array stages) and the whole call timed by ``time.process_time``;
the table gives each one's median CPU per batch, divided per scene and per
point, and its traced peak above what was live when it started (each stage's
own, read with ``tracemalloc.reset_peak``; the whole call's over all its
stages). Outputs are not checked here: the test suite does that.

With ``--against OTHER_SRC`` the ``cadet3d`` package under OTHER_SRC (say the
``src`` of a checkout of the parent commit) is imported a second time, as
``cadet3d_against``, and both trees encode the same batches. Every batch's
encodings, under the weak policy and under strong channels drawn per scene,
must be byte-identical (exit 1 otherwise). Then the two trees encode the weak
batch ``PAIRS`` times each per density, alternated and each pair in turn
order, and the table gives per stage the median of this tree's CPU over the
other's, the quartiles of that ratio and the pairs in which this tree took
less CPU.

Usage:
    PYTHONPATH=src python scripts/encode_probe.py
    PYTHONPATH=src python scripts/encode_probe.py --against OTHER_SRC
"""
import argparse
import importlib
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from cadet3d import detector
from cadet3d.augment import strong_channels
from cadet3d.config import RunConfig
from cadet3d.data import SynthConfig, synth_scene

DENSITIES = (1, 20, 100)
REPEATS = 11
PAIRS = 15
STAGES = ("_channel_clouds", "voxelize", "bev_from_voxels", "bev_align", "propose", "roi_features")


def timed(name, fn, spent, peaks):
    def run(*args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if tracing:  # keep the call's peak so far, then measure the stage's own
            base, peak = tracemalloc.get_traced_memory()
            peaks["encode_batch"] = max(peaks["encode_batch"], peak)
            tracemalloc.reset_peak()
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.process_time() - t0
            if tracing:
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
    return run


def instrument(module, spent, peaks):
    """Wrap ``module``'s encode stages to add into ``spent`` and ``peaks``;
    returns the originals, for :func:`restore`."""
    originals = {name: getattr(module, name) for name in STAGES}
    for name in STAGES:
        setattr(module, name, timed(name, originals[name], spent, peaks))
    return originals


def restore(module, originals):
    for name, fn in originals.items():
        setattr(module, name, fn)


def density_clouds(k):
    cfg = SynthConfig(ground_points=1000 * k, surface_density=8.0 * k)
    return [synth_scene(seed, cfg).cloud for seed in range(detector.ENCODE_BATCH)]


def load_tree(src, name="cadet3d_against"):
    """The ``detector`` module of the ``cadet3d`` package under ``src``,
    imported as package ``name``; its modules import each other relatively."""
    init = Path(src) / "cadet3d" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no cadet3d package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.detector")


def encoding_bytes(encs):
    return [(a.dtype.str, a.shape, a.tobytes()) for enc in encs
            for a in (enc.boxes, enc.features, enc.anchors, enc.channel_features)]


def profile() -> None:
    transforms = [RunConfig(seed=1).weak_policy()] * detector.ENCODE_BATCH
    print(f"encode_batch of {detector.ENCODE_BATCH} scenes, weak policy, "
          f"median of {REPEATS} timed encodes after one traced one")
    print(f"{'points/scene':>12} {'stage':>16} {'ms/scene':>9} {'us/point':>9} {'peak MiB':>9}")
    spent = dict.fromkeys(STAGES, 0.0)
    peaks = dict.fromkeys(STAGES + ("encode_batch",), 0)
    originals = instrument(detector, spent, peaks)
    try:
        for k in DENSITIES:
            clouds = density_clouds(k)
            n_points = sum(len(pc) for pc in clouds)
            per_scene = n_points / len(clouds)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                peaks["encode_batch"] = 0
                detector.encode_batch(clouds, transforms)
                peaks["encode_batch"] = max(peaks["encode_batch"],
                                            tracemalloc.get_traced_memory()[1]) - before
            finally:
                tracemalloc.stop()
            samples = {name: [] for name in STAGES + ("encode_batch",)}
            for _ in range(REPEATS):
                spent.update(dict.fromkeys(STAGES, 0.0))
                t0 = time.process_time()
                detector.encode_batch(clouds, transforms)
                samples["encode_batch"].append(time.process_time() - t0)
                for name in STAGES:
                    samples[name].append(spent[name])
            for name, values in samples.items():
                s = statistics.median(values)
                print(f"{per_scene:12.0f} {name:>16} {1e3 * s / len(clouds):9.3f} "
                      f"{1e6 * s / n_points:9.4f} {peaks[name] / 2**20:9.2f}")
    finally:
        restore(detector, originals)


def compare(other_src) -> int:
    cfg = RunConfig(seed=1)
    weak = [cfg.weak_policy()] * detector.ENCODE_BATCH
    strong = [strong_channels(cfg, seed) for seed in range(detector.ENCODE_BATCH)]
    trees = {"this": detector, "other": load_tree(other_src)}
    spent = {tree: dict.fromkeys(STAGES, 0.0) for tree in trees}
    originals = {tree: instrument(module, spent[tree], {}) for tree, module in trees.items()}
    print(f"this tree over {other_src}: encode_batch of {detector.ENCODE_BATCH} scenes, weak "
          f"policy, {PAIRS} alternated pairs per density")
    print(f"{'points/scene':>12} {'stage':>16} {'median':>7} {'q1':>7} {'q3':>7} {'won':>6}")
    try:
        for k in DENSITIES:
            clouds = density_clouds(k)
            per_scene = sum(len(pc) for pc in clouds) / len(clouds)
            for transforms in (weak, strong):
                this, other = (encoding_bytes(module.encode_batch(clouds, transforms))
                               for module in trees.values())
                if this != other:
                    print(f"error: encodings differ at {per_scene:.0f} points per scene",
                          file=sys.stderr)
                    return 1
            samples = {tree: {name: [] for name in STAGES + ("encode_batch",)} for tree in trees}
            for rep in range(PAIRS):
                for tree in (("this", "other") if rep % 2 == 0 else ("other", "this")):
                    spent[tree].update(dict.fromkeys(STAGES, 0.0))
                    t0 = time.process_time()
                    trees[tree].encode_batch(clouds, weak)
                    samples[tree]["encode_batch"].append(time.process_time() - t0)
                    for name in STAGES:
                        samples[tree][name].append(spent[tree][name])
            for name in STAGES + ("encode_batch",):
                pairs = list(zip(samples["this"][name], samples["other"][name]))
                q1, median, q3 = statistics.quantiles([a / b for a, b in pairs], n=4)
                won = sum(a < b for a, b in pairs)
                print(f"{per_scene:12.0f} {name:>16} {median:7.3f} {q1:7.3f} {q3:7.3f} "
                      f"{won:>3}/{len(pairs)}")
    finally:
        for tree, module in trees.items():
            restore(module, originals[tree])
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="directory holding a second cadet3d package to compare with")
    args = ap.parse_args(argv)
    if args.against:
        return compare(args.against)
    profile()
    return 0


if __name__ == "__main__":
    sys.exit(main())
