#!/usr/bin/env python3
"""Per-stage CPU and traced memory of ``encode_batch`` at three point densities.

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

Usage:
    PYTHONPATH=src python scripts/encode_probe.py
"""
import statistics
import time
import tracemalloc

from cadet3d import detector
from cadet3d.config import RunConfig
from cadet3d.data import SynthConfig, synth_scene

DENSITIES = (1, 20, 100)
REPEATS = 11
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


def main() -> None:
    transforms = [RunConfig(seed=1).weak_policy()] * detector.ENCODE_BATCH
    print(f"encode_batch of {detector.ENCODE_BATCH} scenes, weak policy, "
          f"median of {REPEATS} timed encodes after one traced one")
    print(f"{'points/scene':>12} {'stage':>16} {'ms/scene':>9} {'us/point':>9} {'peak MiB':>9}")
    spent = dict.fromkeys(STAGES, 0.0)
    peaks = dict.fromkeys(STAGES + ("encode_batch",), 0)
    originals = {name: getattr(detector, name) for name in STAGES}
    for name in STAGES:
        setattr(detector, name, timed(name, originals[name], spent, peaks))
    try:
        for k in DENSITIES:
            cfg = SynthConfig(ground_points=1000 * k, surface_density=8.0 * k)
            clouds = [synth_scene(seed, cfg).cloud for seed in range(detector.ENCODE_BATCH)]
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
        for name, fn in originals.items():
            setattr(detector, name, fn)


if __name__ == "__main__":
    main()
