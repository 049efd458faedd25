"""Span tracing for cadet3d, installed from outside the package.

`install()` replaces each traced function by a wrapper under every name it is
looked up by: its home module and every `cadet3d` module that imported it
(`detector` imports `bev_align`, `selftrain` imports `detect`, several modules
import `iou_3d`). No file under `src/` changes.

Each call records one span: name, start, end and parent span. Spans are kept
per thread in flat arrays, so the `_detect_many` thread pool needs no lock on
the hot path, and are written out once by `dump_spans()`. Counters that need the
arguments or the result (voxels made, proposals kept, bytes read) are
recorded at the same boundary by a small hook per function.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from array import array

import numpy as np

# (module, attribute) of every traced function; "Class.method" wraps a method
TARGETS = {
    "voxels": ["voxelize", "bev_from_voxels", "bev_align", "_plan_for", "BilinearPlan.__init__"],
    "detector": ["propose", "roi_features", "refine", "detect", "build_training_examples",
                 "train_step"],
    "geometry": ["iou_3d", "nms", "points_in_box"],
    "selftrain": ["ssl_epoch", "pseudo_from_detection", "pairing_iou_consistency",
                  "fit_threshold_bank", "stratify", "remove_low_level_points", "ema_update"],
    "augment": ["weak_channels", "strong_channels", "shuffle_augment"],
    "evaluation": ["evaluate_scenes", "pseudo_quality"],
    "data": ["synth_scene", "save_scene", "load_scene"],
}


def _scene_bytes(root, scene_id) -> int:
    total = 0
    for sub, ext in (("points", "bin"), ("labels", "txt")):
        path = os.path.join(str(root), sub, f"{scene_id}.{ext}")
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# per-function counters: hook(args, kwargs, result) -> {counter: increment}
HOOKS = {
    "voxels.voxelize": lambda a, k, r: {"voxels": len(r.coords)},
    "detector.propose": lambda a, k, r: {"proposals": len(r)},
    "detector.detect": lambda a, k, r: {"detections": len(r)},
    "detector.build_training_examples": lambda a, k, r: {
        "examples": len(r), "fg": sum(e.targets is not None for e in r)},
    "selftrain.stratify": lambda a, k, r: {
        "pseudo": len(r), "kept": sum(pb.level != "low" for pb in r)},
    "data.save_scene": lambda a, k, r: {
        "bytes": _scene_bytes(_arg(a, k, 0, "root"), _arg(a, k, 1, "scene").id)},
    "data.load_scene": lambda a, k, r: {
        "bytes": _scene_bytes(_arg(a, k, 0, "root"), _arg(a, k, 1, "scene_id"))},
}


class _Buffer:
    """Spans of one thread: name index, parent index (-1 for a root), times."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _count(self, name: str, incs: dict[str, int]) -> None:
        with self._lock:
            for key, inc in incs.items():
                full = f"{name}.{key}"
                self.counters[full] = self.counters.get(full, 0) + int(inc)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.current)
            buf.end.append(0.0)
            buf.current = idx
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.current = buf.parent[idx]
            if hook is not None:
                self._count(name, hook(args, kwargs, result))
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every target under each name a loaded cadet3d module binds it to."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cadet3d" or key.startswith("cadet3d."))]
        for mod_name, attrs in TARGETS.items():
            home = sys.modules.get(f"cadet3d.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr.replace('.__init__', '')}"
                owner, _, method = attr.rpartition(".")
                holder = getattr(home, owner, None) if owner else home
                original = getattr(holder, method, None) if holder is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self.wrap(name, original)
                if owner:
                    setattr(holder, method, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus counters."""
        n = len(self.names)
        calls = np.zeros(n)
        incl = np.zeros(n)
        self_s = np.zeros(n)
        n_spans = 0
        for buf in self._buffers:
            names = np.frombuffer(buf.name, dtype=np.int32)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            dur = np.frombuffer(buf.end, dtype=np.float64) - np.frombuffer(buf.start, dtype=np.float64)
            has_parent = parent >= 0
            covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
            calls += np.bincount(names, minlength=n)
            incl += np.bincount(names, weights=dur, minlength=n)
            self_s += np.bincount(names, weights=dur - covered, minlength=n)
            n_spans += len(dur)
        spans = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        return {"run_id": self.run_id, "n_spans": n_spans, "spans": spans,
                "counters": dict(self.counters), "missing": list(self.missing)}

    def dump_spans(self, path) -> None:
        """Write every span: name index, parent index, start, end, thread."""
        cols = {"name": [], "parent": [], "start": [], "end": [], "thread": []}
        for t, buf in enumerate(self._buffers):
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["parent"].append(np.frombuffer(buf.parent, dtype=np.int64))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            cols["thread"].append(np.full(len(buf.start), t, dtype=np.int32))
        arrays = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), run_id=np.array(self.run_id), **arrays)
