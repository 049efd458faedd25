"""A deterministic work ledger. A tiny ``gen-data``, ``pretrain``,
``ssl-train`` and ``eval`` run at a fixed seed with counters installed on the
functions whose work the package's speedups moved, and the counts per command
are compared exactly with ``tests/work_ledger.json``.

Timings drift between runs and machines; for a given config and seed these
counts do not. A change that moves work fails here, and rewrites the JSON
(``PYTHONPATH=src python tests/test_work_ledger.py``) with its before -> after
stated, as it would an output digest.
"""
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from cadet3d import data, detector, geometry
from cadet3d.cli import main

LEDGER = Path(__file__).with_name("work_ledger.json")
COMMANDS = ("gen-data", "pretrain", "ssl-train", "eval")

# (home module, function) -> the counts one call adds, from its positional args
COUNTED = {
    (geometry, "iou_3d_rows"): lambda args: {"calls": 1, "pairs": len(args[0])},
    (detector, "encode_batch"): lambda args: {"calls": 1, "slots": sum(map(len, args[1]))},
    (detector, "detect_batch"): lambda args: {"calls": 1, "scenes": len(args[0])},
    (detector, "train_step"): lambda args: {"calls": 1},
    (data, "read_bin_cloud"): lambda args: {"calls": 1},
}
# the scalar IoUs that call ``_bev_overlap``; its calls are counted per caller of these
SCALAR_IOU = {"iou_3d", "iou_bev"}


def _scalar_caller() -> str:
    """The function that called ``_bev_overlap`` through a scalar IoU, past
    comprehension frames."""
    frame = sys._getframe(1)
    while frame.f_code.co_name in SCALAR_IOU | {"counted"} or frame.f_code.co_name[0] == "<":
        frame = frame.f_back
    return frame.f_code.co_name


def install(counts: Counter) -> None:
    """Wrap each counted function under every ``cadet3d`` module name it is
    looked up by, ``_bev_overlap`` and ``Box3D`` construction included."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "cadet3d" or name.startswith("cadet3d.")]

    def wrap(original, add):
        def counted(*args, **kwargs):
            add(args)
            return original(*args, **kwargs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, counted)

    for (mod, name), hook in COUNTED.items():
        wrap(getattr(mod, name), lambda args, name=name, hook=hook: counts.update(
            {f"{name}.{key}": n for key, n in hook(args).items()}))
    wrap(geometry._bev_overlap,
         lambda args: counts.update([f"_bev_overlap.{_scalar_caller()}"]))
    box_new = geometry.Box3D.__new__

    def counted_new(cls, *args):
        counts["Box3D"] += 1
        return box_new(cls, *args)

    geometry.Box3D.__new__ = counted_new


def work_ledger(root: Path) -> dict[str, dict[str, int]]:
    """The counts of each command of the tiny run in ``root``; every module
    attribute and ``Box3D.__new__`` is restored afterwards."""
    cfg = root / "cfg.txt"
    cfg.write_text(f"seed = 3\nn_scenes = 16\nn_val_scenes = 3\nfraction = 0.3\n"
                   f"pretrain_epochs = 4\nepochs = 2\ndataset_root = {root / 'data'}\n"
                   f"out_dir = {root / 'run'}\n")
    saved = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
             if name == "cadet3d" or name.startswith("cadet3d.")}
    box_new = geometry.Box3D.__dict__["__new__"]
    ledger, counts = {}, Counter()
    try:
        install(counts)
        for command in COMMANDS:
            extra = ["--params", str(root / "run" / "pretrain.params")] if command == "eval" else []
            counts.clear()
            assert main([command, "--config", str(cfg), *extra]) == 0
            ledger[command] = dict(sorted(counts.items()))
    finally:
        for name, attrs in saved.items():
            for key, value in attrs.items():
                setattr(sys.modules[name], key, value)
        geometry.Box3D.__new__ = box_new
    return ledger


def test_work_ledger(tmp_path):
    originals = [getattr(mod, name) for mod, name in COUNTED] + [geometry._bev_overlap]
    box_new = geometry.Box3D.__dict__["__new__"]
    assert work_ledger(tmp_path) == json.loads(LEDGER.read_text())
    assert [getattr(mod, name) for mod, name in COUNTED] + [geometry._bev_overlap] == originals
    assert geometry.Box3D.__dict__["__new__"] is box_new


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        LEDGER.write_text(json.dumps(work_ledger(Path(tmp)), indent=2) + "\n")
    print(f"wrote {LEDGER}")
