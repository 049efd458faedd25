"""The per-layer trace (``perfbench/run.py --trace 1``) wraps functions by
name. A renamed or removed function is silently left untraced there, and one
that the commands no longer call reads 0, so this checks every name the
tracer lists against the package and against a tiny run of the commands."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cadet3d.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the tracer still lists whose functions are gone from the package
RETIRED = {"voxels._plan_for", "voxels.BilinearPlan.__init__", "augment.weak_channels",
           "selftrain.pseudo_from_detection"}
# names whose functions stay in the package but that no command calls: the
# weak passes detect through ``detect_batch``, the teacher pass takes its
# levels from one ``levels`` call over its rows, and ``stratify`` (the
# levels of ``PseudoBox`` objects) and the all-pairs baseline only serve the
# acceptance criteria
OFF_PATH = {"detector.detect", "selftrain.stratify", "selftrain.pairing_iou_consistency"}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(name: str):
    """The object ``<module>.<attr>`` or ``<module>.<Class>.<method>`` names in
    ``cadet3d``, or None."""
    mod_name, _, attr = name.partition(".")
    obj = importlib.import_module(f"cadet3d.{mod_name}")
    for part in attr.split("."):
        if obj is None:
            break
        obj = getattr(obj, part, None)
    return obj


def test_every_target_resolves(tracer):
    names = [f"{mod}.{attr}" for mod, attrs in tracer.TARGETS.items() for attr in attrs]
    assert [n for n in names if n not in RETIRED and not callable(resolve(n))] == []


def test_every_hook_names_a_function(tracer):
    assert [n for n in tracer.HOOKS if not callable(resolve(n))] == []


def test_tiny_run_reaches_every_target(tracer, tmp_path):
    """``gen-data``, ``pretrain``, ``ssl-train`` and ``eval`` on a tiny
    dataset call every traced function but those of ``OFF_PATH``."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seed = 3\nn_scenes = 10\nn_val_scenes = 2\nfraction = 0.3\n"
                   f"pretrain_epochs = 2\nepochs = 1\ndataset_root = {tmp_path / 'data'}\n"
                   f"out_dir = {tmp_path / 'run'}\n")
    saved = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
             if name == "cadet3d" or name.startswith("cadet3d.")}
    traced = tracer.Tracer("reach")
    try:
        traced.install()
        for command in ("gen-data", "pretrain", "ssl-train", "eval"):
            extra = ["--params", str(tmp_path / "run" / "pretrain.params")] if command == "eval" else []
            assert main([command, "--config", str(cfg), *extra]) == 0
    finally:
        for name, attrs in saved.items():
            for key, value in attrs.items():
                setattr(sys.modules[name], key, value)
    spans = traced.summary()["spans"]
    assert sorted(name for name, span in spans.items() if not span["calls"]) == sorted(OFF_PATH)
