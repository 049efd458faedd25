"""The per-layer trace (``perfbench/run.py --trace 1``) wraps functions by
name. A renamed or removed function is silently left untraced there, so this
checks every name the tracer lists against the package."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the tracer still lists whose functions are gone from the package
RETIRED = {"voxels._plan_for", "voxels.BilinearPlan.__init__", "augment.weak_channels"}


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
