"""Golden outputs: a tiny ``gen-data``, ``pretrain``, ``ssl-train`` and
``eval`` through ``cli.main``, with the SHA-256 of every output file that the
output contract keeps byte-identical compared against ``golden_outputs.json``.
``ssl-train`` runs two epochs under ``threshold_period = 2``, so the second
keeps the first's thresholds and starts from a carried EMA teacher.

Float results can move in their last bits across numpy builds, so the JSON
records the Python and numpy versions it was written under, and the test
skips under another numpy. A change that moves a digest on purpose rewrites
the JSON with ``python tests/test_golden.py`` and declares the change.
"""
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from cadet3d.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

CONFIG = """\
seed = 7
n_scenes = 16
n_val_scenes = 4
fraction = 0.34
pretrain_epochs = 10
epochs = 2
threshold_period = 2
"""

# the outputs of pretrain, ssl-train and eval that the output contract keeps
FILES = ("pretrain.params", "pretrain_metrics.csv", "student.params", "teacher.params",
         "metrics.csv", "results.csv", "results_by_class.csv")


def run_digests(tmp: Path) -> dict[str, str]:
    """The SHA-256 of each of ``FILES`` after the four commands on ``CONFIG``."""
    cfg = tmp / "cfg.txt"
    cfg.write_text(CONFIG + f"dataset_root = {tmp / 'data'}\nout_dir = {tmp / 'run'}\n")
    params = str(tmp / "run" / "pretrain.params")
    for args in (["gen-data"], ["pretrain"], ["ssl-train"], ["eval", "--params", params]):
        assert main([*args, "--config", str(cfg)]) == 0
    return {name: hashlib.sha256((tmp / "run" / name).read_bytes()).hexdigest() for name in FILES}


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {golden['numpy']}, running {np.__version__}")
    assert run_digests(tmp_path) == golden["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                                  "sha256": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
