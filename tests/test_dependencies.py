import ast
import sys
from pathlib import Path

import cadet3d

# the package declares numpy as its only dependency (pyproject.toml); anything
# else importable here, such as scipy, is not installed by `pip install cadet3d`
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cadet3d"}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(cadet3d.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert foreign == []
