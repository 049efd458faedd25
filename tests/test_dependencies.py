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


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name bound, line) per name a module's imports bind, ``__future__`` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.partition(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return bound


def test_every_import_is_used():
    # no linter is a dependency; an import left behind by a deletion fails here
    unused = []
    for path in sorted(Path(cadet3d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
                   if name not in used]
    assert unused == []
