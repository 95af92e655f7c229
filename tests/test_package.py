import ast
import sys
from pathlib import Path

import surfreal


def test_public_names_resolve_once():
    missing = [name for name in surfreal.__all__ if not hasattr(surfreal, name)]
    assert missing == []
    assert len(set(surfreal.__all__)) == len(surfreal.__all__)


def test_runtime_imports_are_stdlib():
    """The package imports nothing at runtime beyond the standard library and itself."""
    sources = sorted(Path(surfreal.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
