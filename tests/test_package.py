import ast
import subprocess
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


def test_import_loads_no_dataclasses_inspect_or_process_machinery():
    """Every ``sr`` start imports ``surfreal.cli``.  Its records are NamedTuples and
    slotted classes, so it loads neither ``dataclasses`` nor the ``inspect`` that it
    pulls in, and ``multiprocessing`` loads only when realize workers start."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import surfreal.cli; "
            "print(sorted({'dataclasses', 'inspect', 'multiprocessing', 'concurrent.futures'}"
            " & sys.modules.keys()))")
    src = str(Path(surfreal.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
