"""Every ``from tagrec... import name`` in the benchmark's sources names something that exists.

The benchmark (``perfbench/``) imports tagrec's modules and functions by
name, and its own self-tests are not part of this suite. A deletion in
``src/tagrec`` that would break them fails here first. The sources are
parsed, not imported, so nothing of the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tagrec_imports():
    """``(file name, line, module, name)`` of each name imported from tagrec by a benchmark source."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "tagrec":
                found.extend((path.name, node.lineno, node.module, alias.name) for alias in node.names)
    return found


def test_every_name_the_benchmark_imports_from_tagrec_resolves():
    imports = tagrec_imports()
    assert {module for _, _, module, _ in imports} >= {"tagrec", "tagrec.experiment"}
    missing = []
    for filename, line, module, name in imports:
        imported = importlib.import_module(module)
        is_submodule = hasattr(imported, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        if not (hasattr(imported, name) or is_submodule):
            missing.append(f"{filename}:{line}: from {module} import {name}")
    assert not missing, "\n".join(missing)
