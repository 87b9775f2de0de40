"""The package imports nothing but the standard library and itself.

numpy or scipy may be installed where the suite runs, so an accidental
import of either would pass every other test. Every import statement of
every ``src/tagrec`` file is read from its syntax tree, those inside
functions included, so nothing is imported or run.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tagrec"


def imported_modules():
    """``(file name, line, top-level module)`` of each absolute import in the package's sources."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.extend((path.name, node.lineno, name.split(".")[0]) for name in names)
    return found


def test_every_import_is_the_standard_library_or_the_package():
    imports = imported_modules()
    assert ("experiment.py", "multiprocessing") in {(name, module) for name, _, module in imports}  # in a function
    outside = [f"{name}:{line}: {module}" for name, line, module in imports
               if module not in sys.stdlib_module_names and module != "tagrec"]
    assert not outside, "\n".join(outside)
