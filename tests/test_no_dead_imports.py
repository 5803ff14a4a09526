"""Every name a library module imports is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.  So is
``from __future__``, which imports no name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "osp_lab"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_library_modules_import_no_unused_name():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom os import path, sep\n\nprint(np.pi, sep)\n"
    assert _unused_imports(source) == ["line 2: math", "line 4: path"]
