"""The kernels of a first-order round call ufuncs and ndarray methods
directly, not numpy's Python-level wrappers.

On the 2- to 64-vectors of a round, np.all, np.any, np.clip, np.sort,
np.cumsum, np.nonzero, np.zeros_like, np.linalg.norm, np.column_stack and
np.outer cost more in their wrappers than in the arithmetic.  Each kernel
uses a bare form with the same bits instead (``test_geometry`` and
``test_payoffs`` check the bits); this scan keeps the wrappers from coming
back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "osp_lab"

WRAPPERS = {
    "np.all",
    "np.any",
    "np.clip",
    "np.sort",
    "np.cumsum",
    "np.nonzero",
    "np.zeros_like",
    "np.linalg.norm",
    "np.column_stack",
    "np.outer",
}

KERNELS = {
    "geometry.py": ["project_simplex", "Box.project", "Box.contains", "Simplex.project", "Simplex.contains"],
    "saddle_solver.py": [
        "_operator",
        "_norm",
        "_estimate_lipschitz",
        "_mirror_prox",
        "_newton_direction",
        "_newton_gap",
        "_entropic_newton_path",
    ],
    "payoffs.py": ["SumPayoff.grad_x", "SumPayoff.grad_y", "SeparableQuadratic.minimize_over"],
}


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _functions(tree) -> dict:
    """Module functions and class methods by qualified name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update({f"{node.name}.{item.name}": item for item in node.body if isinstance(item, ast.FunctionDef)})
    return out


def _wrapper_uses(source: str, names: list[str]) -> dict:
    """For each named kernel, every wrapper it names (called or not, nested
    functions included); a kernel missing from the source maps to None."""
    functions = _functions(ast.parse(source))
    found = {}
    for name in names:
        func = functions.get(name)
        if func is None:
            found[name] = None
            continue
        uses = sorted(
            (n.lineno, _dotted(n)) for n in ast.walk(func) if isinstance(n, ast.Attribute) and _dotted(n) in WRAPPERS
        )
        if uses:
            found[name] = [f"line {line}: {wrapper}" for line, wrapper in uses]
    return found


def _numpy_aliases(source: str) -> set[str]:
    """Every name under which the module imports numpy or a name from it."""
    aliases = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            aliases |= {a.asname or a.name for a in node.names}
    return aliases


def test_round_kernels_call_no_numpy_wrapper():
    for module, names in KERNELS.items():
        source = (SRC / module).read_text()
        # the scan matches np.<name>; another alias would hide a wrapper
        assert _numpy_aliases(source) == {"np"}, module
        assert _wrapper_uses(source, names) == {}, module


def test_the_scan_sees_a_wrapper():
    source = (
        "import numpy as np\n\n"
        "def k(z):\n    return np.clip(z, 0, 1)\n\n"
        "class C:\n"
        "    def m(self, v):\n"
        "        def dist(w):\n            return np.linalg.norm(w)\n"
        "        f = np.zeros_like\n"
        "        return np.sqrt(v.dot(v)), np.logical_and.reduce(v)\n\n"
        "    def ok(self, v):\n        return np.minimum(np.maximum(v, 0), 1)\n"
    )
    assert _wrapper_uses(source, ["k", "C.m", "C.ok", "gone"]) == {
        "k": ["line 4: np.clip"],
        "C.m": ["line 9: np.linalg.norm", "line 10: np.zeros_like"],
        "gone": None,
    }
    assert _numpy_aliases("import numpy\nfrom numpy import clip as c\nimport numpy as np\n") == {"numpy", "c", "np"}
