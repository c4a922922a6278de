"""Every segmented reduction in the package runs in `_kernels.py`, and every
segmented sum in `_kernels.segment_sum`, so all masses share one rounding."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "corrcolor"
KERNELS = "_kernels.py"


def reduceat_uses(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function, ufunc) for every `.reduceat` the source reads.

    Any attribute read counts, called or not, so an alias is found too.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "reduceat":
            found.append((function, ast.unparse(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def misplaced(name: str, source: str) -> list[tuple[str, str | None, str]]:
    """The uses outside `_kernels.py`, and the sums outside `segment_sum`."""
    return [
        (name, function, ufunc)
        for function, ufunc in reduceat_uses(source)
        if name != KERNELS
        or (ufunc.split(".")[-1] == "add" and function != "segment_sum")
    ]


def test_every_reduceat_is_in_the_kernels():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += misplaced(path.name, path.read_text(encoding="utf-8"))
    assert found == []
    kernels = reduceat_uses((PACKAGE / KERNELS).read_text(encoding="utf-8"))
    assert ("segment_sum", "np.add") in kernels


def test_the_reduceat_check_catches_each_way_in():
    elsewhere = "\n".join(
        [
            "import numpy as np",
            "total = np.add.reduceat(x, idx)",
            "def live_edge_mass(values, ptr):",
            "    return numpy.maximum.reduceat(values, ptr[:-1])",
            "class Cache:",
            "    reduce = np.add.reduceat",
            "np.add.reduce(x)",
        ]
    )
    assert misplaced("weights.py", elsewhere) == [
        ("weights.py", None, "np.add"),
        ("weights.py", "live_edge_mass", "numpy.maximum"),
        ("weights.py", None, "np.add"),
    ]
    in_kernels = "\n".join(
        [
            "def segment_sum(v, p):",
            "    return np.add.reduceat(v, p)",
            "def segment_prod(v, p):",
            "    return np.multiply.reduceat(v, p)",
            "def live_sum(v, p):",
            "    return np.add.reduceat(v, p)",
        ]
    )
    assert misplaced(KERNELS, in_kernels) == [(KERNELS, "live_sum", "np.add")]
