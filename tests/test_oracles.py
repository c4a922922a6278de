"""The oracles in tests/conftest.py stay independent of the code they check."""

import ast
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")
# What conftest.py may take from the package: these names from its top
# level (`Cover` for type hints only) and the seeded streams of `rng`.
ALLOWED_NAMES = {"DomainError", "Graph", "build_graph", "Cover"}
ALLOWED_MODULES = {"corrcolor.rng"}


def package_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) for every import of the package, name None for `import`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "corrcolor"
            ]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "corrcolor":
                found += [(module, alias.name) for alias in node.names]
    return found


def forbidden(imports: list[tuple[str, str | None]]) -> list[tuple[str, str | None]]:
    return [
        (module, name)
        for module, name in imports
        if module not in ALLOWED_MODULES
        and not (module == "corrcolor" and name in ALLOWED_NAMES)
    ]


def test_conftest_imports_only_the_allowed_package_names():
    imports = package_imports(ast.parse(CONFTEST.read_text(encoding="utf-8")))
    assert ("corrcolor", "build_graph") in imports
    assert forbidden(imports) == []


def test_the_import_check_catches_each_way_in():
    source = "\n".join(
        [
            "from corrcolor.covers import validate_cover",
            "from corrcolor import nibble, random_cover",
            "import corrcolor.weights",
            "import corrcolor",
            "def f():",
            "    from corrcolor._kernels import segment_sum",
            "    from corrcolor.solver import _search",
            "    from corrcolor.coverjson import cover_to_json_dict",
            "from corrcolor import Graph",
            "from corrcolor.rng import derive_rng",
            "import itertools",
        ]
    )
    assert forbidden(package_imports(ast.parse(source))) == [
        ("corrcolor.covers", "validate_cover"),
        ("corrcolor", "nibble"),
        ("corrcolor", "random_cover"),
        ("corrcolor.weights", None),
        ("corrcolor", None),
        ("corrcolor._kernels", "segment_sum"),
        ("corrcolor.solver", "_search"),
        ("corrcolor.coverjson", "cover_to_json_dict"),
    ]
