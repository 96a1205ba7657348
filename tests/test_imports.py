"""Every module of src/ndga references each name it imports at top level,
and every private function and class of src/ndga is referenced in it."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ndga")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: List = os.sep\n") == ["Dict"]


def unreferenced_private_names(sources):
    """Private module-level functions and classes, as module.name, that no
    code outside their own definition refers to, over {module: source}."""
    defined, used = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined[own] = module
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)


def test_every_private_function_and_class_is_used():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as handle:
            sources[module[:-3]] = handle.read()
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_found():
    sources = {"a": "def _loop(n):\n    return _loop(n)\n\nclass _Used:\n    pass\n",
               "b": "import a\nx = a._Used()\n"}
    assert unreferenced_private_names(sources) == ["a._loop"]
