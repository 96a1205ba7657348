"""Every module of src/ndga references each name it imports at top level,
and every private function, class, method and cached property of src/ndga
is referenced in it."""

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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_names(sources):
    """Private module-level functions and classes, as module.name, and
    private methods and cached properties of classes, as
    module.Class.name, that no code outside their own definition refers to,
    over {module: source}."""
    defined, used = [], set()

    def visit(node, prefix, own):
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        if name and _private(name):
            defined.append((name, prefix + name))
        own = own | {name}
        if isinstance(node, ast.ClassDef):
            for part in node.bases + node.keywords + node.decorator_list:
                visit(part, prefix, own)
            for child in node.body:
                visit(child, f"{prefix}{name}.", own)
            return
        for sub in ast.walk(node):
            ref = getattr(sub, "id", None) or getattr(sub, "attr", None)
            if isinstance(sub, (ast.Name, ast.Attribute)) and ref not in own:
                used.add(ref)

    for module, source in sources.items():
        for node in ast.parse(source).body:
            visit(node, f"{module}.", set())
    return sorted(label for name, label in defined if name not in used)


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


def test_unreferenced_private_method_is_found():
    # a method that only calls itself, or that only its own class names,
    # is dead; one read as an attribute anywhere is not
    sources = {"a": "import functools\n\nclass C:\n"
                    "    def _walk(self, n):\n        return self._walk(n - 1) + C._read\n\n"
                    "    @functools.cached_property\n    def _read(self):\n        return 1\n\n"
                    "    @functools.cached_property\n    def _cache(self):\n        return 2\n\n"
                    "    def _helper(self):\n        return 3\n\n"
                    "    def __len__(self):\n        return 0\n",
               "b": "import a\nx = a.C()._helper()\n"}
    assert unreferenced_private_names(sources) == ["a.C._cache", "a.C._walk"]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "tests", "perfbench")


def defaults_no_caller_sets(definitions, callers):
    """Parameters with a default, as module.function.parameter, of the
    functions and methods in {module: source} `definitions` that no call in
    the sources `callers` passes, by position or by keyword.  Calls are
    matched by the called name, and a call of a class counts for its
    __init__; a call that unpacks * or ** arguments passes everything."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, source in definitions.items():
        tree = ast.parse(source)
        owners = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = owners.get(id(fn))
            names = [fn.name] + ([owner] if fn.name == "__init__" else [])
            bound = owner is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first_default]
            params += [(arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if default is not None]
            sites = [call for name in names for call in calls.get(name, [])]
            for param, position in params:
                if not any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (None, param) for k in call.keywords)
                    or (position is not None and len(call.args) > position)
                    for call in sites
                ):
                    label = ".".join(filter(None, (module, owner, fn.name, param)))
                    unset.append(label)
    return sorted(unset)


def test_every_default_parameter_is_set_by_a_caller():
    definitions, callers = {}, []
    for folder in CALLER_DIRS:
        for directory, _, files in os.walk(os.path.join(ROOT, folder)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(directory, name), encoding="utf-8") as handle:
                        callers.append(handle.read())
                    if directory == SRC:
                        definitions[name[:-3]] = callers[-1]
    assert defaults_no_caller_sets(definitions, callers) == []


def test_default_no_caller_sets_is_found():
    definitions = {"a": "def f(x, y=1, *, z=2):\n    return x\n\n"
                        "class C:\n    def __init__(self, k=0):\n        pass\n\n"
                        "    def m(self, v=None, w=3):\n        pass\n"}
    callers = [definitions["a"], "import a\na.f(1, 2)\na.C(5)\na.C().m(w=4)\n"]
    assert defaults_no_caller_sets(definitions, callers) == ["a.C.m.v", "a.f.z"]


MONOMIAL_NAMES = {"Mono", "VAR", "SIN", "COS"}


def monomial_readers(sources):
    """module:line of each place in {module: source} that reads the scalar
    ring's private monomial format: a private name or the monomial names of
    scalar (Mono, VAR, SIN, COS), or the items, keys, values or a subscript
    of a polynomial's .terms dict."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalar"):
                bad = any(a.name.startswith("_") or a.name in MONOMIAL_NAMES for a in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "scalar":
                bad = node.attr.startswith("_") or node.attr in MONOMIAL_NAMES
            elif isinstance(node, ast.Name):
                bad = node.id == "Mono"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                bad = (node.func.attr in ("items", "keys", "values")
                       and getattr(node.func.value, "attr", None) == "terms")
            elif isinstance(node, ast.Subscript):
                bad = getattr(node.value, "attr", None) == "terms"
            else:
                bad = False
            if bad:
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(set(found))]


def test_only_scalar_reads_monomials():
    sources = {}
    for module in MODULES:
        if module != "scalar.py":
            with open(os.path.join(SRC, module), encoding="utf-8") as handle:
                sources[module[:-3]] = handle.read()
    assert monomial_readers(sources) == []


def test_monomial_reader_is_found():
    source = ("from . import scalar\nfrom .scalar import Mono, TrigPoly\n"
              "def f(p):\n    scalar._charge(1)\n    a = scalar.SIN\n"
              "    for m, c in p.terms.items():\n        pass\n"
              "    return p.terms[()], len(p.terms), p.terms and TrigPoly.one(), p.keys()\n")
    assert monomial_readers({"a": source}) == ["a:2", "a:4", "a:5", "a:6", "a:8"]


# every module but scalar, whose sampled zero test evaluates in floats by
# design
EXACT_MODULES = [module for module in MODULES if module != "scalar.py"]


def divisions_and_floats(sources):
    """module:line of each true division (a / b or a /= b) and each use of
    the name float in {module: source}."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            divides = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            if divides or isinstance(node, ast.Name) and node.id == "float":
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(set(found))]


def test_exact_modules_never_divide():
    # rationals divide only through Fraction(a, b) and exact integer //
    sources = {}
    for module in EXACT_MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as handle:
            sources[module] = handle.read()
    assert divisions_and_floats(sources) == []


def test_division_and_float_are_found():
    source = ("from fractions import Fraction\n"
              "def f(x, y):\n    a = Fraction(x, y) + x // y\n    b = 1 / x\n"
              "    y /= 2\n    return float(a), isinstance(b, float), '1/2'\n")
    assert divisions_and_floats({"a.py": source}) == ["a.py:4", "a.py:5", "a.py:6"]


UNICODE_DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def unicode_digit_tests(sources):
    """module:line of each place in {module: source} that takes a digit
    beyond ASCII 0-9: a str.isdigit, isdecimal or isnumeric test, which
    passes '²' (refused by int()) and '١' (read by int() as 1), or a \\d in
    a string, which matches both."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr in UNICODE_DIGIT_TESTS
                    or isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "\\d" in node.value):
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(set(found))]


def test_digits_are_ascii():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as handle:
            sources[module[:-3]] = handle.read()
    assert unicode_digit_tests(sources) == []


def test_unicode_digit_test_is_found():
    source = ("import re\n"
              "def f(s):\n    return s.isdigit() or s[0].isdecimal()\n"
              "PATTERN = re.compile(r'^x(\\d+)$')\n"
              "TEST = str.isnumeric\n"
              "ASCII = re.compile(r'[0-9]+'), 'x1'.isalpha(), '\\\\D'\n")
    assert unicode_digit_tests({"a": source}) == ["a:3", "a:4", "a:5"]
