"""Every optional parameter of a public function has a caller.

A keyword argument that no call in the repository passes is a setting
nobody uses, and one more configuration the tests would have to cover.
This walks the AST of every file under ``src/``, ``bench/`` and
``tests/`` and checks that each parameter with a default, on each
function that ``coherelab/__init__.py`` exports, is passed at some call
site: by keyword, by position, or through ``*args``/``**kwargs``.
"""

import ast
import inspect
import pathlib

import coherelab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "coherelab" / "__init__.py"


def _exported_functions():
    tree = ast.parse(PACKAGE_INIT.read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    return {name: getattr(coherelab, name) for name in names
            if inspect.isfunction(getattr(coherelab, name))}


def _optional_parameters(func):
    """``(positional names, optional names)`` of ``func``'s signature."""
    params = inspect.signature(func).parameters.values()
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    optional = {p.name for p in params if p.default is not p.empty}
    return positional, optional


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passed(call, positional):
    """Names of the parameters that ``call`` passes."""
    if any(kw.arg is None for kw in call.keywords):
        return None  # **kwargs: every parameter may be passed
    passed = {kw.arg for kw in call.keywords}
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return passed | set(positional)
    return passed | set(positional[: len(call.args)])


def test_every_optional_parameter_is_passed_somewhere():
    signatures = {name: _optional_parameters(func) for name, func in _exported_functions().items()}
    unset = {name: optional for name, (_, optional) in signatures.items()}
    for directory in ("src", "bench", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = _callee(node) if isinstance(node, ast.Call) else None
                if name not in signatures:
                    continue
                passed = _passed(node, signatures[name][0])
                unset[name] = set() if passed is None else unset[name] - passed
    never = sorted(f"{name}({param})" for name, params in unset.items() for param in params)
    assert never == []
