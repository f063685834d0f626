"""The benchmark under ``perfbench/`` reaches into the package by name.

A rename or deletion in ``src/rscn`` that the benchmark still uses would
otherwise pass the unit suite and fail only when the benchmark runs.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def spans_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def run_py_attributes():
    """``(module, attribute)`` for every package attribute ``run.py`` reads.

    Aliases come from ``run.py``'s own imports (``from rscn import cli``,
    ``from rscn import model as rmodel``, ``import rscn``), so each read
    ``alias.attr`` is checked against the module the alias names.
    """
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "rscn"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rscn":
            modules.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    return sorted(reads)


def rscn_calls(script):
    """``(line, function, positional count, keyword names)`` for each call
    ``script`` makes into the package.

    A call is ``alias.attr(...)`` on an imported package module, or
    ``name(...)`` on a name imported from one. Calls that spread ``*args``
    or ``**kwargs`` cannot be counted, and none are made today.
    """
    tree = ast.parse((PERFBENCH / script).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name: importlib.import_module(a.name)
                             for a in node.names if a.name.split(".")[0] == "rscn"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rscn":
            module = importlib.import_module(node.module)
            for a in node.names:  # a submodule (``from rscn import cli``) or an attribute
                imported[a.asname or a.name] = (getattr(module, a.name, None)
                                                or importlib.import_module(f"{node.module}.{a.name}"))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = imported.get(func.value.id)
            fn = getattr(owner, func.attr) if inspect.ismodule(owner) else None
        else:
            fn = imported.get(func.id) if isinstance(func, ast.Name) else None
        if fn is None or inspect.ismodule(fn):
            continue
        keywords = [k.arg for k in node.keywords]
        if None not in keywords and not any(isinstance(a, ast.Starred) for a in node.args):
            calls.append((node.lineno, fn, len(node.args), keywords))
    return calls


def test_every_traced_name_resolves():
    spans = spans_module()
    assert spans.FUNCTIONS and spans.METHODS
    for _, module, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for _, module, cls_name, attr in spans.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None and attr in vars(cls), f"{module}.{cls_name}.{attr}"


def test_run_py_reads_cover_the_named_modules():
    names = {module.rsplit(".", 1)[-1] for module, _ in run_py_attributes()}
    assert {"cli", "evaluate", "online", "spectral", "tasks", "seeding", "model"} <= names


@pytest.mark.parametrize("module,attr", run_py_attributes())
def test_every_attribute_run_py_reads_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("script", ["run.py", "selftest.py"])
def test_every_call_into_the_package_binds(script):
    """A renamed or dropped parameter breaks the call, though the name resolves."""
    calls = rscn_calls(script)
    assert calls
    unbound = []
    for line, fn, n_args, keywords in calls:
        try:
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as err:
            unbound.append(f"{script}:{line} {fn.__qualname__}: {err}")
    assert not unbound


def test_selftest_passes():
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
