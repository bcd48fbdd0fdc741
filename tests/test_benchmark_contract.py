"""The names the benchmark calls in ``fsml`` stay alive.

``perfbench/`` calls into ``fsml`` through module attributes
(``meta.meta_train``), and its tracer wraps the functions named by the keys
of ``tracer.HOOKS``.  A change outside the benchmark may not edit it, so this
reads its sources with ``ast`` and checks that every such name still
resolves, and that every call the benchmark makes still binds to the
callee's signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SOURCES = ("workloads.py", "run.py", "selftest.py")


def _references(source):
    """Each ``<fsml module>.<name>`` attribute node of ``source``, with the
    call it is the callee of (or ``None``), as (module, name, call) triples."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "fsml"
               for alias in node.names}
    callees = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [(modules[node.value.id], node.attr, callees.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def _hook_names():
    """The string keys of the ``HOOKS`` dict literal in ``tracer.py``."""
    for node in ast.walk(ast.parse((PERFBENCH / "tracer.py").read_text())):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"]):
            return [key.value for key in node.value.keys]
    raise AssertionError("tracer.py defines no HOOKS dict")


def _resolve(dotted):
    module, *path = dotted.split(".")
    target = importlib.import_module(f"fsml.{module}")
    for name in path:
        target = getattr(target, name)
    return target


@pytest.mark.parametrize("source", SOURCES)
def test_every_fsml_name_the_benchmark_references_resolves(source):
    references = _references((PERFBENCH / source).read_text())
    assert references or source == "run.py"
    for module, name, _ in references:
        assert hasattr(importlib.import_module(f"fsml.{module}"), name), f"{source}: {module}.{name}"


@pytest.mark.parametrize("source", SOURCES)
def test_every_fsml_call_the_benchmark_makes_binds(source):
    """Each call's positional count and keyword names bind to the callee's
    signature; a call that unpacks ``*args`` or ``**kwargs`` is skipped."""
    for module, name, call in _references((PERFBENCH / source).read_text()):
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        callee = _resolve(f"{module}.{name}")
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as err:
            pytest.fail(f"{source}:{call.lineno}: {module}.{name}: {err}")


def test_every_tracer_hook_names_a_function_or_method():
    names = _hook_names()
    assert names
    for dotted in names:
        assert inspect.isfunction(_resolve(dotted)), dotted
