"""The benchmark's per-layer metric names still name public package functions.

``bench/tracing.py`` wraps every public function of the package and keys its
metrics by ``<module>.<function>``.  A name that no longer resolves, or that
a refactor made private, is never wrapped, and its metric reads zero without
any error.  The file is read as text, not imported or changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
NAME_TUPLES = ("FUNCTIONS_WITH_CALLS", "FUNCTIONS_SELF_ONLY", "CANDIDATES", "CANDIDATES_TESTED")


def tracing_constants() -> dict:
    constants = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.isupper():
                constants[target.id] = ast.literal_eval(node.value)
    return constants


CONSTANTS = tracing_constants()


@pytest.mark.parametrize("tuple_name", NAME_TUPLES)
def test_traced_names_are_public_package_functions(tuple_name):
    names = CONSTANTS[tuple_name]
    assert names
    for name in names:
        module_name, function_name = name.split(".")
        assert not function_name.startswith("_"), name
        module = importlib.import_module(f"bennequin.{module_name}")
        function = getattr(module, function_name, None)
        assert inspect.isfunction(function), name
        # the tracer keys a function by the module that defines it
        assert function.__module__ == module.__name__, name


def test_traced_modules_are_package_modules():
    for module_name in CONSTANTS["MODULES"]:
        importlib.import_module(f"bennequin.{module_name}")
