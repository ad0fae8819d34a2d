import ast
import importlib
import inspect

import pytest

ENGINE_MODULES = ["series", "operators", "normalform", "rigidbody", "presets"]


def public_definitions(module):
    """Names a module defines at top level (def, class or assignment)
    that do not start with an underscore; imported names are left out."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


@pytest.mark.parametrize("name", ENGINE_MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"lie_kam.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == public_definitions(module)


# the algebra layer: the only modules that index a series' coefficient box
BOX_MODULES = {"series", "operators"}


@pytest.mark.parametrize("name", [m for m in ENGINE_MODULES
                                  if m not in BOX_MODULES])
def test_only_the_algebra_layer_subscripts_coefficient_boxes(name):
    module = importlib.import_module(f"lie_kam.{name}")
    lines = [node.lineno
             for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "coeffs"]
    assert lines == []
