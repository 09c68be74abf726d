"""One verdict loop, read off the source of ``src/semispray``: ``expr.decide``
is the only function that draws modular points, and the float sampler
``sample_zero`` serves ``decide`` and the quadrature branch of
``homotopy._zero_test`` only, so no check grows a loop of its own."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "semispray"


def references(name: str) -> list:
    """``(module.qualname, node)`` of every load of ``name``, bare or as an
    attribute, in the functions of the package; a nested function or a
    lambda counts as its enclosing function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            loaded = (child.id if isinstance(child, ast.Name)
                      else child.attr if isinstance(child, ast.Attribute) else None)
            if loaded == name and isinstance(child.ctx, ast.Load):
                found.append((".".join(scope), node))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), [path.stem])
    return found


def test_only_decide_draws_modular_points():
    assert [where for where, _ in references("modular_jets")] == ["expr.decide"]
    assert [where for where, _ in references("Modular")] == ["expr.modular_jets"]


def test_sample_zero_serves_decide_and_the_quadrature_branch():
    where = {where: call for where, call in references("sample_zero")}
    assert len(references("sample_zero")) == 2
    assert set(where) == {"expr.decide", "homotopy._zero_test"}
    # The quadrature branch samples ``fiber_value(total)``; the symbolic one
    # goes through ``is_zero``, that is through ``decide``.
    value = where["homotopy._zero_test"].args[0]
    assert isinstance(value, ast.Call) and value.func.id == "fiber_value"
