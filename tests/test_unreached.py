"""``tools/unreached.py``: the traced reachability of library functions.  A
full listing runs every golden case and a bench pass, so it is left to the
command line."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "tools" / "unreached.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_golden_flow_reaches_integrate_but_not_the_primitive(tmp_path):
    tool = _load_tool()
    names = tool.unreached(tool.golden_runs(tmp_path, [("curved_metric", "integrate_rk4")]))
    assert "homotopy.dprime_primitive" in names
    assert "dynamics.integrate" not in names
    assert set(names) <= {name for name, _ in tool.functions()}


def test_functions_are_named_by_module_and_qualname():
    names = [name for name, _ in _load_tool().functions()]
    assert len(names) == len(set(names))
    assert "dynamics.Trajectory.to_csv" in names
    assert "poisson._jacobi_terms.<locals>.oriented" in names
