"""``tools/compare_requests.py``: the request list it runs and its exits on
bad arguments.  A full comparison runs 540 requests twice, so it is left to
the command line."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_requests",
                                                  ROOT / "tools" / "compare_requests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_covers_every_workload_seed_and_pass():
    tool = _load_tool()
    workloads = tool._workloads()
    ids = [request_id for request_id, _ in tool.plan(workloads)]
    assert len(ids) == len(set(ids)) == 540
    assert {i.split()[0] for i in ids} == set(workloads.WORKLOADS)


def test_bad_arguments_exit_nonzero(tmp_path, capsys):
    tool = _load_tool()
    assert tool.main([str(ROOT)]) == 2
    assert tool.main([str(ROOT), str(tmp_path)]) == 1
    assert "no program sources" in capsys.readouterr().err
