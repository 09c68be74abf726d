"""``tools/compare_requests.py``: the request list it runs and its exits on
bad arguments.  A full comparison runs 540 requests twice, so it is left to
the command line."""

import collections
import importlib.util
import json
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


def test_trajectory_drift_is_reported_per_column_kind():
    tool = _load_tool()
    old = "t,x1,y1,drift\r\n0.0,1.0,-2.0,0.0\r\n0.5,1.5,4.0,1e-16\r\n"
    new = "t,x1,y1,drift\r\n0.0,1.0,-2.0,0.0\r\n0.5,1.5000003,3.9999992,-2e-16\r\n"
    assert tool._drift(old, new) == ("max |Δ| 8e-07 (relative 2e-07) in the state, "
                                     "3e-16 in the drift")
    assert tool._drift(old, old) == "max |Δ| 0 (relative 0) in the state, 0 in the drift"
    # Not a pair of trajectories of one shape: the tool shows the first
    # differing line instead.
    assert tool._drift(old, old + "1.0,2.0,3.0,0.0\r\n") is None
    assert tool._drift(old, old.replace("y1", "p1")) is None
    assert tool._drift("", old) is None and tool._drift("a,b\r\nx,y\r\n", old) is None


def test_json_objects_are_compared_leaf_by_leaf():
    tool = _load_tool()
    old = {"check": "suite", "residual_max": 1e-14,
           "items": [{"label": f"k={k}", "residual_max": 0.0} for k in range(9)]}
    new = {**old, "residual_max": 2e-16,
           "items": [dict(item) for item in old["items"]]}
    new["items"][8]["residual_max"] = 2e-16
    got = tool._json_difference(json.dumps(old, indent=2), json.dumps(new, indent=2))
    assert got == "residual_max: 1e-14 vs 2e-16, items[8].residual_max: 0.0 vs 2e-16"
    for item in new["items"][:6]:
        item["label"] += "'"
    new["extra"] = [1, 0]
    got = tool._json_difference(json.dumps(old), json.dumps(new))
    assert got == ('residual_max: 1e-14 vs 2e-16, items[0].label: "k=0" vs "k=0\'", '
                   'items[1].label: "k=1" vs "k=1\'", items[2].label: "k=2" vs "k=2\'", '
                   'items[3].label: "k=3" vs "k=3\'", +5 more')
    assert tool._json_difference('{"a": []}', '{"a": {}}') == "a: [] vs {}"
    assert tool._json_difference('{"a": 0}', '{"a": 0.0}') == "a: 0 vs 0.0"
    assert tool._json_difference('{"a": 1}', '{"b": 1}') == "a: 1 vs (absent), b: (absent) vs 1"
    # Not two JSON objects, or the same leaves: the tool shows the first
    # differing line instead.
    assert tool._json_difference('{"a": 1}', '{"a": 1}\n') is None
    assert tool._json_difference("[1]", "[2]") is None
    assert tool._json_difference("t,x1\r\n0,1\r\n", '{"a": 1}') is None


def test_differing_requests_are_counted_per_workload_and_command():
    tool = _load_tool()
    counts = collections.Counter({("certify_sampled", "check spray"): 9,
                                  ("certify_exact", "check spray"): 3,
                                  ("certify_sampled", "check semispray"): 9,
                                  ("flow", "integrate"): 0})
    assert tool.tally(counts) == ["certify_exact check spray: 3",
                                  "certify_sampled check semispray: 9",
                                  "certify_sampled check spray: 9"]
    assert tool.tally(collections.Counter()) == []
