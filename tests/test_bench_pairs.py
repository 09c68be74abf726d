"""``tools/bench_pairs.py``: its summary of result lines and its exit on a
directory that is not a checkout.  The bench itself runs for minutes, so it
is left to the command line."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(pass_s, rss, failed=0):
    return json.dumps({"correct": True, "attempted": 30, "failed": failed,
                       "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_summary_gives_medians_quartiles_and_the_pairs_lower():
    tool = _load_tool()
    pairs = [(_line(0.050, 19.0), _line(0.045, 19.5)),
             (_line(0.060, 19.0), _line(0.048, 18.5, failed=1)),
             (_line(0.055, 19.0), _line(0.056, 19.5)),
             (_line(0.052, 19.0), _line(0.044, 19.5))]
    header, pass_s, rss, failed_parent, failed_change = tool.summary(pairs)
    assert header.split() == ["metric", "parent", "quartiles", "change", "median", "pairs"]
    # Parent 0.050/0.052/0.055/0.060: median 0.0535, inclusive quartiles
    # 0.0515 and 0.05625; the change's median is 0.0465, lower in 3 of 4.
    assert pass_s.split() == ["pass_s", "0.0535", "[", "0.0515,", "0.05625]", "0.0465",
                              "-13.1%", "lower", "in", "3", "of", "4"]
    assert rss.split()[-4:] == ["in", "1", "of", "4"] and "+2.6%" in rss
    assert failed_parent == "failed parent: 0 of 120"
    assert failed_change == "failed change: 1 of 120"


def test_one_pair_has_its_value_for_quartiles():
    tool = _load_tool()
    _, pass_s, _, _, _ = tool.summary([(_line(0.05, 19.0), _line(0.04, 19.0))])
    assert pass_s.split()[:6] == ["pass_s", "0.05", "[", "0.05,", "0.05]", "0.04"]
    assert pass_s.endswith("lower in 1 of 1")


def test_a_directory_that_is_not_a_checkout_exits_2(tmp_path, capsys):
    tool = _load_tool()
    assert tool.main([str(tmp_path), str(ROOT), "--workload", "flow", "--pairs", "1",
                      "--seconds", "1"]) == 2
    assert "not a checkout" in capsys.readouterr().err
