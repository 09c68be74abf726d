"""``tools/bench_pairs.py``: its summary of result lines and its exit on a
directory that is not a checkout.  The bench itself runs for minutes, so it
is left to the command line."""

import importlib.util
import json
import pathlib

import pytest

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


def _stdout(homotopy, jacobi, pass_s):
    """A bench run's stdout: the per-command table, the metric table and
    the result line, as ``bench/run.py`` prints them."""
    rows = [("stress check jacobi", jacobi), ("stress check homotopy", homotopy),
            ("stress check", 0.5)]
    return "\n".join(
        ["workload certify_sampled  seed 1  trace 0  passes 9 untraced, 0 traced",
         f"{'command':40} {'median_s':>10} {'wall_s':>10} {'n':>3}  answers"]
        + [f"{label:40} {median:10.4f} {median + 0.001:10.4f} {9:3d}  ok" for label, median in rows]
        + [f"{'metric':50} {'value':>12} {'unit':>6} {'n':>4}  note",
           f"{'worst_request_s':50} {homotopy:12.6g} {'s':>6} {9:4d}  stress check homotopy",
           _line(pass_s, 19.0)])


def test_a_request_median_is_read_from_the_per_command_table():
    tool = _load_tool()
    out = _stdout(0.0221, 0.0043, 0.08)
    assert tool.command_median(out, "stress check homotopy") == 0.0221
    assert tool.command_median(out, "stress check jacobi") == 0.0043
    # A label that is a prefix of another is its own row, not the longer one.
    assert tool.command_median(out, "stress check") == 0.5
    with pytest.raises(KeyError):
        tool.command_median(out, "stress check spray")


def test_summary_compares_each_named_request():
    tool = _load_tool()
    pairs = [(_stdout(0.0220, 0.004, 0.080), _stdout(0.0150, 0.004, 0.072)),
             (_stdout(0.0230, 0.004, 0.081), _stdout(0.0160, 0.005, 0.073)),
             (_stdout(0.0210, 0.004, 0.079), _stdout(0.0220, 0.004, 0.080))]
    lines = tool.summary(pairs, ["stress check homotopy", "stress check jacobi"])
    assert len(lines) == 1 + 2 + 2 + 2
    homotopy, jacobi = lines[3], lines[4]
    # Parent 0.021/0.022/0.023: median 0.022; the change's 0.015/0.016/0.022
    # has median 0.016, lower in 2 of 3.
    assert homotopy.split() == ["stress", "check", "homotopy", "0.022", "[", "0.0215,", "0.0225]",
                                "0.016", "-27.3%", "lower", "in", "2", "of", "3"]
    assert jacobi.endswith("+0.0%  lower in 0 of 3")
    assert lines[1].split()[:2] == ["pass_s", "0.08"]
