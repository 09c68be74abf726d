"""Alternate bench runs between two checkouts and summarize them by pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]
                                [--command LABEL ...]

``PARENT`` and ``CHANGE`` are checkouts: directories that hold
``src/semispray`` and ``bench/run.py``.  Both trees are byte-compiled first
(``python -m compileall -q``), so neither side's first run writes bytecode
and neither runs from stale bytecode.  Pair ``k`` (from 1) runs each
checkout's own ``bench/run.py --workload W --seed K+k-1 --seconds S
--trace 0`` at the same seed, the parent first in odd pairs and the change
first in even ones.  Prints one line per pair as it ends, then, for each
end-to-end metric, the parent's and the change's medians, the parent's
quartiles, the change in the medians and "lower in k of N" (pairs in which
the change read lower), and the failed requests of each side.  Each
``--command LABEL`` (repeatable) adds one request of the bench's per-command
table, such as ``--command "stress check homotopy"``: its ``median_s`` in
each run, parent -> change on every pair line and summarized like a metric.
Exits 1 when a run fails, 2 on a directory that is not a checkout or a
label that is not in the table.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple


def run(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The whole stdout of one bench run of ``checkout``; its last line is
    the result, one JSON object."""
    out = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def command_median(stdout: str, label: str) -> float:
    """The ``median_s`` of request ``label`` in the per-command table of a
    bench run's stdout (the label, padded, then ``median_s``)."""
    for line in stdout.splitlines():
        found = re.match(re.escape(label) + r" +(\d+\.\d+) ", line)
        if found:
            return float(found.group(1))
    raise KeyError(label)


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _row(name: str, old: Sequence[float], new: Sequence[float]) -> str:
    before, after = statistics.median(old), statistics.median(new)
    q1, q3 = _quartiles(old)
    lower = sum(b < a for a, b in zip(old, new))
    return (f"{name:16} {before:10.4g} [{q1:9.4g}, {q3:9.4g}] {after:10.4g} "
            f"{(after - before) / before:+8.1%}  lower in {lower} of {len(old)}")


def summary(pairs: Sequence[Tuple[str, str]], commands: Sequence[str] = ()) -> List[str]:
    """The summary lines of ``(parent stdout, change stdout)`` run pairs: one
    per end-to-end metric, one per request label in ``commands``, and the
    failed requests of each side."""
    results = [(json.loads(old.splitlines()[-1]), json.loads(new.splitlines()[-1]))
               for old, new in pairs]
    lines = [f"{'metric':16} {'parent':>10} {'quartiles':>21} {'change':>10} {'median':>8}  pairs"]
    for name in results[0][0]["metrics"]:
        lines.append(_row(name, [r[0]["metrics"][name]["value"] for r in results],
                          [r[1]["metrics"][name]["value"] for r in results]))
    for label in commands:
        lines.append(_row(label, [command_median(old, label) for old, _ in pairs],
                          [command_median(new, label) for _, new in pairs]))
    for side, index in (("parent", 0), ("change", 1)):
        failed = sum(r[index]["failed"] for r in results)
        attempted = sum(r[index]["attempted"] for r in results)
        lines.append(f"failed {side}: {failed} of {attempted}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 1 (default 1)")
    parser.add_argument("--command", action="append", default=[], metavar="LABEL",
                        help="a request of the per-command table to compare (repeatable)")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    for tree in trees:
        if not (tree / "bench" / "run.py").is_file() or not (tree / "src" / "semispray").is_dir():
            print(f"{tree}: not a checkout with src/semispray and bench/run.py", file=sys.stderr)
            return 2
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src"),
                        str(tree / "bench")], check=True)
    pairs = []
    try:
        for k in range(1, args.pairs + 1):
            seed = args.seed + k - 1
            order = (0, 1) if k % 2 else (1, 0)
            lines = {side: run(trees[side], args.workload, seed, args.seconds) for side in order}
            pairs.append((lines[0], lines[1]))
            values = [json.loads(lines[side].splitlines()[-1])["metrics"] for side in (0, 1)]
            medians = [{label: command_median(lines[side], label) for label in args.command}
                       for side in (0, 1)]
            print(f"pair {k} seed {seed}: " + "  ".join(
                [f"{name} {values[0][name]['value']:.4g} -> {values[1][name]['value']:.4g}"
                 for name in values[0]]
                + [f"{label}: {medians[0][label]:.4g} -> {medians[1][label]:.4g}"
                   for label in args.command]), flush=True)
    except subprocess.CalledProcessError as err:
        print(f"a bench run failed:\n{err.stderr}", file=sys.stderr)
        return 1
    except KeyError as err:
        print(f"no request {err} in the bench's per-command table", file=sys.stderr)
        return 2
    print("\n".join(summary(pairs, args.command)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
