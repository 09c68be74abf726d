"""Alternate bench runs between two checkouts and summarize them by pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

``PARENT`` and ``CHANGE`` are checkouts: directories that hold
``src/semispray`` and ``bench/run.py``.  Both trees are byte-compiled first
(``python -m compileall -q``), so neither side's first run writes bytecode
and neither runs from stale bytecode.  Pair ``k`` (from 1) runs each
checkout's own ``bench/run.py --workload W --seed K+k-1 --seconds S
--trace 0`` at the same seed, the parent first in odd pairs and the change
first in even ones.  Prints one line per pair as it ends, then, for each
end-to-end metric, the parent's and the change's medians, the parent's
quartiles, the change in the medians and "lower in k of N" (pairs in which
the change read lower), and the failed requests of each side.  Exits 1 when
a run fails, 2 on a directory that is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple


def run(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The last stdout line, one JSON object, of one bench run of ``checkout``."""
    out = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs: Sequence[Tuple[str, str]]) -> List[str]:
    """The summary lines of ``(parent line, change line)`` result pairs."""
    results = [(json.loads(old), json.loads(new)) for old, new in pairs]
    lines = [f"{'metric':16} {'parent':>10} {'quartiles':>21} {'change':>10} {'median':>8}  pairs"]
    for name in results[0][0]["metrics"]:
        old = [r[0]["metrics"][name]["value"] for r in results]
        new = [r[1]["metrics"][name]["value"] for r in results]
        before, after = statistics.median(old), statistics.median(new)
        q1, q3 = _quartiles(old)
        lower = sum(b < a for a, b in zip(old, new))
        lines.append(f"{name:16} {before:10.4g} [{q1:9.4g}, {q3:9.4g}] {after:10.4g} "
                     f"{(after - before) / before:+8.1%}  lower in {lower} of {len(results)}")
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
            values = [json.loads(lines[side])["metrics"] for side in (0, 1)]
            print(f"pair {k} seed {seed}: " + "  ".join(
                f"{name} {values[0][name]['value']:.4g} -> {values[1][name]['value']:.4g}"
                for name in values[0]), flush=True)
    except subprocess.CalledProcessError as err:
        print(f"a bench run failed:\n{err.stderr}", file=sys.stderr)
        return 1
    print("\n".join(summary(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
