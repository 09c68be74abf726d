"""Compare the CLI bytes of two source trees on every bench request.

    python tools/compare_requests.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are checkouts: directories that hold
``src/semispray``.  The requests are those of
``bench/workloads.requests(workload, seed, pass)`` for the three workloads,
seeds 1-3 and passes 0-2 (540 requests), on the model documents of
``bench/workloads.MODELS``, both taken from the checkout this script lives
in.  Each tree runs every request in its own subprocess, which drives
``semispray.cli.main`` in-process and in order, as the bench does.

Prints every request whose stdout, stderr or exit code differs between the
trees, then the count of differing requests per workload and command (as
``certify_sampled check spray: 9``), then one summary line with the sha256
of each tree's stream of responses.  A differing CSV trajectory of the same shape is reported with
its largest absolute and relative |Δ| over the state columns, and the
largest |Δ| of its drift column.  A differing pair of JSON objects is
reported by the paths of its differing leaves, as
``items[8].residual_max: old vs new``.  Any other difference is reported at
its first differing line.  Exits 1 on any difference (or when a subprocess fails), else 0.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2, 3)
PASSES = (0, 1, 2)


def _workloads():
    sys.path.insert(0, str(BENCH))
    import workloads
    return workloads


def plan(workloads):
    """``(request id, request)`` for every request, in run order."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for pass_index in PASSES:
                for i, request in enumerate(workloads.requests(workload, seed, pass_index)):
                    yield f"{workload} seed {seed} pass {pass_index} #{i} {request.label}", request


def serve(src: str, documents: str) -> int:
    """Run every request against ``src`` and write one JSON line per
    response, ``[id, exit code, stdout, stderr]``, to stdout."""
    workloads = _workloads()
    sys.path.insert(0, str(Path(src) / "src"))
    from semispray import cli

    channel = sys.stdout
    for request_id, request in plan(workloads):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(request.argv(os.path.join(documents, f"{request.model}.json")))
            except (Exception, SystemExit) as exc:  # reported as a response, not a crash
                code = f"{type(exc).__name__}: {exc}"
        channel.write(json.dumps([request_id, code, out.getvalue(), err.getvalue()]) + "\n")
        channel.flush()
    return 0


def _first_difference(a: str, b: str) -> str:
    for number, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if line_a != line_b:
            return f"line {number}: {line_a[:120]!r} vs {line_b[:120]!r}"
    return f"{len(a.splitlines())} vs {len(b.splitlines())} lines"


def _leaves(value, path: str = ""):
    """``(path, value)`` for every leaf of parsed JSON, an empty list or
    object counting as a leaf; paths read as ``items[8].residual_max``."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_difference(a: str, b: str) -> Optional[str]:
    """The leaves that differ between two JSON objects, as ``path: old vs
    new``: the first 5 of them, then how many more.  None when either text is
    not a JSON object or no leaf differs."""
    try:
        docs = json.loads(a), json.loads(b)
    except ValueError:
        return None
    if not all(isinstance(doc, dict) for doc in docs):
        return None
    # Leaves compare as JSON text, so 0 and 0.0 differ and NaN equals NaN.
    old, new = ({path: json.dumps(leaf) for path, leaf in _leaves(doc)} for doc in docs)
    changes = [f"{path}: {old.get(path, '(absent)')} vs {new.get(path, '(absent)')}"
               for path in {**old, **new} if old.get(path) != new.get(path)]
    if not changes:
        return None
    more = f", +{len(changes) - 5} more" if len(changes) > 5 else ""
    return ", ".join(changes[:5]) + more


def _drift(a: str, b: str) -> Optional[str]:
    """The largest |Δ| between two CSV trajectories with one header and
    rows of numbers of the same shape: absolute and relative (to the
    larger magnitude) over the time and state columns, absolute over the
    last, drift, column.  None when the two are not such a pair."""
    tables = []
    for text in (a, b):
        try:
            header, *rows = text.splitlines()
            tables.append((header, [[float(v) for v in row.split(",")] for row in rows]))
        except ValueError:
            return None
    (header_a, rows_a), (header_b, rows_b) = tables
    if header_a != header_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    absolute = relative = drift = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for u, v in zip(row_a[:-1], row_b[:-1]):
            delta = abs(u - v)
            absolute = max(absolute, delta)
            if delta:
                relative = max(relative, delta / max(abs(u), abs(v)))
        drift = max(drift, abs(row_a[-1] - row_b[-1]))
    return (f"max |Δ| {absolute:.3g} (relative {relative:.3g}) in the state, "
            f"{drift:.3g} in the drift")


def tally(counts: collections.Counter) -> list:
    """``workload command: count`` for every ``(workload, command)`` in
    ``counts`` with a differing request, in sorted order."""
    return [f"{workload} {command}: {count}"
            for (workload, command), count in sorted(counts.items()) if count]


def compare(old_src: str, new_src: str) -> int:
    for src in (old_src, new_src):
        if not (Path(src) / "src" / "semispray" / "cli.py").is_file():
            print(f"compare_requests: no program sources under {src}/src", file=sys.stderr)
            return 1
    workloads = _workloads()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as documents:
        for model, (doc, _) in workloads.MODELS.items():
            Path(documents, f"{model}.json").write_text(json.dumps(doc, indent=1),
                                                        encoding="utf-8")
        workers = [subprocess.Popen([sys.executable, __file__, "--serve", src, documents],
                                    stdout=subprocess.PIPE, text=True, env=env)
                   for src in (old_src, new_src)]
        digests = [hashlib.sha256(), hashlib.sha256()]
        total = differing = 0
        counts = collections.Counter()  # (workload, command) -> differing requests
        for request_id, request in plan(workloads):
            lines = [w.stdout.readline() for w in workers]
            if not all(lines):
                print(f"{request_id}: no response (a subprocess ended early)")
                differing += 1
                break
            for digest, line in zip(digests, lines):
                digest.update(line.encode())
            (_, old_code, old_out, old_err), (_, new_code, new_out, new_err) = map(json.loads,
                                                                                  lines)
            total += 1
            notes = []
            if old_code != new_code:
                notes.append(f"exit code {old_code!r} vs {new_code!r}")
            if old_out != new_out:
                drift = _drift(old_out, new_out) if request.kind == "integrate" else None
                if drift:
                    notes.append(f"stdout differs: {drift}")
                else:
                    where = (_json_difference(old_out, new_out)
                             or _first_difference(old_out, new_out))
                    notes.append(f"stdout differs at {where}")
            if old_err != new_err:
                notes.append(f"stderr differs at {_first_difference(old_err, new_err)}")
            if notes:
                differing += 1
                counts[request_id.split()[0], " ".join(request.command)] += 1
                print(f"{request_id}: {'; '.join(notes)}")
        for w in workers:
            w.stdout.close()
            if w.wait() != 0:
                print(f"a subprocess exited with code {w.returncode}")
                differing += 1
    for line in tally(counts):
        print(line)
    old_hex, new_hex = (d.hexdigest() for d in digests)
    print(f"{total} requests, {differing} differing; sha256 old {old_hex[:16]}, "
          f"new {new_hex[:16]}")
    return 1 if differing else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--serve":
        return serve(argv[1], argv[2])
    if len(argv) != 2:
        print("usage: python tools/compare_requests.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
