#!/usr/bin/env python3
"""Benchmark of the semispray batch CLI, end to end and layer by layer.

    python3 bench/run.py --workload certify_exact --seed 1 --seconds 30 --trace 0

One process per workload drives ``semispray.cli.main`` in-process as a
closed loop with one client: each request is one CLI call on a generated
model document, stdout captured.  A pass issues the workload's request list
once; passes repeat until ``--seconds`` have been measured.  The certify
workloads draw fresh request seeds in every pass, except for the requests
whose answer is a known defect, which keep one seed.  Every response is
checked against the known answers (``workloads.py``); brackets, fields and
trajectories, which must not change between requests of one command, are
checked after the measurement by the sympy oracle (``oracle.py``).

``--trace 0`` reports the end-to-end metrics: the median set-up time of a
fresh interpreter that imports the CLI and loads the documents, the sum over
the workload's commands of their median latencies (``pass_s``), the largest
of those (``worst_request_s``) and the peak RSS.  ``--trace 1`` follows
every untraced pass with a traced twin that issues the same requests, and
reports the per-layer metrics of ``tracing.py`` plus the tracing overhead;
it also writes the span tree to ``.bench_work/``.  The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)

SETUP_LAUNCHES = 21
MIN_PASSES = 3
#: The host's speed drifts by tens of percent over tens of seconds, which
#: no number of passes averages out.  So every time is reported at a
#: reference speed: a fixed tree-walking loop, which no program change can
#: speed up or slow down (it allocates nothing the garbage collector
#: tracks), is timed before and after each measured call, and the call's
#: wall time is scaled by CAL_REF over the loop's mean time.
CAL_REF = 0.002
CAL_TREE = ("+", ("*", ("x",), ("c", 2.5)), ("+", ("sin", ("x",)), ("/", ("x",), ("c", 3.0))))
CAL_STEPS = 2400
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from semispray.cli import load_model; "
              "[load_model(p) for p in sys.argv[2:]]")

END_TO_END = {"setup_s": "s", "pass_s": "s", "worst_request_s": "s", "peak_rss_mb": "MB"}

#: name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "expr.emul.calls": "count", "expr.eadd.calls": "count",
    "expr.diff.calls": "count", "expr.diff.busy_s": "s",
    "expr.simplify.calls": "count", "expr.simplify.busy_s": "s",
    "expr.is_zero.calls": "count", "expr.is_zero.busy_s": "s",
    "expr.is_zero.proven": "count", "expr.is_zero.sampled": "count",
    "expr.is_zero.samples_requested": "count", "expr.is_zero.samples_evaluated": "count",
    "expr.is_zero.samples_skipped_singular": "count", "expr.is_zero.useful_ratio": "ratio",
    "expr.is_zero.nodes_tree": "count", "expr.is_zero.nodes_distinct": "count",
    "expr.is_zero.nodes_tree_max": "count",
    "expr.evaluate.calls": "count", "expr.evaluate.busy_s": "s",
    "expr.compile_evaluator.calls": "count", "expr.compile_evaluator.busy_s": "s",
    "expr.compiled.calls": "count", "expr.compiled.busy_s": "s",
    "dynamics.integrate.busy_s": "s", "dynamics.integrate.self_s": "s",
    "dynamics.integrate.steps_accepted": "count", "dynamics.integrate.rhs_evals": "count",
    "dynamics.integrate.steps_per_s": "1/s", "dynamics.integrate.accept_ratio": "ratio",
    "lagrangian.build.busy_s": "s", "linalg.det.busy_s": "s", "linalg.adjugate.busy_s": "s",
    "twoform.assemble_N.busy_s": "s", "poisson.build_bracket.busy_s": "s",
    "poisson.build_bracket.nodes_tree": "count", "poisson.build_bracket.nodes_distinct": "count",
    "poisson.hamiltonian_field.busy_s": "s",
    "poisson.hamiltonian_field.nodes_tree": "count",
    "poisson.hamiltonian_field.nodes_distinct": "count",
    "poisson.bracket.calls": "count",
    "poisson.check_jacobi.busy_s": "s", "poisson.is_semispray.busy_s": "s",
    "poisson.is_spray.busy_s": "s", "prolongation.consistency_suite.busy_s": "s",
    "algebroid.AlgebroidChart.validate_structure.busy_s": "s",
    "twoform.ThetaSection.check_closed.busy_s": "s", "homotopy.identity_suite.busy_s": "s",
    "model.load_model.busy_s": "s", "expr.parse.calls": "count", "expr.parse.busy_s": "s",
    "expr.to_text.busy_s": "s", "dynamics.Trajectory.to_csv.busy_s": "s",
    "cli.stdout_bytes": "bytes", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def load_cli():
    """Import the CLI from the checkout's own sources."""
    if not (SRC / "semispray" / "cli.py").is_file():
        raise SystemExit(f"bench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from semispray import cli
    return cli


def write_documents(requests, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for model in sorted({r.model for r in requests}):
        path = directory / f"{model}.json"
        path.write_text(json.dumps(workloads.MODELS[model][0], indent=1), encoding="utf-8")
        paths[model] = str(path)
    return paths


def _walk(node, x: float) -> float:
    op = node[0]
    if op == "x":
        return x
    if op == "c":
        return node[1]
    if op == "sin":
        return math.sin(_walk(node[1], x))
    a, b = _walk(node[1], x), _walk(node[2], x)
    return a + b if op == "+" else a * b if op == "*" else a / b


def calibration() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_STEPS):
        acc += _walk(CAL_TREE, 0.001 * i + 0.5)
    return time.perf_counter() - t0


class Scaler:
    """Scales wall times to the reference speed, calibrating between calls."""

    def __init__(self):
        self.last = calibration()

    def scale(self, seconds: float) -> float:
        now = calibration()
        factor = CAL_REF / (0.5 * (self.last + now))
        self.last = now
        return seconds * factor


def measure_setup(paths) -> tuple:
    """Scaled and wall times of fresh interpreters that import the CLI and
    load every document."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *sorted(set(paths.values()))]
    scaler = Scaler()
    scaled, wall = [], []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, check=False)
        wall.append(time.perf_counter() - t0)
        scaled.append(scaler.scale(wall[-1]))
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up launch failed: {done.stderr.decode()[-400:]}")
    return scaled, wall


def call_cli(cli, argv, tracer=None):
    """One request: (exit code or the exception's repr, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
                elapsed = time.perf_counter() - t0
            else:
                code = tracer.call("request", cli.main, (argv,))
                elapsed = tracer.last_duration
        except (Exception, SystemExit) as exc:  # a raising request is a failed request
            elapsed = time.perf_counter() - t0
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), elapsed


class Run:
    """The passes of one benchmark run.

    Latencies are kept per command.  Each response's exit code, verdict and
    seed are checked against the known answer as it arrives (outside the
    timers); what the sympy oracle still has to check, a bracket, field or
    trajectory, is kept once per command and must come back byte for byte
    from every later request of that command.  So memory does not grow
    with the number of passes.
    """

    def __init__(self, cli, workload: str, seed: int, paths: dict):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.paths = paths
        self.executions = collections.Counter()    # label -> requests issued
        self.failures = collections.Counter()      # label -> wrong verdicts
        self.problems = {}                         # label -> first verdict problems
        self.content = {}                          # label -> (request, content)
        self.changed = set()                       # labels whose content changed
        self.latencies = {"plain": collections.defaultdict(list),
                          "traced": collections.defaultdict(list)}
        self.wall = collections.defaultdict(list)
        self.passes = {"plain": 0, "traced": 0}
        self.stdout_bytes = 0
        self.last_factor = 1.0

    @property
    def attempted(self) -> int:
        return sum(self.executions.values())

    def run_pass(self, tracer=None):
        """Pass k of the untraced or the traced series; both issue the
        requests of pass k."""
        kind = "plain" if tracer is None else "traced"
        scaler = Scaler()
        wall_total = scaled_total = 0.0
        stdout_bytes = 0
        for request in workloads.requests(self.workload, self.seed, self.passes[kind]):
            label = request.label
            if tracer is not None:
                tracer.request = label
            code, out, elapsed = call_cli(self.cli, request.argv(self.paths[request.model]), tracer)
            scaled = scaler.scale(elapsed)
            self.latencies[kind][label].append(scaled)
            if tracer is None:
                self.wall[label].append(elapsed)
            wall_total += elapsed
            scaled_total += scaled
            stdout_bytes += len(out.encode("utf-8"))
            self.record(request, code, out)
        self.last_factor = scaled_total / wall_total if wall_total else 1.0
        self.stdout_bytes = stdout_bytes
        self.passes[kind] += 1

    def record(self, request, code, out: str):
        label = request.label
        self.executions[label] += 1
        problems, content = workloads.judge_verdict(request, code, out)
        if problems:
            self.failures[label] += 1
            self.problems.setdefault(label, problems)
        if content is not None and self.content.setdefault(label, (request, content))[1] != content:
            self.changed.add(label)

    def command_medians(self, kind: str = "plain") -> dict:
        """label -> median latency over every request of that command."""
        return {label: statistics.median(times) for label, times in self.latencies[kind].items()}


def layer_snapshot(tracer, stdout_bytes: int, factor: float) -> dict:
    """Per-layer values of one traced pass (overhead is added later); times
    are scaled to the reference speed by the pass's mean ``factor``."""
    stats, counters = tracer.stats, tracer.counters
    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        stat = stats.get(base)
        if field == "calls":
            out[name] = stat.calls if stat else 0
        elif field == "busy_s":
            out[name] = stat.busy * factor if stat else 0.0
        elif field == "self_s":
            out[name] = stat.self_time * factor if stat else 0.0
        else:
            out[name] = counters.get(name, 0)
    evaluated = out["expr.is_zero.samples_evaluated"]
    tried = evaluated + out["expr.is_zero.samples_skipped_singular"]
    out["expr.is_zero.useful_ratio"] = evaluated / tried if tried else 0.0
    steps = out["dynamics.integrate.steps_accepted"]
    busy = out["dynamics.integrate.busy_s"]
    out["dynamics.integrate.steps_per_s"] = steps / busy if busy else 0.0
    attempts = counters.get("dynamics.integrate.steps_tried", 0)
    out["dynamics.integrate.accept_ratio"] = steps / attempts if attempts else 0.0
    out["cli.stdout_bytes"] = stdout_bytes
    return out


def measure(run: Run, seconds: float, trace: bool):
    """Passes until ``seconds`` have gone by; with ``trace`` every untraced
    pass is followed by a traced one.  Returns the traced snapshots."""
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    snapshots = []
    least = 2 if trace else MIN_PASSES
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        # Start another pass only if at least half of it fits the window.
        now = time.perf_counter()
        done = run.passes["plain"]
        if done >= least and now + 0.5 * (now - start) / done > deadline:
            break
        run.run_pass()
        if tracer is None:
            continue
        tracer.install()
        tracer.reset()
        try:
            run.run_pass(tracer)
        finally:
            tracer.uninstall()
        snapshots.append(layer_snapshot(tracer, run.stdout_bytes, run.last_factor))
    return tracer, snapshots


def per_layer(run: Run, snapshots: list) -> dict:
    """Counts from the first traced pass, medians of the timings, and the
    tracing overhead."""
    values = {}
    for name, unit in PER_LAYER.items():
        series = [s[name] for s in snapshots if name in s]
        if series:
            exact = unit in ("count", "bytes", "ratio")
            values[name] = series[0] if exact else statistics.median(series)
    plain = sum(run.command_medians("plain").values())
    traced = sum(run.command_medians("traced").values())
    values["trace.overhead_s"] = traced - plain
    values["trace.overhead_share"] = (traced - plain) / plain
    return values


def check_outputs(run: Run, seed: int) -> dict:
    """label -> (problems, wrong requests) for every command answered wrongly
    at least once: verdicts as recorded, contents by the sympy oracle."""
    import oracle

    judge = oracle.Oracle({model: workloads.MODELS[model][0] for model in run.paths}, seed)
    wrong = {label: (problems, run.failures[label]) for label, problems in run.problems.items()}
    for label, (request, content) in run.content.items():
        problems = judge.check_content(request, content)
        if label in run.changed:
            problems.append("output changed between requests")
        if problems:
            # A wrong bracket, field or trajectory makes every request of it wrong.
            wrong[label] = (wrong.get(label, ([], 0))[0] + problems, run.executions[label])
    return wrong


def rk_steps(run: Run) -> tuple:
    """(accepted steps, summed median seconds) of the integrate requests."""
    medians = run.command_medians()
    steps, seconds = 0, 0.0
    for label, (request, content) in run.content.items():
        if request.kind == "integrate":
            steps += content.count("\n") - 2
            seconds += medians[label]
    return steps, seconds


def report(args, run: Run, wrong: dict, metrics: dict, setup) -> dict:
    """Print the human-readable table and return the result object."""
    failed = sum(count for _, count in wrong.values())
    correct = all(workloads.KNOWN_DEFECTS.get((args.workload, label))
                  and "output changed between requests" not in problems
                  for label, (problems, _) in wrong.items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run.passes['plain']} untraced, {run.passes['traced']} traced  "
          f"(closed loop, one client, in-process; times in reference-speed seconds)")
    print(f"{'command':40} {'median_s':>10} {'wall_s':>10} {'n':>3}  answers")
    commands = run.command_medians()
    for label, median in commands.items():
        verdict = "ok"
        if label in wrong:
            problems, count = wrong[label]
            verdict = (f"WRONG in {count} of {run.executions[label]} requests: "
                       + "; ".join(problems[:3]))
            defect = workloads.KNOWN_DEFECTS.get((args.workload, label))
            if defect:
                verdict = f"known defect ({defect}); {verdict}"
        print(f"{label:40} {median:10.4f} {statistics.median(run.wall[label]):10.4f} "
              f"{len(run.latencies['plain'][label]):3d}  {verdict}")
    n = run.passes["plain"]
    worst = max(commands, key=commands.get)
    lines = [("pass_s", sum(commands.values()), "s", n, "sum of per-command medians"),
             ("worst_request_s", commands[worst], "s", n, worst)]
    if setup:
        scaled, wall = setup
        lines.append(("setup_s", statistics.median(scaled), "s", len(scaled),
                      f"fresh interpreter imports the CLI and loads the documents; "
                      f"wall median {statistics.median(wall):.4f} s"))
    steps, seconds = rk_steps(run)
    if steps:
        lines.append(("rk_steps_per_s", steps / seconds, "1/s", n,
                      f"{steps} accepted steps over the integrate medians"))
    lines.append(("failed_share", failed / run.attempted, "ratio", run.attempted,
                  ", ".join(sorted(wrong)) or "none"))
    if "peak_rss_mb" in metrics:
        lines.append(("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", 1, "ru_maxrss"))
    if args.trace:
        lines += [(name, item["value"], item["unit"], run.passes["traced"], "traced passes")
                  for name, item in metrics.items()]
    print(f"{'metric':50} {'value':>12} {'unit':>6} {'n':>4}  note")
    for name, value, unit, count, note in lines:
        print(f"{name:50} {value:12.6g} {unit:>6} {count:4d}  {note}")
    return {"correct": correct, "attempted": run.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_documents(workloads.requests(args.workload, args.seed), workdir)
        setup = None if args.trace else measure_setup(paths)
        run = Run(cli, args.workload, args.seed, paths)
        tracer, snapshots = measure(run, args.seconds, bool(args.trace))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wrong = check_outputs(run, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(run, snapshots)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        spans = WORK / f"spans_{args.workload}_seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.span_tree()), encoding="utf-8")
    else:
        commands = run.command_medians()
        values = {"setup_s": statistics.median(setup[0]), "pass_s": sum(commands.values()),
                  "worst_request_s": max(commands.values()), "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = report(args, run, wrong, metrics, setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
