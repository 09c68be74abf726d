"""Tests of the benchmark's own logic: the known answers, the oracle, the
seeding and the repeatability of the traced counts.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

import oracle
import run
import workloads

CLI = run.load_cli()
ROOT = Path(__file__).resolve().parent.parent


def one_pass(workload: str, seed: int, tmp_path) -> run.Run:
    paths = run.write_documents(workloads.requests(workload, seed), tmp_path / workload)
    result = run.Run(CLI, workload, seed, paths)
    result.run_pass()
    return result


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    base = tmp_path_factory.mktemp("docs")
    return {w: one_pass(w, 0, base) for w in workloads.WORKLOADS}


def respond(workload: str, seed: int, tmp_path, pick=lambda r: True):
    """(request, exit code, stdout) for the requests of one pass that ``pick`` keeps."""
    requests = workloads.requests(workload, seed)
    paths = run.write_documents(requests, tmp_path)
    out = []
    for request in filter(pick, requests):
        code, stdout, _ = run.call_cli(CLI, request.argv(paths[request.model]))
        out.append((request, code, stdout))
    return out


def judge_for(workload: str) -> oracle.Oracle:
    models = {r.model for r in workloads.requests(workload, 0)}
    return oracle.Oracle({m: workloads.MODELS[m][0] for m in models}, 0)


# -- the mathematics behind the known answers -------------------------------


def model_residuals(doc: dict):
    """Structure-equation and closedness residuals of a document, in sympy:
    rho([e_i, e_j]) = [rho e_i, rho e_j], the Jacobi identity of the frame
    bracket, and dTheta = 0."""
    n, r = doc["n"], doc["r"]
    x = sp.symbols(f"x1:{n + 1}", real=True)
    names = {f"x{i + 1}": x[i] for i in range(n)}

    def parse(src):
        return sp.sympify(src.replace("^", "**"), locals=names)

    rho = [[parse(v) for v in row] for row in doc["rho"]]
    c = [[[sp.Integer(0)] * r for _ in range(r)] for _ in range(r)]
    for key, value in doc.get("C", {}).items():
        k, i, j = (int(p) - 1 for p in key.split(","))
        c[k][i][j], c[k][j][i] = parse(value), -parse(value)
    theta = [[sp.Integer(0)] * r for _ in range(r)]
    for key, value in doc.get("Theta", {}).items():
        i, j = (int(p) - 1 for p in key.split(","))
        theta[i][j], theta[j][i] = parse(value), -parse(value)

    def anchor(j, g):
        return sum(rho[a][j] * sp.diff(g, x[a]) for a in range(n))

    structure = []
    for i in range(r):
        for j in range(i + 1, r):
            for b in range(n):
                structure.append(anchor(i, rho[b][j]) - anchor(j, rho[b][i])
                                 - sum(c[k][i][j] * rho[b][k] for k in range(r)))
    closed = []
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                for m in range(r):
                    structure.append(sum(
                        sum(c[l][a][b] * c[m][l][d] for l in range(r)) - anchor(d, c[m][a][b])
                        for a, b, d in ((i, j, k), (j, k, i), (k, i, j))))
                closed.append(anchor(i, theta[j][k]) - anchor(j, theta[i][k])
                              + anchor(k, theta[i][j])
                              - sum(c[l][i][j] * theta[l][k] - c[l][i][k] * theta[l][j]
                                    + c[l][j][k] * theta[l][i] for l in range(r)))
    return structure, closed


@pytest.mark.parametrize("model", sorted(workloads.MODELS))
def test_declared_model_properties_hold(model):
    doc, props = workloads.MODELS[model]
    structure, closed = model_residuals(doc)
    assert all(sp.expand(e) == 0 for e in structure) == props["structure"]
    assert all(sp.expand(e) == 0 for e in closed) == props["closed"]
    fibers = sp.symbols(" ".join(doc.get("fibers", [f"y{i + 1}" for i in range(doc["r"])])))
    fibers = fibers if isinstance(fibers, tuple) else (fibers,)
    local = {str(s): s for s in fibers}
    lag = sp.sympify(doc["L"].replace("^", "**"), locals=local)
    quadratic = sp.simplify(sum(y * sp.diff(lag, y) for y in fibers) - 2 * lag) == 0
    assert (quadratic and "Theta" not in doc and "f" not in doc) == props["homogeneous"]


def test_known_defect_is_roundoff_near_the_singular_curve(tmp_path):
    path = tmp_path / "stress.json"
    path.write_text(json.dumps(workloads.MODELS["stress"][0]))
    code, out, _ = run.call_cli(CLI, ["check", "jacobi", str(path), "--seed", "0"])
    assert code == 1
    code, out, _ = run.call_cli(CLI, ["check", "jacobi", str(path), "--seed", "0",
                                      "--box", "x1=0.25,1"])
    assert code == 0 and json.loads(out)["residual_max"] < 1e-12


# -- the oracle ---------------------------------------------------------------


def test_oracle_accepts_every_request_but_the_known_defects(passes):
    for workload, result in passes.items():
        wrong = run.check_outputs(result, 0)
        # At DEFECT_SEED every known defect shows, so every run fails the same share.
        expected = {label for w, label in workloads.KNOWN_DEFECTS if w == workload}
        assert set(wrong) == expected, wrong


def test_oracle_flags_a_wrong_verdict(tmp_path):
    [(request, code, out)] = respond("certify_exact", 0, tmp_path,
                                     lambda r: r.label == "so3_magnetic check jacobi")
    judge = judge_for("certify_exact")
    assert judge.check(request, code, out) == []
    assert judge.check(dataclasses.replace(request, expect="fail"), code, out)


def test_oracle_flags_a_wrong_bracket_entry_and_flow_end(tmp_path):
    [(request, code, out)] = respond("certify_exact", 0, tmp_path / "a",
                                     lambda r: r.label == "so3_magnetic bracket")
    payload = json.loads(out)
    payload["pyy"][0][1] = payload["pyy"][0][1] + " + x1/1000"
    problems = judge_for("certify_exact").check(request, code, json.dumps(payload))
    assert any("pyy[0][1]" in p for p in problems)

    [(request, code, out)] = respond("flow", 0, tmp_path / "b",
                                     lambda r: r.label == "trig2 integrate rk45")
    judge = judge_for("flow")
    assert judge.check(request, code, out) == []
    lines = out.splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-4)
    problems = judge.check(request, code, "\n".join(lines[:-1] + [",".join(last)]) + "\n")
    assert any(p.startswith("final x1") for p in problems)


# -- seeding and repeatability ---------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert workloads.requests(workload, 3, 1) == workloads.requests(workload, 3, 1)
    assert workloads.requests(workload, 3) != workloads.requests(workload, 4)
    repeats = workloads.requests(workload, 3, 0) == workloads.requests(workload, 3, 1)
    assert repeats == (workload == "flow")
    for seed, index in ((0, 0), (3, 1), (9, 4)):
        for request in workloads.requests(workload, seed, index):
            if request.defect:
                assert request.flags == ("--seed", workloads.DEFECT_SEED)


def test_same_seed_same_outputs(tmp_path):
    first = respond("certify_exact", 5, tmp_path / "a")
    assert first == respond("certify_exact", 5, tmp_path / "b")


def _traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def test_same_seed_same_counts_across_processes():
    first = _traced_counts("certify_exact", 5)
    assert first["expr.is_zero.calls"] > 0 and first["expr.emul.calls"] > 0
    assert first == _traced_counts("certify_exact", 5)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
