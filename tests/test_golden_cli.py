"""Golden CLI bytes: stdout and exit code of ``semispray`` on fixed models.

The expected files under ``tests/golden/`` pin every byte the command line
prints, including the residual digits of sampled zero tests, so a refactor
that claims "same output" is checked against them.  After a change that is
meant to alter the output, regenerate them with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from semispray import cli, expr as ex, lagrangian, linalg, poisson, prolongation

GOLDEN = pathlib.Path(__file__).parent / "golden"

SO3_RHO = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]

#: The catalog ``action_so3`` chart and 2-section, the ``curved_cotangent``
#: and ``curved_metric`` test fixtures, and a model with ``exp`` and ``sin``
#: whose identities are only sampled, so residual digits are pinned too.
MODELS = {
    "action_so3": {
        "n": 3, "r": 3, "rho": SO3_RHO,
        "C": {"3,1,2": "1", "2,1,3": "-1", "1,2,3": "1"},
        "L": "1/2*(y1^2 + y2^2 + y3^2)",
        "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"},
        "seed": 7,
    },
    "curved_cotangent": {
        "n": 2, "r": 2, "fibers": ["p1", "p2"],
        "rho": [["0", "-1 - x1^2"], ["1 + x1^2", "0"]], "C": {"1,1,2": "2*x1"},
        "L": "1/2*(p1^2 + p2^2)", "Theta": {"1,2": "1 + x1^2"},
        "seed": 3,
    },
    "curved_metric": {
        "n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]],
        "L": "1/2*(y1^2 + (1 + x1^2)*y2^2)",
        "seed": 5,
    },
    "exp_metric": {
        "n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]],
        "L": "1/2*(exp(x1)*y1^2 + y2^2) + sin(x2)*y1",
        "Theta": {"1,2": "x1"}, "f": "sin(x1)",
        "seed": 11,
    },
}

#: Negative controls: ``action_so3`` with one anchor entry moved off a
#: solution of the structure equations, and with a 2-section that is not
#: closed.  Their failing reports pin the signed ``witness_value``s.
NEGATIVE_MODELS = {
    "so3_perturbed": {**MODELS["action_so3"],
                      "rho": [["0", "-x3 + 1/1000000", "x2"], *SO3_RHO[1:]]},
    "so3_nonclosed": {**MODELS["action_so3"],
                      "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x2"}},
}
MODELS.update(NEGATIVE_MODELS)

#: ``action_so3`` with the non-polynomial ``stress`` Lagrangian: its
#: Hamiltonian field is the largest tree ``hamiltonian`` prints, its Hessian
#: the one the flows solve with a runtime row swap, and its sampled
#: residuals are the largest and most roundoff-prone the checks evaluate.
#: In floats they round off near the curve det M = 0 by more than ``tol``
#: at some seeds.  None of them has a root, so every one that is not the
#: literal 0 is decided exactly mod p first: ``check_jacobi`` from the
#: jets of the bracket entries, solved for at the point from ``M``, ``N``
#: and ``rho`` with no inverse, each ``method: modular``, so it passes at
#: every seed.  ``check_prolongation`` is proven item by item from the
#: construction (``dE_L/dy = M y`` and ``omega_L``'s blocks are ``M`` and
#: ``N``), with no sample.
#: ``check_semispray`` is proven by the identity ``dG/dy = M y``, as are
#: the base items of ``check_spray``, which fails truly: the magnetic term
#: of ``Theta`` is linear in the fibers, so its fiber items are nonzero mod
#: p and then at a float witness (``method: float``).
STRESS_MODELS = {
    "stress": {**MODELS["action_so3"],
               "L": "1/2*exp(x1)*(y1^2+y2^2+y3^2) + x2*y1*y2", "seed": 13},
}
MODELS.update(STRESS_MODELS)

#: A quotient in the Hessian ``M = diag(1/(1 + x1^2), 1)``: ``dE_L/dy1`` is
#: not ``M y1`` term for term, so with the twist ``check_prolongation``
#: proves all but three items, and those are decided from its solves at one
#: point mod p (``method: modular``).  Every other golden model is proven.
QUOTIENT_MODELS = {
    "quotient_metric": {"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]],
                        "L": "1/2*y1^2/(1 + x1^2) + 1/2*y2^2 + x2*y1",
                        "Theta": {"1,2": "x2"}, "seed": 17},
}
MODELS.update(QUOTIENT_MODELS)

#: The stress model with the ``so3_perturbed`` anchor: its ``check_jacobi``
#: finds the five triples the 1e-6 anchor perturbation breaks, each nonzero
#: mod p and then at a float witness.
NEGATIVE_MODELS["stress_perturbed"] = {**STRESS_MODELS["stress"],
                                       "rho": NEGATIVE_MODELS["so3_perturbed"]["rho"]}
MODELS.update(NEGATIVE_MODELS)

P0 = {3: "0.1,0.2,0.3,0.3,0.2,0.1", 2: "0.1,0.2,0.3,0.4"}

COMMANDS = {
    "validate": ["validate"],
    "bracket": ["bracket"],
    "hamiltonian": ["hamiltonian"],
    "check_jacobi": ["check", "jacobi"],
    "check_semispray": ["check", "semispray"],
    "check_spray": ["check", "spray"],
    "check_prolongation": ["check", "prolongation"],
    "check_homotopy": ["check", "homotopy", "--forms", "2"],
    "integrate_rk4": ["integrate", "--T", "0.05", "--h", "1e-2", "--method", "rk4"],
    "integrate_rk45": ["integrate", "--T", "0.05", "--h", "1e-2", "--method", "rk45"],
    "integrate_json": ["integrate", "--T", "0.05", "--h", "1e-2", "--method", "rk4",
                       "--format", "json"],
}

CASES = [(model, command) for model in MODELS
         if model not in {**NEGATIVE_MODELS, **STRESS_MODELS, **QUOTIENT_MODELS}
         for command in COMMANDS]
CASES += [(model, command) for model in NEGATIVE_MODELS
          for command in ("validate", "check_jacobi")]
CASES += [(model, command) for model in STRESS_MODELS
          for command in ("validate", "bracket", "hamiltonian", "check_jacobi",
                          "check_semispray", "check_spray", "check_prolongation",
                          "check_homotopy", "integrate_rk4", "integrate_rk45",
                          "integrate_json")]
CASES += [(model, "check_prolongation") for model in QUOTIENT_MODELS]


def run_cli(name: str, doc: dict, argv, directory: pathlib.Path):
    """Run one CLI call in-process on ``doc``, saved as ``name.json`` and
    passed after the command words; returns (stdout, exit code)."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    argv = list(argv)
    argv.insert(2 if argv[0] == "check" else 1, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


def run_case(model: str, command: str, directory: pathlib.Path):
    doc = MODELS[model]
    argv = list(COMMANDS[command])
    if argv[0] == "integrate":
        argv += ["--p0", P0[doc["n"]]]
    return run_cli(model, doc, argv, directory)


def _expected_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("model,command", CASES, ids=[f"{m}-{c}" for m, c in CASES])
def test_cli_bytes_match_golden(model, command, tmp_path):
    stdout, code = run_case(model, command, tmp_path)
    name = f"{model}__{command}"
    assert code == _expected_codes()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("model", [m for m, c in CASES if c == "check_homotopy"])
def test_homotopy_quadrature_leaves_only_roundoff(model, tmp_path):
    # Every fiber integral of the suite is smooth in the scaling parameter,
    # so its residual is roundoff, far inside the suite's 1e-8 bound.
    stdout, _ = run_case(model, "check_homotopy", tmp_path)
    items = [item for item in json.loads(stdout)["items"]
             if item["label"].endswith(",nonpolynomial")]
    assert items and all(item["residual_max"] <= 1e-14 for item in items)


def test_stress_prolongation_passes_at_every_seed(tmp_path):
    # The prolongation identities hold for every closed Theta, so no seed
    # may report a NONZERO; float sampling alone gave false ones from
    # roundoff near the curve det M = 0.  Every item is proven or decided mod p.
    for seed in range(40):
        stdout, code = run_cli("stress", STRESS_MODELS["stress"],
                               ["check", "prolongation", "--seed", str(seed)], tmp_path)
        report = json.loads(stdout)
        assert (code, report["status"]) == (0, "pass"), seed
        assert {item.get("method") for item in report["items"]} <= {None, "modular"}


@pytest.mark.parametrize("model", ["so3_nonclosed", "stress_perturbed"])
@pytest.mark.parametrize("command", ["validate", "check_jacobi"])
def test_negative_controls_fail_with_a_witness(model, command, tmp_path):
    stdout, code = run_case(model, command, tmp_path)
    report = json.loads(stdout)
    assert (code, report["status"]) == (1, "fail")
    assert report["witness"] is not None  # {} where the residual is a constant


@pytest.mark.parametrize("model", ["stress", "curved_metric", "exp_metric"])
@pytest.mark.parametrize("command", ["check_semispray", "check_spray"])
def test_semispray_and_spray_build_no_tree(model, command, tmp_path, monkeypatch):
    # Both checks decide their residuals from the factored field: with the
    # bracket, the field trees and the Hessian inverse refused, they still
    # print their golden bytes.
    def refuse(*args):
        raise AssertionError("a tree path was entered")

    monkeypatch.setattr(poisson, "build_bracket", refuse)
    monkeypatch.setattr(poisson, "hamiltonian_field", refuse)
    monkeypatch.setattr(lagrangian.LagrangianData, "Minv", property(refuse))
    stdout, code = run_case(model, command, tmp_path)
    name = f"{model}__{command}"
    assert code == _expected_codes()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("model", ["stress", "stress_perturbed", "curved_metric", "exp_metric"])
def test_jacobi_builds_no_inverse(model, tmp_path, monkeypatch):
    # Where M reads a name, the check solves for the bracket's jets at
    # points: with the symbolic bracket and every exact inverse refused, it
    # still prints its golden bytes.
    def refuse(*args):
        raise AssertionError("a symbolic inverse was built")

    monkeypatch.setattr(poisson, "build_bracket", refuse)
    monkeypatch.setattr(linalg, "inverse", refuse)
    monkeypatch.setattr(lagrangian.LagrangianData, "Minv", property(refuse))
    stdout, code = run_case(model, "check_jacobi", tmp_path)
    name = f"{model}__check_jacobi"
    assert code == _expected_codes()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("model", [m for m, c in CASES if c == "check_prolongation"])
def test_prolongation_builds_no_tree(model, tmp_path, monkeypatch):
    # The check solves for the sections and the field at points: with the
    # bracket, the field trees and every exact inverse refused, it still
    # prints its golden bytes.  The symbolic sections are not in the package.
    def refuse(*args):
        raise AssertionError("a tree path was entered")

    assert not hasattr(prolongation, "hamiltonian_section")
    for owner, name in [(poisson, "build_bracket"), (poisson, "hamiltonian_field"),
                        (linalg, "inverse")]:
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(lagrangian.LagrangianData, "Minv", property(refuse))
    stdout, code = run_case(model, "check_prolongation", tmp_path)
    name = f"{model}__check_prolongation"
    assert code == _expected_codes()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_commands_run_no_simplify_pass(tmp_path, monkeypatch):
    # The constructors return canonical trees, so no command rebuilds one
    # through ``simplify``.
    calls = []
    simplify = ex.simplify

    def counting(e):
        calls.append(e)
        return simplify(e)

    monkeypatch.setattr(ex, "simplify", counting)
    for command in ("validate", "bracket", "hamiltonian", "check_jacobi", "check_semispray",
                    "check_spray", "check_prolongation", "check_homotopy", "integrate_rk4"):
        run_case("stress", command, tmp_path)
    assert len(calls) == 0


#: The long flows of the bench's ``flow`` workload (``bench/workloads.py``),
#: with the documents copied here and the start point at the workload's
#: centre: 5,000 rk4 steps, so a change in the last bit of any step shows.
FLOW_MODELS = {
    "so3_magnetic": {
        "n": 3, "r": 3, "rho": SO3_RHO, "C": MODELS["action_so3"]["C"],
        "L": "1/2*(y1^2+y2^2+y3^2) + x1*y1 + x2*y2 + x3*y3",
        "Theta": MODELS["action_so3"]["Theta"], "f": "x1^3 + x2*x3",
    },
    "stress": {
        "n": 3, "r": 3, "rho": SO3_RHO, "C": MODELS["action_so3"]["C"],
        "L": "1/2*exp(x1)*(y1^2+y2^2+y3^2) + x2*y1*y2",
        "Theta": MODELS["action_so3"]["Theta"],
    },
    "trig2": {
        "n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]],
        "L": "1/2*(y1^2 + (2+sin(x1))*y2^2) + cos(x2)*y1",
        "Theta": {"1,2": "x1"}, "f": "cos(x1)",
    },
}

#: (lines with the header, sha256 of the CSV bytes) of each long flow.
LONG_FLOWS = {
    ("so3_magnetic", "rk4", "1e-3"):
        (5002, "dc5ef644240bd5c0878fce22cb0a4a580c07341bdf0306ecdf56575b8409a072"),
    ("stress", "rk4", "1e-3"):
        (5002, "46034dd0e91945d9e1fcf69c5802ef64403b506257ac6fde7d3c6dc1aa421f72"),
    ("trig2", "rk4", "1e-3"):
        (5002, "8a19866f9371a2f1e97d07cbb8fd5ba2a7fc5c2611bff9815e8fcc21a4976426"),
    ("stress", "rk45", "1e-2"):
        (40, "e63343009fb0f7cdc414224e3e053375bea95c7c4833ff688af470e25865e9b9"),
}


@pytest.mark.parametrize("case", LONG_FLOWS, ids=["-".join(c) for c in LONG_FLOWS])
def test_long_flow_csv_bytes_are_pinned(case, tmp_path):
    model, method, h = case
    doc = FLOW_MODELS[model]
    csv_text, code = run_cli(model, doc, ["integrate", "--p0", P0[doc["n"]], "--T", "5",
                                          "--h", h, "--method", method, "--format", "csv"],
                             tmp_path)
    lines, digest = LONG_FLOWS[case]
    assert code == 0
    assert (csv_text.count("\n"), hashlib.sha256(csv_text.encode()).hexdigest()) == (lines, digest)


def regenerate(directory: pathlib.Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for model, command in CASES:
        stdout, code = run_case(model, command, directory)
        name = f"{model}__{command}"
        (GOLDEN / f"{name}.out").write_bytes(stdout.encode())
        codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(pathlib.Path(tmp))
    sys.exit(0)
