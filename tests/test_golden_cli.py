"""Golden CLI bytes: stdout and exit code of ``semispray`` on fixed models.

The expected files under ``tests/golden/`` pin every byte the command line
prints, including the residual digits of sampled zero tests, so a refactor
that claims "same output" is checked against them.  After a change that is
meant to alter the output, regenerate them with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from semispray import cli

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
}

CASES = [(model, command) for model in MODELS for command in COMMANDS]


def run_case(model: str, command: str, directory: pathlib.Path):
    """Run one CLI call in-process; returns (stdout, exit code)."""
    doc = MODELS[model]
    path = directory / f"{model}.json"
    path.write_text(json.dumps(doc))
    argv = list(COMMANDS[command])
    argv.insert(2 if argv[0] == "check" else 1, str(path))
    if argv[0] == "integrate":
        argv += ["--p0", P0[doc["n"]]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


def _expected_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("model,command", CASES, ids=[f"{m}-{c}" for m, c in CASES])
def test_cli_bytes_match_golden(model, command, tmp_path):
    stdout, code = run_case(model, command, tmp_path)
    name = f"{model}__{command}"
    assert code == _expected_codes()[name]
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


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
