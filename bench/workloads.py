"""Model documents, request lists and known answers of the three workloads.

Every request is one ``semispray.cli.main`` call on a generated model
document.  The workload seed picks the ``--seed`` of every request and the
flow start points; the program sees only the documents and the argv.

The expected verdicts come from the mathematics of the models, not from the
program (``test_bench.py`` re-derives the model properties with sympy):

* ``validate`` passes iff the structure equations hold and ``Theta`` is closed;
* ``check jacobi`` passes iff the same two hold (the bracket is then Poisson);
* ``check semispray`` always passes: the base block ``-rho M^-1`` contracted
  with ``dE_L/dy = M y`` gives ``rho y`` whatever ``Theta`` and ``f`` are;
* ``check spray`` passes iff ``L`` is fiberwise quadratic and both ``Theta``
  and ``f`` are absent (a twist or a potential adds fiber terms of degree
  1 or 0 to the field);
* ``check prolongation`` and ``check homotopy`` pass (identities of the
  calculus);
* ``bracket``, ``hamiltonian`` and ``integrate`` exit 0; their outputs are
  compared with the sympy derivation in ``oracle.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SO3_RHO = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]
SO3_C = {"3,1,2": "1", "2,1,3": "-1", "1,2,3": "1"}
SO3_THETA = {"1,2": "x3", "1,3": "-x2", "2,3": "x1"}
MAGNETIC_L = "1/2*(y1^2+y2^2+y3^2) + x1*y1 + x2*y2 + x3*y3"
STRESS_L = "1/2*exp(x1)*(y1^2+y2^2+y3^2) + x2*y1*y2"


def _identity_rho(n: int) -> List[List[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


#: name -> (document, properties).  ``structure`` and ``closed`` state the
#: mathematics of the document; ``homogeneous`` means L is fiberwise
#: quadratic with no Theta and no f.
MODELS: Dict[str, Tuple[dict, dict]] = {
    "so3_magnetic": (
        {"n": 3, "r": 3, "rho": SO3_RHO, "C": SO3_C, "L": MAGNETIC_L,
         "Theta": SO3_THETA, "f": "x1^3 + x2*x3"},
        {"structure": True, "closed": True, "homogeneous": False}),
    # Negative control.  The catalog already has Theta_{23} = x1, so the
    # entry is changed to x2, which breaks closedness.
    "so3_nonclosed": (
        {"n": 3, "r": 3, "rho": SO3_RHO, "C": SO3_C, "L": MAGNETIC_L,
         "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x2"}, "f": "x1^3 + x2*x3"},
        {"structure": True, "closed": False, "homogeneous": False}),
    # Cotangent algebroid of the Lie-Poisson structure of so(3)* x R, with
    # the bivector itself as the closed 2-section.
    "lie_poisson4": (
        {"n": 4, "r": 4, "fibers": ["p1", "p2", "p3", "p4"],
         "rho": [["0", "-x3", "x2", "0"], ["x3", "0", "-x1", "0"],
                 ["-x2", "x1", "0", "0"], ["0", "0", "0", "0"]],
         "C": SO3_C, "L": "1/2*(p1^2+p2^2+p3^2+p4^2)",
         "Theta": SO3_THETA, "f": "x4^2"},
        {"structure": True, "closed": True, "homogeneous": False}),
    "tangent4": (
        {"n": 4, "r": 4, "rho": _identity_rho(4),
         "L": "1/2*(y1^2+y2^2+y3^2+y4^2)", "Theta": {"1,2": "1"}},
        {"structure": True, "closed": True, "homogeneous": False}),
    # Cotangent chart of the plane bivector (1 + x1^2) d1 ^ d2.
    "curved_cotangent": (
        {"n": 2, "r": 2, "fibers": ["p1", "p2"],
         "rho": [["0", "-1 - x1^2"], ["1 + x1^2", "0"]], "C": {"1,1,2": "2*x1"},
         "L": "1/2*(p1^2+p2^2)", "Theta": {"1,2": "1 + x1^2"}},
        {"structure": True, "closed": True, "homogeneous": False}),
    "stress": (
        {"n": 3, "r": 3, "rho": SO3_RHO, "C": SO3_C, "L": STRESS_L, "Theta": SO3_THETA},
        {"structure": True, "closed": True, "homogeneous": False}),
    # Negative control: 0-based rho[0][1] moved off the rotation field by 1e-6.
    "stress_perturbed": (
        {"n": 3, "r": 3,
         "rho": [["0", "-x3 + 1/1000000", "x2"], SO3_RHO[1], SO3_RHO[2]],
         "C": SO3_C, "L": STRESS_L, "Theta": SO3_THETA},
        {"structure": False, "closed": True, "homogeneous": False}),
    "curved_metric": (
        {"n": 2, "r": 2, "rho": _identity_rho(2), "L": "1/2*(y1^2 + (1+x1^2)*y2^2)"},
        {"structure": True, "closed": True, "homogeneous": True}),
    "trig2": (
        {"n": 2, "r": 2, "rho": _identity_rho(2),
         "L": "1/2*(y1^2 + (2+sin(x1))*y2^2) + cos(x2)*y1",
         "Theta": {"1,2": "x1"}, "f": "cos(x1)"},
        {"structure": True, "closed": True, "homogeneous": False}),
}

#: Flow start points are drawn within +-FLOW_JITTER of these, x then y.
FLOW_CENTERS = {3: (0.1, 0.2, 0.3, 0.3, 0.2, 0.1), 2: (0.1, 0.2, 0.3, 0.4)}
FLOW_JITTER = 0.05
FLOW_T = "5"
FLOW_STEPS = {"rk4": "1e-3", "rk45": "1e-2"}

#: (workload, request label) -> why the program's verdict is known to be
#: wrong.  Both are ROADMAP defect (a): roundoff near the curve e^x1 = |x2|,
#: where the Hessian det e^x1 (e^2x1 - x2^2) of the stress model vanishes
#: inside the default box, exceeds the absolute tolerance.
KNOWN_DEFECTS = {
    ("certify_sampled", "stress check jacobi"):
        "false NONZERO from roundoff near det M = 0; shows at 39 of request seeds 0-39",
    ("certify_sampled", "stress check prolongation"):
        "false NONZERO from roundoff near det M = 0; shows when a sample lands "
        "near the curve, at request seeds 1 and 2 of 0-39",
}

#: The ``--seed`` of every known-defect request, in every pass and run.
#: Whether the defect shows depends on where the check samples, so with
#: fresh seeds the number of wrong answers would differ from run to run;
#: at this seed both defects show, and the failed share of a run is fixed.
DEFECT_SEED = "1"

CHECKS = ("jacobi", "semispray", "spray", "prolongation")


@dataclass(frozen=True)
class Request:
    label: str
    model: str
    command: Tuple[str, ...]
    flags: Tuple[str, ...]
    expect: str                  # "pass" (exit 0) or "fail" (exit 1)
    defect: Optional[str] = None

    def argv(self, path: str) -> List[str]:
        return [*self.command, path, *self.flags]

    @property
    def kind(self) -> str:
        return self.command[-1] if self.command[0] == "check" else self.command[0]


def expected_verdict(model: str, command: Tuple[str, ...]) -> str:
    props = MODELS[model][1]
    consistent = props["structure"] and props["closed"]
    kind = command[-1]
    if kind in ("validate", "jacobi"):
        return "pass" if consistent else "fail"
    if kind == "spray":
        return "pass" if props["homogeneous"] else "fail"
    return "pass"


def judge_verdict(request: Request, code, stdout: str) -> Tuple[List[str], Optional[str]]:
    """Check a response's exit code, verdict and seed against the known
    answer.  Returns the problems and the part of the response the sympy
    oracle still has to check: a bracket or field without its seed, or a
    trajectory; None for a report."""
    if isinstance(code, str):
        return [f"raised {code}"], None
    expected_code = 0 if request.expect == "pass" else 1
    problems = [] if code == expected_code else [f"exit {code}, expected {expected_code}"]
    if request.kind == "integrate":
        return problems, stdout
    try:
        payload = json.loads(stdout)
    except ValueError as err:
        return problems + [f"stdout is not JSON: {err}"], None
    if not isinstance(payload, dict):
        return problems + ["stdout is not a JSON object"], None
    if payload.get("status") != request.expect:
        problems.append(f"status {payload.get('status')!r}, expected {request.expect!r}")
    seed = int(request.flags[request.flags.index("--seed") + 1])
    if payload.get("seed") != seed:
        problems.append(f"seed {payload.get('seed')!r}, expected {seed}")
    if request.kind in ("bracket", "hamiltonian"):
        payload.pop("seed", None)
        return problems, json.dumps(payload, sort_keys=True)
    return problems, None


def _certify(workload: str, models, negatives, rng: random.Random, extra=()) -> List[Request]:
    commands = [("validate",), ("bracket",), ("hamiltonian",)] + [("check", c) for c in CHECKS]
    plan = [(m, c) for m in models for c in commands]
    plan += [(m, c) for m in negatives for c in (("validate",), ("check", "jacobi"))]
    plan += list(extra)
    out = []
    for model, command in plan:
        label = f"{model} {' '.join(command)}"
        defect = KNOWN_DEFECTS.get((workload, label))
        # Drawn for every request, so the other seeds do not depend on the defect list.
        seed = str(rng.randrange(2 ** 31))
        flags = ("--seed", DEFECT_SEED if defect else seed)
        if command == ("check", "homotopy"):
            flags += ("--forms", "2")
        out.append(Request(label, model, command, flags, expected_verdict(model, command),
                           defect))
    return out


def _flow(rng: random.Random) -> List[Request]:
    out = []
    for model in ("so3_magnetic", "stress", "trig2"):
        doc = MODELS[model][0]
        center = FLOW_CENTERS[doc["n"]]
        p0 = ",".join(repr(round(c + rng.uniform(-FLOW_JITTER, FLOW_JITTER), 6)) for c in center)
        for method, h in FLOW_STEPS.items():
            flags = ("--p0", p0, "--T", FLOW_T, "--h", h, "--method", method, "--format", "csv")
            out.append(Request(f"{model} integrate {method}", model, ("integrate",), flags, "pass"))
    return out


def requests(workload: str, seed: int, pass_index: int = 0) -> List[Request]:
    """The request list of pass ``pass_index`` of ``workload`` at ``seed``.

    The certify workloads draw fresh request seeds for every pass: how long
    a check samples before its first NONZERO witness depends on the seed by
    up to 35%, and a run then averages over as many seeds as it has passes.
    The known-defect requests keep ``DEFECT_SEED``.
    The flow requests are the same in every pass, since an integration's
    cost does not depend on its start point.
    """
    if workload == "flow":
        return _flow(random.Random(f"{workload}:{seed}"))
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "certify_exact":
        return _certify(workload, ("so3_magnetic", "lie_poisson4", "tangent4", "curved_cotangent"),
                        ("so3_nonclosed",), rng)
    if workload == "certify_sampled":
        return _certify(workload, ("stress", "curved_metric", "trig2"), ("stress_perturbed",), rng,
                        extra=[("stress", ("check", "homotopy"))])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("certify_exact", "certify_sampled", "flow")
