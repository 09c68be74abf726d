"""Batch command line: load a JSON model, run validations, emit brackets,
fields, reports, and trajectories.  ``integrate`` builds no bracket: it
integrates the factored field ``X = P(x)·∇G`` from the Hessian, the twist
and the anchor (:class:`~semispray.poisson.FactoredField`).

The checks build no bracket either: ``check jacobi``, ``check semispray``,
``check spray`` and ``check prolongation`` decide their residuals from the
same factored field at points, so all five run at any rank.

Exit codes: 0 when every check passes; 1 when any residual is certified
nonzero or the model cannot be processed; 2 on input errors: a malformed
model, a sampling setting that breaks the rules of :mod:`semispray.model`,
bad ``--p0``/``--T``/``--h`` values, a rank above 4 for the commands that
need the exact Hessian inverse (``bracket`` and ``hamiltonian``), and a
chart or 2-section that ``--strict`` refuses.  Every error class has its code in
:data:`semispray.errors.EXIT_CODES`.  Every randomized report embeds the
seed it ran with, so identical model + seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

from . import expr as ex
from . import dynamics, homotopy, poisson, prolongation, twoform
from .errors import EXIT_CODES, ModelError, SingularHessian, exit_code
from .lagrangian import SYMBOLIC_INVERSE_MAX_RANK, build as build_lagrangian
from .model import ModelDocument, count, finite, load_model, positive
from .report import ValidationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _dumps(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at about 1.5 times the
    speed of ``json``'s pure-Python indenting, a non-finite float as the string
    ``"inf"``, ``"-inf"`` or ``"nan"``.  ``indent`` is the newline and indent
    of ``value``'s line; types are tested in ``json``'s order; keys are str."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _encode_str(repr(value))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        items = [_encode_str(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    sys.stdout.write(_dumps(payload) + "\n")


def _lagrangian_data(model: ModelDocument, box, trials, tol, seed):
    """Lagrangian data of the model, with no Hessian inverse: only
    :func:`_bivector` asks for it, and the data build it on first use."""
    if model.lagrangian is None:
        raise ModelError("L", "this command needs a Lagrangian in the model")
    return build_lagrangian(model.lagrangian, model.chart, box=box, trials=trials,
                            tol=tol, seed=seed, params=model.params)


def cmd_validate(model: ModelDocument, args) -> int:
    box, trials, tol, seed = model.settings(args.box, args.trials, args.tol, args.seed)
    reports = [model.chart.validate_structure(box=box, trials=trials, tol=tol, seed=seed)]
    notes = []
    if model.lagrangian is not None:
        try:
            build_lagrangian(model.lagrangian, model.chart, box=box, trials=trials,
                             tol=tol, seed=seed, params=model.params)
            witness = None
        except SingularHessian as err:
            witness = err.witness
        notes.append({"check": "hessian-regularity",
                      "status": "pass" if witness is None else "fail",
                      "witness": witness, "seed": seed})
    if model.theta is not None:
        reports.append(twoform.ThetaSection(model.theta).check_closed(
            box=box, trials=trials, tol=tol, seed=seed))
    ok = all(r.passed for r in reports) and all(n["status"] == "pass" for n in notes)
    payload = {"check": "validate", "status": "pass" if ok else "fail",
               "residual_max": max(r.max_residual for r in reports),
               "seed": seed,
               "reports": [r.to_dict() for r in reports] + notes}
    failing = next((r.first_failure for r in reports if r.first_failure), None)
    if failing is not None and failing.result.witness is not None:
        payload["witness"] = failing.result.witness
    _emit(payload)
    return EXIT_PASS if ok else EXIT_FAIL


def _twisted(model: ModelDocument, box, trials, tol, seed, strict):
    """The Lagrangian data and the twist ``N``; with ``strict``, a chart
    that fails the structure equations or a 2-section that is not closed is
    refused first."""
    if strict:
        structure = model.chart.validate_structure(box=box, trials=trials, tol=tol, seed=seed)
        if not structure.passed:
            raise ModelError("rho/C", "structure equations fail "
                                      f"(max residual {structure.max_residual:.3e})")
    data = _lagrangian_data(model, box, trials, tol, seed)
    theta = twoform.ThetaSection(model.theta) if model.theta is not None else None
    if strict and theta is not None:
        closed = theta.check_closed(box=box, trials=trials, tol=tol, seed=seed)
        if not closed.passed:
            raise ModelError("Theta", "the 2-section is not closed "
                                      f"(max residual {closed.max_residual:.3e})")
    return data, twoform.assemble_N(data, model.chart, theta)


def _bivector(model: ModelDocument, box, trials, tol, seed, strict):
    """The data and the symbolic bracket, up to ``SYMBOLIC_INVERSE_MAX_RANK``."""
    if model.chart.r > SYMBOLIC_INVERSE_MAX_RANK:
        raise ModelError("r", "this command builds the bracket from the exact Hessian "
                              f"inverse, available up to rank {SYMBOLIC_INVERSE_MAX_RANK}")
    data, n_matrix = _twisted(model, box, trials, tol, seed, strict)
    return data, poisson.build_bracket(model.chart, data, n_matrix)


def cmd_bracket(model: ModelDocument, args) -> int:
    box, trials, tol, seed = model.settings(args.box, args.trials, args.tol, args.seed)
    _, bivector = _bivector(model, box, trials, tol, seed, args.strict)
    chart = model.chart
    payload = {
        "check": "bracket",
        "status": "pass",
        "seed": seed,
        "coords": list(chart.coords),
        "fibers": list(chart.fibers),
        "pxx": [[ex.to_text(ex.ZERO)] * chart.n for _ in range(chart.n)],
        "pxy": [[ex.to_text(v) for v in row] for row in bivector.pxy],
        "pyy": [[ex.to_text(v) for v in row] for row in bivector.pyy],
    }
    _emit(payload)
    return EXIT_PASS


def _hamiltonian_target(model: ModelDocument, data, args) -> ex.Expr:
    if getattr(args, "energy_only", False) or model.potential is None:
        return data.EL
    return ex.eadd(data.EL, model.potential)


def _factored(model: ModelDocument, args, box, trials, tol, seed):
    """``(G, field)``: the Hamiltonian target and its factored field, built
    with no Hessian inverse, so at any rank."""
    data, n_matrix = _twisted(model, box, trials, tol, seed, args.strict)
    g = _hamiltonian_target(model, data, args)
    return g, poisson.FactoredField(model.chart, data.M, n_matrix, g)


def cmd_hamiltonian(model: ModelDocument, args) -> int:
    box, trials, tol, seed = model.settings(args.box, args.trials, args.tol, args.seed)
    data, bivector = _bivector(model, box, trials, tol, seed, args.strict)
    g = _hamiltonian_target(model, data, args)
    field = poisson.hamiltonian_field(bivector, g)
    payload = {
        "check": "hamiltonian",
        "status": "pass",
        "seed": seed,
        "G": ex.to_text(g),
        "vx": [ex.to_text(v) for v in field.vx],
        "vy": [ex.to_text(v) for v in field.vy],
    }
    _emit(payload)
    return EXIT_PASS


def cmd_check(model: ModelDocument, args) -> int:
    box, trials, tol, seed = model.settings(args.box, args.trials, args.tol, args.seed)
    which = args.which
    report: Optional[ValidationReport] = None
    if which in ("jacobi", "semispray", "spray"):
        _, field = _factored(model, args, box, trials, tol, seed)
        check = {"jacobi": poisson.check_jacobi, "semispray": poisson.is_semispray,
                 "spray": poisson.is_spray}[which]
        report = check(field, box=box, trials=trials, tol=tol, seed=seed)
    elif which == "homotopy":
        ranks = tuple(range(1, min(model.chart.r, 3) + 1))
        report = homotopy.identity_suite(ranks=ranks, forms_per_case=count(args.forms, "--forms"),
                                         seed=seed, tol=tol, box=box)
    elif which == "prolongation":
        data = _lagrangian_data(model, box, trials, tol, seed)
        potential = None if args.energy_only else model.potential
        report = prolongation.consistency_suite(data, model.theta, potential,
                                                box=box, trials=trials, tol=tol, seed=seed)
    _emit(report.to_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_integrate(model: ModelDocument, args) -> int:
    box, trials, tol, seed = model.settings(args.box, args.trials, args.tol, args.seed)
    chart = model.chart
    values = [finite(v, "--p0") for v in args.p0.split(",")]
    if len(values) != chart.n + chart.r:
        raise ModelError("--p0", f"expected {chart.n + chart.r} comma-separated values")
    p0 = ex.ChartPoint(tuple(values[:chart.n]), tuple(values[chart.n:]))
    T, h = positive(args.T, "--T"), positive(args.h, "--h")
    if args.method == "rk4" and not math.isfinite(T / h):
        raise ModelError("--h", f"the step count T/h = {T:g}/{h:g} is not finite")
    g, field = _factored(model, args, box, trials, tol, seed)
    traj = dynamics.integrate(field, p0, T=T, h=h, method=args.method,
                              invariant=g, params=model.params)
    if args.format == "csv":
        sys.stdout.write(traj.to_csv())
    else:
        _emit({"check": "integrate", "status": "pass", "seed": seed,
               "max_drift": traj.max_drift, "trajectory": traj.to_dict()})
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semispray",
        description="Bracket families with second-order Hamiltonian dynamics "
                    "on Lie algebroid charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="path to the JSON model document")
        p.add_argument("--box", action="append", metavar="LO,HI or NAME=LO,HI",
                       help="sampling box; repeat for per-variable overrides")
        p.add_argument("--trials", default=None,
                       help="sample count (default 64; check homotopy ignores it)")
        p.add_argument("--tol", default=None, help="zero-test tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (default from model)")
        p.add_argument("--strict", action="store_true",
                       help="refuse charts that fail the structure equations and "
                            "non-closed 2-sections")

    p = sub.add_parser("validate", help="structure equations, Hessian regularity, closedness")
    common(p)

    p = sub.add_parser("bracket", help="emit the bracket coefficient matrices as JSON")
    common(p)

    p = sub.add_parser("hamiltonian", help="emit the Hamiltonian vector field as JSON")
    common(p)
    p.add_argument("--energy-only", action="store_true",
                   help="use the bare energy even when the model carries a potential")

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument("which", choices=["jacobi", "semispray", "spray", "homotopy", "prolongation"])
    common(p)
    p.add_argument("--energy-only", action="store_true",
                   help="use the bare energy even when the model carries a potential")
    p.add_argument("--forms", type=int, default=20,
                   help="randomized forms per case for the homotopy suite")

    p = sub.add_parser("integrate", help="integrate the Hamiltonian flow")
    common(p)
    p.add_argument("--energy-only", action="store_true")
    p.add_argument("--p0", required=True, help="initial point, comma-separated x then y")
    p.add_argument("--T", default=1.0)
    p.add_argument("--h", default=1e-3)
    p.add_argument("--method", choices=["rk4", "rk45"], default="rk4")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "bracket": cmd_bracket,
    "hamiltonian": cmd_hamiltonian,
    "check": cmd_check,
    "integrate": cmd_integrate,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        model = load_model(args.model)
        return _COMMANDS[args.command](model, args)
    except tuple(EXIT_CODES) as err:
        code = exit_code(err)
        print(f"{'input error' if code == EXIT_INPUT else 'error'}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
