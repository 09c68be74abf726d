"""Batch command line: load a JSON model, run validations, emit brackets,
fields, reports, and trajectories.

Exit codes: 0 when every check passes; 1 when any residual is certified
nonzero, the fiber Hessian is singular (with or without ``--strict``) or
evaluation leaves the real domain at every sample; 2 on input errors,
including a chart or 2-section that ``--strict`` refuses.  Every randomized
report embeds the seed it ran with, so identical model + seed gives
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import expr as ex
from . import dynamics, homotopy, poisson, prolongation, twoform
from .errors import DomainError, ModelError, SingularHessian
from .lagrangian import build as build_lagrangian
from .model import ModelDocument, load_model
from .report import ValidationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _parse_box_override(raw, base: ex.Box, path="--box") -> ex.Box:
    ranges = dict(base.ranges)
    default = base.default
    for item in raw or []:
        if "=" in item:
            name, _, span = item.partition("=")
            parts = span.split(",")
            if len(parts) != 2:
                raise ModelError(path, f"expected NAME=lo,hi, got {item!r}")
            ranges[name.strip()] = (float(parts[0]), float(parts[1]))
        else:
            parts = item.split(",")
            if len(parts) != 2:
                raise ModelError(path, f"expected lo,hi, got {item!r}")
            default = (float(parts[0]), float(parts[1]))
    return ex.Box(default=default, ranges=ranges)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _settings(model: ModelDocument, args):
    box = _parse_box_override(args.box, model.box)
    seed = model.seed if args.seed is None else args.seed
    trials = model.trials if args.trials is None else args.trials
    tol = model.tol if args.tol is None else args.tol
    return box, trials, tol, seed


def _lagrangian_data(model: ModelDocument, box, trials, tol, seed, strict):
    if model.lagrangian is None:
        raise ModelError("L", "this command needs a Lagrangian in the model")
    return build_lagrangian(model.lagrangian, model.chart, box=box, trials=trials,
                            tol=tol, seed=seed, params=model.params, strict=strict)


def cmd_validate(model: ModelDocument, args) -> int:
    box, trials, tol, seed = _settings(model, args)
    reports = [model.chart.validate_structure(box=box, trials=trials, tol=tol, seed=seed)]
    notes = []
    if model.lagrangian is not None:
        try:
            data = _lagrangian_data(model, box, trials, tol, seed, strict=args.strict)
            notes.append({"check": "hessian-regularity",
                          "status": "pass" if data.regular else "fail",
                          "witness": data.singular_witness, "seed": seed})
        except SingularHessian as err:
            notes.append({"check": "hessian-regularity", "status": "fail",
                          "witness": err.witness, "seed": seed})
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


def _bivector(model: ModelDocument, box, trials, tol, seed, strict):
    if strict:
        structure = model.chart.validate_structure(box=box, trials=trials, tol=tol, seed=seed)
        if not structure.passed:
            raise ModelError("rho/C", "structure equations fail "
                                      f"(max residual {structure.max_residual:.3e})")
    data = _lagrangian_data(model, box, trials, tol, seed, strict)
    theta = twoform.ThetaSection(model.theta) if model.theta is not None else None
    if strict and theta is not None:
        closed = theta.check_closed(box=box, trials=trials, tol=tol, seed=seed)
        if not closed.passed:
            raise ModelError("Theta", "the 2-section is not closed "
                                      f"(max residual {closed.max_residual:.3e})")
    n_matrix = twoform.assemble_N(data, model.chart, theta)
    return data, poisson.build_bracket(model.chart, data, n_matrix)


def cmd_bracket(model: ModelDocument, args) -> int:
    box, trials, tol, seed = _settings(model, args)
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


def cmd_hamiltonian(model: ModelDocument, args) -> int:
    box, trials, tol, seed = _settings(model, args)
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
    box, trials, tol, seed = _settings(model, args)
    which = args.which
    report: Optional[ValidationReport] = None
    if which == "jacobi":
        _, bivector = _bivector(model, box, trials, tol, seed, args.strict)
        report = poisson.check_jacobi(bivector, box=box, trials=trials, tol=tol, seed=seed)
    elif which in ("semispray", "spray"):
        data, bivector = _bivector(model, box, trials, tol, seed, args.strict)
        g = _hamiltonian_target(model, data, args)
        field = poisson.hamiltonian_field(bivector, g)
        if which == "semispray":
            report = poisson.is_semispray(model.chart, field, box=box, trials=trials,
                                          tol=tol, seed=seed)
        else:
            report = poisson.is_spray(field, box=box, trials=trials, tol=tol, seed=seed)
    elif which == "homotopy":
        ranks = tuple(range(1, min(model.chart.r, 3) + 1))
        report = homotopy.identity_suite(ranks=ranks, forms_per_case=args.forms,
                                         seed=seed, tol=tol, box=box)
    elif which == "prolongation":
        data = _lagrangian_data(model, box, trials, tol, seed, args.strict)
        report = prolongation.consistency_suite(data, model.theta, model.potential,
                                                box=box, trials=trials, tol=tol, seed=seed)
    _emit(report.to_dict())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_integrate(model: ModelDocument, args) -> int:
    box, trials, tol, seed = _settings(model, args)
    data, bivector = _bivector(model, box, trials, tol, seed, args.strict)
    g = _hamiltonian_target(model, data, args)
    field = poisson.hamiltonian_field(bivector, g)
    chart = model.chart
    values = [float(v) for v in args.p0.split(",")]
    if len(values) != chart.n + chart.r:
        raise ModelError("--p0", f"expected {chart.n + chart.r} comma-separated values")
    p0 = ex.ChartPoint(tuple(values[:chart.n]), tuple(values[chart.n:]))
    traj = dynamics.integrate(field, p0, T=args.T, h=args.h, method=args.method,
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
        p.add_argument("--trials", type=int, default=None, help="sample count (default 64)")
        p.add_argument("--tol", type=float, default=None, help="zero-test tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (default from model)")
        p.add_argument("--strict", action="store_true",
                       help="fail fast on singular Hessians and non-closed 2-sections")

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
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1e-3)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = load_model(args.model)
        return _COMMANDS[args.command](model, args)
    except ModelError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, SingularHessian, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT if isinstance(err, OSError) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
