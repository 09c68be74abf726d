"""JSON model documents: one chart plus the optional Lagrangian, closed
2-section, and basic potential.

Schema (all expression values are strings in the canonical grammar)::

    {
      "n": 2, "r": 2,
      "coords": ["x1", "x2"],          # optional, default x1..xn
      "fibers": ["y1", "y2"],          # optional, default y1..yr
      "params": {"a": 2.0},            # optional symbols with values
      "rho": [["0", "-1"],
              ["1", "0"]],             # n rows, r columns, entry [i][j]
      "C": {"3,1,2": "1"},             # keys "k,i,j", 1-based, i < j
      "L": "1/2*(y1^2 + y2^2)",        # optional
      "Theta": {"1,2": "1"},           # optional, keys "i,j", 1-based, i < j
      "f": "x1",                       # optional, base variables only
      "box": {"default": [-1, 1],
              "x1": [0.5, 2]},         # optional sampling domain
      "seed": 0,                       # optional
      "tolerances": {"tol": 1e-9, "trials": 64}   # optional
    }

Expressions round-trip bit-exactly: serializing with the canonical printer
and re-parsing reproduces the same trees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from . import expr as ex
from .algebroid import AForm, AlgebroidChart
from .errors import ModelError, UnknownSymbol
from .homotopy import TVAR


@dataclass
class ModelDocument:
    chart: AlgebroidChart
    lagrangian: Optional[ex.Expr]
    theta: Optional[AForm]
    potential: Optional[ex.Expr]
    params: dict
    box: ex.Box
    seed: int
    trials: int
    tol: float

    def settings(self, box_flags, trials, tol, seed):
        """The ``(box, trials, tol, seed)`` of a run: the document's values,
        each replaced by its command-line flag when one is given (not None).
        ``box_flags`` lists ``lo,hi`` and ``NAME=lo,hi`` strings."""
        entries = [(name.strip() or "default", span.split(","), "--box")
                   for name, _, span in (item.rpartition("=") for item in box_flags or ())]
        return (_box(self.box, entries, self.chart.alphabet),
                self.trials if trials is None else count(trials, "--trials"),
                self.tol if tol is None else positive(tol, "--tol"),
                self.seed if seed is None else seed)

    def to_dict(self) -> dict:
        chart = self.chart
        out = {
            "n": chart.n,
            "r": chart.r,
            "coords": list(chart.coords),
            "fibers": list(chart.fibers),
            "rho": [[ex.to_text(v) for v in row] for row in chart.rho],
            "C": {f"{k + 1},{i + 1},{j + 1}": ex.to_text(v)
                  for (k, i, j), v in sorted(chart.structure.items())},
        }
        if self.params:
            out["params"] = dict(self.params)
        if self.lagrangian is not None:
            out["L"] = ex.to_text(self.lagrangian)
        if self.theta is not None:
            out["Theta"] = {f"{i + 1},{j + 1}": ex.to_text(v)
                            for (i, j), v in sorted(self.theta.coeffs.items())}
        if self.potential is not None:
            out["f"] = ex.to_text(self.potential)
        out["box"] = {"default": list(self.box.default),
                      **{k: list(v) for k, v in self.box.ranges.items()}}
        out["seed"] = self.seed
        out["tolerances"] = {"tol": self.tol, "trials": self.trials}
        return out


def _require(condition, path, message):
    if not condition:
        raise ModelError(path, message)


def finite(value, path) -> float:
    """A finite float from a JSON number or a command-line string."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    _require(math.isfinite(number), path, f"must be a finite number, got {value!r}")
    return number


def positive(value, path) -> float:
    """A finite float above zero (``tol``, ``--T``, ``--h``)."""
    value = finite(value, path)
    _require(value > 0, path, "must be positive")
    return value


def count(value, path) -> int:
    """A whole number of at least 1 (``trials``, ``--forms``)."""
    value = finite(value, path)
    _require(value.is_integer() and value >= 1, path, "must be an integer of at least 1")
    return int(value)


def _box(base: ex.Box, entries, names) -> ex.Box:
    """``base`` with each ``(name, [lo, hi], path)`` entry applied; the name
    ``default`` sets the interval of every variable without its own."""
    default, ranges = base.default, dict(base.ranges)
    for name, pair, path in entries:
        _require(isinstance(pair, (list, tuple)) and len(pair) == 2, path, "must be [lo, hi]")
        lo, hi = finite(pair[0], path), finite(pair[1], path)
        _require(lo < hi, path, "must be [lo, hi] with lo < hi")
        if name == "default":
            default = (lo, hi)
        else:
            _require(name in names, path, f"{name!r} is not a declared variable")
            ranges[name] = (lo, hi)
    return ex.Box(default=default, ranges=ranges)


def _variable_name(name, path) -> None:
    """Refuse a name no expression can use: one that :func:`expr.parse` does not
    read back as exactly that variable, as it reads a whole name token that
    names no function."""
    try:
        token = ex._tokenize(name)[0] if isinstance(name, str) else None
    except SyntaxError:
        token = None
    ok = token is not None and (token.kind, token.text) == ("name", name) and name not in ex.FUNCTIONS
    _require(ok, path, f"must be a variable name, got {name!r}")


def _parse_field(src, alphabet, path) -> ex.Expr:
    _require(isinstance(src, str), path, f"expected an expression string, got {type(src).__name__}")
    try:
        return ex.parse(src, alphabet)
    except UnknownSymbol as err:
        raise ModelError(path, f"unknown symbol {err.name!r}") from None
    except SyntaxError as err:
        raise ModelError(path, f"syntax error: {err}") from None


def _base_only(value: ex.Expr, chart: AlgebroidChart, path):
    extra = ex.free_symbols(value) & set(chart.fibers)
    if extra:
        raise ModelError(path, f"must depend on base variables only, found {sorted(extra)[0]!r}")


def load_model(source) -> ModelDocument:
    """Build a validated model from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if not str(source).lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ModelError("$", f"invalid JSON: {err}") from None
    _require(isinstance(doc, dict), "$", "model document must be a JSON object")

    n = doc.get("n")
    r = doc.get("r")
    for key, value in (("n", n), ("r", r)):
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1, key,
                 "must be a positive integer")

    coords = doc.get("coords", [f"x{i + 1}" for i in range(n)])
    fibers = doc.get("fibers", [f"y{i + 1}" for i in range(r)])
    _require(isinstance(coords, list) and len(coords) == n, "coords", f"must list {n} names")
    _require(isinstance(fibers, list) and len(fibers) == r, "fibers", f"must list {r} names")
    params = doc.get("params", {})
    _require(isinstance(params, dict), "params", "must map names to numbers")
    for key, listed in (("coords", coords), ("fibers", fibers)):
        for i, name in enumerate(listed):
            _variable_name(name, f"{key}[{i}]")
    for key, value in params.items():
        _variable_name(key, f"params.{key}")
        _require(isinstance(value, (int, float)), f"params.{key}", "must be a number")
        finite(value, f"params.{key}")
    for key, listed in (("coords", coords), ("fibers", fibers), ("params", params)):
        _require(TVAR not in listed, key, f"{TVAR!r} is reserved for the fiber integrals")
    names = list(coords) + list(fibers) + list(params)
    _require(len(set(names)) == len(names), "coords", "variable names must be distinct")

    base_alphabet = frozenset((*coords, *params))
    full_alphabet = frozenset(names)

    rho_src = doc.get("rho")
    _require(isinstance(rho_src, list) and len(rho_src) == n, "rho", f"must be an {n}-row matrix")
    rho = []
    for i, row in enumerate(rho_src):
        _require(isinstance(row, list) and len(row) == r, f"rho[{i}]", f"must have {r} entries")
        rho.append([_parse_field(v, base_alphabet, f"rho[{i}][{j}]") for j, v in enumerate(row)])

    structure = {}
    c_src = doc.get("C", {})
    _require(isinstance(c_src, dict), "C", "must be an object keyed 'k,i,j'")
    for key, value in c_src.items():
        parts = key.split(",")
        _require(len(parts) == 3, f"C[{key!r}]", "key must be 'k,i,j'")
        try:
            k, i, j = (int(p) for p in parts)
        except ValueError:
            raise ModelError(f"C[{key!r}]", "indices must be integers") from None
        _require(1 <= k <= r, f"C[{key!r}]", f"k must be in 1..{r}")
        _require(1 <= i < j <= r, f"C[{key!r}]", "need 1 <= i < j <= r")
        structure[(k - 1, i - 1, j - 1)] = _parse_field(value, base_alphabet, f"C[{key!r}]")

    try:
        chart = AlgebroidChart(coords, fibers, rho, structure, params=tuple(params))
    except ValueError as err:
        raise ModelError("rho/C", str(err)) from None

    lagrangian = None
    if "L" in doc:
        lagrangian = _parse_field(doc["L"], full_alphabet, "L")

    theta = None
    if "Theta" in doc:
        theta_src = doc["Theta"]
        _require(isinstance(theta_src, dict), "Theta", "must be an object keyed 'i,j'")
        coeffs = {}
        for key, value in theta_src.items():
            parts = key.split(",")
            _require(len(parts) == 2, f"Theta[{key!r}]", "key must be 'i,j'")
            try:
                i, j = (int(p) for p in parts)
            except ValueError:
                raise ModelError(f"Theta[{key!r}]", "indices must be integers") from None
            _require(1 <= i < j <= r, f"Theta[{key!r}]", "need 1 <= i < j <= r")
            entry = _parse_field(value, full_alphabet, f"Theta[{key!r}]")
            _base_only(entry, chart, f"Theta[{key!r}]")
            coeffs[(i - 1, j - 1)] = entry
        theta = AForm(chart, 2, coeffs)

    potential = None
    if "f" in doc:
        potential = _parse_field(doc["f"], full_alphabet, "f")
        _base_only(potential, chart, "f")

    box_src = doc.get("box", {})
    _require(isinstance(box_src, dict), "box", "must be an object of [lo, hi] pairs")
    box = _box(ex.Box(), [(key, value, f"box.{key}") for key, value in box_src.items()],
               names)

    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "seed", "must be an integer")
    tolerances = doc.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances", "must be an object")
    tol = positive(tolerances.get("tol", 1e-9), "tolerances.tol")
    trials = count(tolerances.get("trials", 64), "tolerances.trials")

    params_f = {k: float(v) for k, v in params.items()}
    return ModelDocument(chart, lagrangian, theta, potential, params_f, box, seed, trials, tol)
