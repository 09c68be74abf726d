import copy
import io
import json
import math
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semispray import cli, errors, expr as ex, model
from semispray.errors import ModelError, StepCollapse
from semispray.model import load_model
from semispray.report import ZeroStatus

from helpers import point_env, reference_variable_name

SO3_DOC = {
    "n": 3, "r": 3,
    "rho": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
    "C": {"3,1,2": "1", "2,1,3": "-1", "1,2,3": "1"},
    "L": "1/2*(y1^2 + y2^2 + y3^2)",
    "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"},
    "f": "x1",
    "seed": 7,
}

TANGENT_DOC = {
    "n": 1, "r": 1,
    "rho": [["1"]],
    "L": "1/2*y1^2",
}

# Theta_{23} = x2 breaks closedness, so jacobi and validate fail.
SO3_NONCLOSED_DOC = dict(SO3_DOC, Theta={"1,2": "x3", "1,3": "-x2", "2,3": "x2"})

TANGENT5_DOC = {
    "n": 5, "r": 5,
    "rho": [["1" if i == j else "0" for j in range(5)] for i in range(5)],
    "L": "1/2*(y1^2 + y2^2 + y3^2 + y4^2 + y5^2)",
}

#: A curved metric of rank 5, above the rank of the symbolic inverse.
CURVED5_DOC = {**TANGENT5_DOC,
               "L": "1/2*(" + " + ".join(f"(1 + x{i}^2)*y{i}^2" for i in range(1, 6)) + ")"}

#: The identity anchor on the plane: no expression names a variable.
PLANE_DOC = {"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]]}

COTANGENT_DOC = {
    "n": 2, "r": 2,
    "fibers": ["p1", "p2"],
    "rho": [["0", "-1"], ["1", "0"]],
    "L": "1/2*(p1^2 + p2^2)",
    "Theta": {"1,2": "1"},
}


@pytest.fixture()
def so3_path(tmp_path):
    path = tmp_path / "so3.json"
    path.write_text(json.dumps(SO3_DOC))
    return str(path)


@pytest.fixture()
def tangent_path(tmp_path):
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps(TANGENT_DOC))
    return str(path)


def run_cli(argv):
    stream = io.StringIO()
    with redirect_stdout(stream):
        code = cli.main(argv)
    return code, stream.getvalue()


class TestModelLoading:
    def test_roundtrip_through_canonical_printer(self):
        model = load_model(SO3_DOC)
        reparsed = load_model(model.to_dict())
        assert reparsed.chart.rho == model.chart.rho
        assert reparsed.chart.structure == model.chart.structure
        assert reparsed.lagrangian == model.lagrangian
        assert reparsed.theta.coeffs == model.theta.coeffs
        assert reparsed.potential == model.potential

    def test_undeclared_symbol_names_field_and_symbol(self):
        doc = dict(TANGENT_DOC)
        doc["L"] = "1/2*w^2"
        with pytest.raises(ModelError) as err:
            load_model(doc)
        assert "L" in str(err.value) and "'w'" in str(err.value)

    def test_rho_position_in_error_path(self):
        doc = {"n": 2, "r": 2, "rho": [["1", "0"], ["0", "qq"]]}
        with pytest.raises(ModelError) as err:
            load_model(doc)
        assert "rho[1][1]" in str(err.value) and "'qq'" in str(err.value)

    def test_structure_key_validation(self):
        doc = dict(TANGENT_DOC)
        doc["C"] = {"1,1,1": "0"}
        with pytest.raises(ModelError):
            load_model(doc)

    def test_potential_must_be_basic(self):
        doc = dict(TANGENT_DOC)
        doc["f"] = "y1"
        with pytest.raises(ModelError) as err:
            load_model(doc)
        assert "base variables" in str(err.value)

    def test_defaults(self):
        model = load_model(TANGENT_DOC)
        assert model.chart.coords == ("x1",)
        assert model.seed == 0 and model.trials == 64 and model.tol == 1e-9

    def test_params_join_the_alphabet(self):
        doc = dict(TANGENT_DOC)
        doc["params"] = {"mass": 2.0}
        doc["L"] = "mass/2*y1^2"
        model = load_model(doc)
        assert "mass" in ex.free_symbols(model.lagrangian)

    def test_fields_parse_over_two_frozen_alphabets(self, monkeypatch):
        alphabets = []
        parse = ex.parse
        monkeypatch.setattr(ex, "parse", lambda src, names: alphabets.append(names)
                            or parse(src, names))
        load_model(dict(SO3_DOC, params={"mass": 2.0}))
        fields = [a for a in alphabets if len(a) > 1]  # not the one-name checks of each name
        assert {type(a) for a in fields} == {frozenset}
        assert len({id(a) for a in fields}) == 2
        assert {"x1", "x2", "x3", "mass"} in fields
        assert {"x1", "x2", "x3", "y1", "y2", "y3", "mass"} in fields


class TestCliCommands:
    def test_validate_passes(self, so3_path):
        code, out = run_cli(["validate", so3_path])
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "pass"
        assert payload["seed"] == 7

    def test_validate_tangent_fixture(self, tangent_path):
        code, out = run_cli(["validate", tangent_path])
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_cotangent_semispray_check(self, tmp_path):
        path = tmp_path / "cotangent.json"
        path.write_text(json.dumps(COTANGENT_DOC))
        code, out = run_cli(["check", "semispray", str(path)])
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_validate_catches_broken_structure(self, tmp_path):
        doc = dict(SO3_DOC)
        doc["C"] = dict(doc["C"])
        doc["C"]["3,1,2"] = "1.1"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(path)])
        payload = json.loads(out)
        assert code == 1 and payload["status"] == "fail"
        assert "witness" in payload

    def test_degenerate_hessian_fails_validation(self, tmp_path, capsys):
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "rho": [["1"]], "L": "1/3*y1^3"}))
        code, out = run_cli(["validate", str(path)])
        payload = json.loads(out)
        hessian = next(r for r in payload["reports"] if r["check"] == "hessian-regularity")
        assert code == 1 and payload["status"] == "fail"
        assert hessian == {"check": "hessian-regularity", "seed": 0, "status": "fail",
                           "witness": {"y1": 0.0}}
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text,argv,pattern", [
        ('{"n": 1, "r": 1, "rho": [["1"]]}', ["bracket"],
         r"L: this command needs a Lagrangian in the model"),
        ('{"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]], "C": {"1,a,2": "1"}}',
         ["validate"], r"C\['1,a,2'\]: indices must be integers"),
        ('{"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]], "Theta": {"1,b": "1"}}',
         ["validate"], r"Theta\['1,b'\]: indices must be integers"),
        ('{"n": 1, ', ["validate"], r"\$: invalid JSON: [^\n]+"),
    ], ids=["no-lagrangian", "structure-index", "theta-index", "truncated-json"])
    def test_model_errors_name_their_source(self, tmp_path, text, argv, pattern, capsys):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out = run_cli(argv + [str(path)])
        stderr = capsys.readouterr().err
        assert code == 2 and out == ""
        assert re.fullmatch(f"input error: {pattern}\n", stderr), stderr
        assert "Traceback" not in stderr

    def test_input_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "rho": [["nope"]]}))
        code, _ = run_cli(["validate", str(path)])
        assert code == 2

    def test_superscript_digit_is_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "superscript.json"
        path.write_text(json.dumps(dict(TANGENT_DOC, L="1/2*y1^²")))
        code, out = run_cli(["validate", str(path)])
        stderr = capsys.readouterr().err
        assert code == 2 and out == ""
        assert stderr.startswith("input error: L: syntax error: at offset 7: ")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("which,flag,value", [
        ("jacobi", "--trials", "0"), ("jacobi", "--trials", "-3"),
        ("jacobi", "--tol", "0"), ("jacobi", "--tol", "-1"),
        ("homotopy", "--forms", "0"), ("homotopy", "--forms", "-3"),
    ], ids=["--trials-0", "--trials--3", "--tol-0", "--tol--1", "homotopy---forms-0",
            "homotopy---forms--3"])
    def test_out_of_range_settings_are_input_errors(self, so3_path, which, flag, value, capsys):
        code, out = run_cli(["check", which, so3_path, flag, value])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"input error: {flag}: ")

    @pytest.mark.parametrize("doc,flags,source", [
        (SO3_NONCLOSED_DOC, ["--tol", "nan"], "--tol"),
        (SO3_NONCLOSED_DOC, ["--tol", "inf"], "--tol"),
        (dict(SO3_DOC, box={"x1": [2, 1]}), [], "box.x1"),
        (dict(SO3_DOC, box={"x1": ["a", 1]}), [], "box.x1"),
        (dict(SO3_DOC, box={"default": ["a", 1]}), [], "box.default"),
        (dict(SO3_DOC, tolerances={"tol": "abc"}), [], "tolerances.tol"),
        (SO3_DOC, ["--box", "1,0"], "--box"),
        (SO3_DOC, ["--box", "x1=a,b"], "--box"),
        (SO3_DOC, ["--box", "nan,1"], "--box"),
        (SO3_DOC, ["--box", "zz=0,1"], "--box"),
    ], ids=["tol-nan", "tol-inf", "box-empty", "box-text", "default-text", "tol-text",
            "flag-empty", "flag-text", "flag-nan", "flag-undeclared"])
    def test_bad_sampling_settings_are_input_errors(self, tmp_path, doc, flags, source, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["check", "jacobi", str(path), *flags])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"input error: {source}: ")

    @pytest.mark.parametrize("entries,argv,source", [
        ('"n": true, "r": 1, "L": "1/2*y1^2"', ["validate"], "n"),
        ('"n": 1, "r": true, "L": "1/2*y1^2"', ["validate"], "r"),
        ('"n": 1, "r": 1, "L": "1/2*y1^2", "seed": true', ["check", "jacobi"], "seed"),
        ('"n": 1, "r": 1, "params": {"a": true}, "L": "1/2*y1^2 + a*x1"', ["validate"],
         "params.a"),
        # json reads 1e999 as inf.
        ('"n": 1, "r": 1, "params": {"a": 1e999}, "L": "1/2*y1^2 + a*x1"', ["validate"],
         "params.a"),
        ('"n": 1, "r": 1, "params": {"a": 1e999}, "L": "1/2*y1^2 + a*x1"',
         ["integrate", "--p0", "0,1", "--format", "json"], "params.a"),
    ], ids=["n-bool", "r-bool", "seed-bool", "param-bool", "param-inf-validate",
            "param-inf-integrate"])
    def test_booleans_and_non_finite_numbers_are_input_errors(self, tmp_path, entries, argv,
                                                             source, capsys):
        path = tmp_path / "model.json"
        path.write_text('{%s, "rho": [["1"]]}' % entries)
        at = 2 if argv[0] == "check" else 1
        code, out = run_cli(argv[:at] + [str(path)] + argv[at:])
        stderr = capsys.readouterr().err
        assert code == 2 and out == ""
        assert stderr.startswith(f"input error: {source}: ")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("field", ["coords", "fibers", "params"])
    def test_fiber_integral_parameter_is_a_reserved_name(self, tmp_path, field, capsys):
        # homotopy.TVAR free in a coefficient marks it as a fiber integral, so
        # no chart variable may carry that name.
        from semispray.homotopy import TVAR

        doc = dict(TANGENT_DOC, **{field: {TVAR: 1} if field == "params" else [TVAR]})
        path = tmp_path / "reserved.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(path)])
        stderr = capsys.readouterr().err
        assert code == 2 and out == ""
        assert stderr.startswith(f"input error: {field}: {TVAR!r} is reserved")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("entries,source", [
        ({"coords": [["a"], "x2"]}, "coords[0]"),
        ({"coords": [{"a": 1}, "x2"]}, "coords[0]"),
        ({"coords": [1, "x2"]}, "coords[0]"),
        ({"fibers": [None, "y2"]}, "fibers[0]"),
        ({"coords": ["sin", "x2"]}, "coords[0]"),
        ({"params": {"1a": 2}}, "params.1a"),
    ], ids=["list", "object", "number", "null", "function-name", "leading-digit"])
    def test_names_no_expression_can_use_are_input_errors(self, tmp_path, entries, source,
                                                          capsys):
        # A name must parse back as exactly its own variable; anything else
        # could never appear in an expression of the model.
        path = tmp_path / "names.json"
        path.write_text(json.dumps(dict(PLANE_DOC, **entries)))
        code, out = run_cli(["validate", str(path)])
        stderr = capsys.readouterr().err
        assert code == 2 and out == ""
        assert stderr.startswith(f"input error: {source}: must be a variable name, got ")
        assert "Traceback" not in stderr

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(), st.from_regex(r"[A-Za-z_\u00c0-\u00ff][\w\u0660-\u0669]*", fullmatch=True),
        st.sampled_from(ex.FUNCTIONS + ("x1 ", " x1", "x1+x2", "sinx", "(x1)", "1e5", "x.1"))))
    @example(None)
    def test_names_are_checked_as_the_parser_reads_them(self, name):
        # One name token as the whole string, not a function's name: what
        # the parser reads back as exactly that variable.
        try:
            model._variable_name(name, "coords[0]")
            accepted = True
        except ModelError:
            accepted = False
        assert accepted == reference_variable_name(name)

    @pytest.mark.parametrize("argv,expected_code", [
        (["bracket"], 2), (["hamiltonian"], 2),
        # The flow solves with the Hessian pointwise and needs no inverse.
        (["integrate", "--p0", "0,0,0,0,0,1,1,1,1,1", "--T", "0.01", "--h", "1e-3"], 0),
        # These decide their residuals from the factored field, with no inverse.
        (["check", "jacobi"], 0), (["check", "semispray"], 0), (["check", "spray"], 0),
        (["check", "prolongation"], 0),
        # These two never build the bracket, so the rank check leaves them alone.
        (["validate"], 0), (["check", "homotopy", "--forms", "1"], 0),
    ])
    def test_rank_above_symbolic_inverse(self, tmp_path, argv, expected_code, capsys):
        path = tmp_path / "tangent5.json"
        path.write_text(json.dumps(TANGENT5_DOC))
        at = 2 if argv[0] == "check" else 1
        code, out = run_cli(argv[:at] + [str(path)] + argv[at:])
        assert code == expected_code
        if expected_code == 2:
            assert out == ""
            assert capsys.readouterr().err.startswith("input error: r: ")

    def test_rank_five_curved_metric_is_a_semispray_and_a_spray(self, tmp_path):
        # Above the rank of the symbolic inverse: dG/dy = M y proves every
        # base item, and the fiber items of the spray are 0 mod p.
        path = tmp_path / "curved5.json"
        path.write_text(json.dumps(CURVED5_DOC))
        code, out = run_cli(["check", "semispray", str(path)])
        payload = json.loads(out)
        assert code == 0 and len(payload["items"]) == 5
        assert {item["status"] for item in payload["items"]} == {"proven-zero"}
        code, out = run_cli(["check", "spray", str(path)])
        items = json.loads(out)["items"]
        assert code == 0 and len(items) == 10
        assert [item["status"] for item in items[:5]] == ["proven-zero"] * 5
        assert {(item["status"], item.get("method")) for item in items[5:]} == {
            ("likely-zero", "modular")}

    def test_rank_five_curved_metric_passes_jacobi(self, tmp_path):
        # Above the rank of the symbolic inverse: the zero pattern of the
        # solves leaves no term in any of the C(10, 3) triples.
        path = tmp_path / "curved5.json"
        path.write_text(json.dumps(CURVED5_DOC))
        code, out = run_cli(["check", "jacobi", str(path)])
        items = json.loads(out)["items"]
        assert code == 0 and len(items) == 120
        assert {(item["status"], item["trials"]) for item in items} == {("proven-zero", 0)}

    def test_rank_five_curved_metric_passes_prolongation(self, tmp_path):
        # Above the rank of the symbolic inverse: every item is proven from
        # the construction, with no solve and no sample.
        path = tmp_path / "curved5.json"
        path.write_text(json.dumps(CURVED5_DOC))
        code, out = run_cli(["check", "prolongation", str(path)])
        items = json.loads(out)["items"]
        assert code == 0 and len(items) == 5 + 2 * 25 + 10
        assert {(item["status"], item["trials"]) for item in items} == {("proven-zero", 0)}

    def test_jacobi_with_no_triple_passes(self, tmp_path, capsys):
        # Two coordinates have no triple, also when the bracket holds a
        # quotient: the report is empty and passes.
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "rho": [["1"]],
                                    "L": "1/2*(1+x1^2)*y1^2"}))
        code, out = run_cli(["check", "jacobi", str(path)])
        assert (code, json.loads(out)["items"], json.loads(out)["status"]) == (0, [], "pass")
        assert capsys.readouterr().err == ""

    def test_rank_five_flow_is_free_motion(self, tmp_path):
        path = tmp_path / "tangent5.json"
        path.write_text(json.dumps(TANGENT5_DOC))
        code, out = run_cli(["integrate", str(path), "--p0", "0,0,0,0,0,1,2,3,4,5",
                             "--T", "0.5", "--h", "1e-2", "--format", "json"])
        payload = json.loads(out)
        assert code == 0 and len(payload["trajectory"]["times"]) == 51
        final = payload["trajectory"]["states"][-1]
        assert final["x"] == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5], rel=1e-12)
        assert final["y"] == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_zero_leading_hessian_entry_integrates(self, tmp_path, method):
        # M = [[x2, 1], [1, 0]] is regular, with M_11 = 0 at the start point.
        path = tmp_path / "swap.json"
        path.write_text(json.dumps({**PLANE_DOC, "L": "y1*y2 + 1/2*x2*y1^2", "f": "x1^2"}))
        code, out = run_cli(["integrate", str(path), "--p0", "0.3,0,0.5,-0.2",
                             "--T", "1", "--h", "1e-2", "--method", method, "--format", "json"])
        assert code == 0 and json.loads(out)["max_drift"] < 1e-8

    @pytest.mark.parametrize("flag,value", [
        ("--p0", "a,b,c,d,e,f"), ("--T", "0"), ("--h", "-1"), ("--T", "inf"),
        ("--T", "nan"), ("--h", "nan")])
    def test_bad_flow_flags_are_input_errors(self, so3_path, flag, value, capsys):
        code, out = run_cli(["integrate", so3_path, "--p0", "0,0,1,1,0,0", flag, value])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"input error: {flag}: ")

    def test_infinite_rk4_step_count_is_an_input_error(self, tangent_path, capsys):
        code, out = run_cli(["integrate", tangent_path, "--p0", "0,1",
                             "--T", "1e308", "--h", "1e-3"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("input error: --h: ")

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_identically_singular_hessian_fails_prolongation(self, tmp_path, strict, capsys):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "rho": [["1"]], "L": "x1*y1"}))
        code, out = run_cli(["check", "prolongation", str(path), *strict])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: fiber Hessian is singular at {'detM': 0.0}\n"

    def test_bracket_emits_parseable_matrices(self, so3_path):
        code, out = run_cli(["bracket", so3_path])
        payload = json.loads(out)
        assert code == 0
        model = load_model(SO3_DOC)
        for row in payload["pxy"] + payload["pyy"]:
            for entry in row:
                model.chart.parse(entry)

    def test_hamiltonian_field_semispray_shape(self, so3_path):
        code, out = run_cli(["hamiltonian", so3_path])
        payload = json.loads(out)
        assert code == 0
        model = load_model(SO3_DOC)
        fibers = [ex.Var(nm) for nm in model.chart.fibers]
        for i in range(3):
            got = model.chart.parse(payload["vx"][i])
            expected = ex.eadd(*(ex.emul(fibers[j], model.chart.rho[i][j]) for j in range(3)))
            assert got == expected

    @pytest.mark.parametrize("which,expected_code", [
        ("jacobi", 0), ("semispray", 0), ("prolongation", 0), ("spray", 1)])
    def test_named_suites(self, so3_path, which, expected_code):
        code, out = run_cli(["check", which, so3_path])
        payload = json.loads(out)
        assert code == expected_code
        assert payload["status"] == ("pass" if expected_code == 0 else "fail")
        assert "residual_max" in payload and "seed" in payload

    def test_spray_needs_untwisted_energy(self, tmp_path):
        # The homogeneity statement holds only with no twist and no potential.
        doc = {k: v for k, v in SO3_DOC.items() if k not in ("Theta", "f")}
        path = tmp_path / "metric_only.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["check", "spray", str(path)])
        assert code == 0

    def test_prolongation_energy_only_drops_the_potential(self, tmp_path):
        path = tmp_path / "tangent_potential.json"
        path.write_text(json.dumps({**TANGENT_DOC, "f": "x1^2"}))
        labels = {}
        for flags in ([], ["--energy-only"]):
            code, out = run_cli(["check", "prolongation", str(path), *flags])
            assert code == 0
            labels[bool(flags)] = [item["label"] for item in json.loads(out)["items"]]
        assert labels[False][-2:] == ["corrected-section anchor d/dx1",
                                      "corrected-section anchor d/dy1"]
        assert labels[True][-2:] == ["energy-section anchor d/dx1",
                                     "energy-section anchor d/dy1"]

    def test_homotopy_suite(self, tangent_path):
        code, out = run_cli(["check", "homotopy", tangent_path, "--forms", "3"])
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "pass"

    def test_determinism_byte_identical(self, so3_path):
        first = run_cli(["check", "jacobi", so3_path])
        second = run_cli(["check", "jacobi", so3_path])
        assert first == second

    def test_determinism_across_processes(self, so3_path):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "semispray", "check", "semispray", so3_path]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_seed_override_recorded(self, so3_path):
        code, out = run_cli(["check", "jacobi", so3_path, "--seed", "99"])
        assert json.loads(out)["seed"] == 99

    def test_integrate_csv(self, tangent_path):
        code, out = run_cli(["integrate", tangent_path, "--p0", "0,1",
                             "--T", "0.01", "--h", "0.001"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "t,x1,y1,drift"
        assert len(lines) == 12

    def test_integrate_json(self, tangent_path):
        code, out = run_cli(["integrate", tangent_path, "--p0", "0,1",
                             "--T", "0.01", "--h", "0.001", "--format", "json"])
        payload = json.loads(out)
        assert code == 0 and payload["max_drift"] < 1e-12

    @pytest.mark.parametrize("method,message", [
        ("rk4", "error: state norm 5.579e+10 exceeded bound at t=0.76\n"),
        ("rk45", "error: state norm 1.027e+06 exceeded bound at t=0.752261\n"),
    ], ids=["rk4", "rk45"])
    def test_integrate_blowup_is_a_failure(self, tmp_path, method, message, capsys):
        # x'' = 4 x^3 leaves every bound in finite time (t ~ 0.75 from x = 1);
        # the message pins the step that stops and the norm it reports.
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "rho": [["1"]], "L": "1/2*y1^2",
                                    "f": "-x1^4"}))
        code, out = run_cli(["integrate", str(path), "--p0", "1,1", "--T", "10",
                             "--h", "1e-2", "--method", method])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_integrate_non_finite_state_is_a_blowup(self, tmp_path, method):
        # a*b folds to the constant inf, and inf*x1 is nan at x1 = 0.  A nan
        # error estimate must not make rk45 retry forever: run it with a timeout.
        import subprocess
        import sys

        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "params": {"a": 1e200, "b": 1e200},
                                    "rho": [["1"]], "L": "1/2*y1^2 - a*b*x1^2"}))
        done = subprocess.run([sys.executable, "-m", "semispray", "integrate", str(path),
                               "--p0", "0,1", "--method", method],
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: state norm ")

    def test_integrate_step_collapse_is_a_failure(self, tangent_path, monkeypatch, capsys):
        def collapse(*args, **kwargs):
            raise StepCollapse(0.5, 1e-15)

        monkeypatch.setattr(cli.dynamics, "integrate", collapse)
        code, out = run_cli(["integrate", tangent_path, "--p0", "0,1", "--method", "rk45"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "error: adaptive step collapsed to 1.000e-15 at t=0.5; the field may be singular\n")

    def test_integrate_dimension_mismatch(self, tangent_path):
        code, _ = run_cli(["integrate", tangent_path, "--p0", "0,1,2",
                           "--T", "0.01", "--h", "0.001"])
        assert code == 2

    def test_box_override(self, so3_path):
        code, out = run_cli(["validate", so3_path, "--box", "0.5,2",
                             "--box", "x1=-3,-1"])
        assert code == 0

    def test_parser_is_built_once_and_keeps_no_state(self, so3_path):
        argv = ["check", "semispray", so3_path, "--box", "0.5,2", "--box", "x1=-3,-1"]
        assert run_cli(argv) == run_cli(argv)
        assert cli._parser() is cli._parser()
        # ``--box`` appends: each parse starts from a fresh list.
        boxes = [cli._parser().parse_args(argv).box for _ in range(2)]
        assert boxes[0] == boxes[1] == ["0.5,2", "x1=-3,-1"] and boxes[0] is not boxes[1]
        assert cli._parser().parse_args(argv[:3]).box is None

    def test_strict_closedness_gate(self, tmp_path):
        doc = dict(SO3_DOC)
        doc["Theta"] = {"1,2": "x1^2"}
        path = tmp_path / "open_theta.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["check", "jacobi", str(path), "--strict"])
        assert code == 2

    def test_strict_structure_gate(self, tmp_path):
        doc = dict(SO3_DOC)
        doc["C"] = dict(doc["C"])
        doc["C"]["3,1,2"] = "1.1"
        path = tmp_path / "broken_structure.json"
        path.write_text(json.dumps(doc))
        # Advisory by default: the bracket is still constructed...
        code, _ = run_cli(["bracket", str(path)])
        assert code == 0
        # ...but strict mode refuses the inconsistent chart.
        code, _ = run_cli(["bracket", str(path), "--strict"])
        assert code == 2

    def test_point_evaluation_helper(self):
        model = load_model(TANGENT_DOC)
        env = point_env(ex.ChartPoint((0.0,), (2.0,)), model.chart)
        value = ex.evaluate(model.lagrangian, env)
        assert value == 2.0


#: One instance of every class in ``semispray.errors`` (and ``OSError``),
#: with the exit code the command line must give it.
ERROR_CASES = [
    (errors.ModelError("L", "must be a string"), 2),
    (errors.UnknownSymbol("z9", "L"), 2),
    (errors.InvalidFixtureParam("tangent fixture needs n >= 1"), 2),
    (FileNotFoundError(2, "No such file or directory", "model.json"), 2),
    (errors.SingularHessian({"detM": 0.0}), 1),
    (errors.DegenerateForm({"det": 0.0}), 1),
    (errors.DomainError("every sampled point was singular"), 1),
    (errors.QuadratureFailure("maximum refinement depth reached on [0.0, 6e-08]"), 1),
    (errors.NotClosed("d(omega) has nonzero coefficient at (0, 1, 2)"), 1),
    (errors.NotVerticalVanishing("vertical-vertical block (1,2) is nonzero"), 1),
    (errors.DegreeError("forms are supported up to degree 4"), 1),
    (errors.BlowUp(0.75, 1.5e6), 1),
    (errors.StepCollapse(0.5, 1e-15), 1),
]


def test_error_cases_cover_every_error_class():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert classes <= {type(err) for err, _ in ERROR_CASES}


@pytest.mark.parametrize("err,expected", ERROR_CASES,
                         ids=[type(err).__name__ for err, _ in ERROR_CASES])
def test_every_error_reaches_the_user_as_a_message(tangent_path, monkeypatch, capsys,
                                                   err, expected):
    def fail(model, args):
        raise err

    monkeypatch.setitem(cli._COMMANDS, "validate", fail)
    code, out = run_cli(["validate", tangent_path])
    prefix = "input error" if expected == 2 else "error"
    stderr = capsys.readouterr().err
    assert code == expected and out == ""
    assert stderr == f"{prefix}: {err}\n" and "Traceback" not in stderr


#: The five commands of the out-of-range constant repro, with the flags they need.
HUGE_CONSTANT_COMMANDS = {
    "validate": ["validate"],
    "bracket": ["bracket"],
    "check_jacobi": ["check", "jacobi"],
    "check_prolongation": ["check", "prolongation"],
    "integrate": ["integrate", "--p0", "0.1,0.2", "--T", "0.01", "--h", "0.01"],
}


@pytest.mark.parametrize("command", HUGE_CONSTANT_COMMANDS)
@pytest.mark.parametrize("constant", ["1e400", "10^400", "sqrt(10^800)"])
def test_constant_beyond_float_range(tmp_path, capsys, constant, command):
    # The fiber-linear term is exact in one dimension, so it cancels from the
    # bracket and the field; the potential f carries the constant into the
    # integrated field, which must turn it into a float.  ``sqrt(10^800)``
    # must fold to 10^400 by an exact integer root; a float estimate of the
    # root overflows.
    doc = {"n": 1, "r": 1, "rho": [["1"]], "L": f"1/2*y1^2 + {constant}*x1^2*y1",
           "f": f"{constant}*x1"}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = list(HUGE_CONSTANT_COMMANDS[command])
    argv.insert(2 if argv[0] == "check" else 1, str(path))
    code, out = run_cli(argv)
    stderr = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in stderr
    if command == "bracket":
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({**doc, "L": "1/2*y1^2", "f": "x1"}))
        assert (code, out) == run_cli(["bracket", str(plain)])
    if command == "integrate":
        assert code == 1 and out == ""
        assert stderr.startswith("error: ") and "out of float range" in stderr


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _report_values(floats):
    """Report-shaped JSON: string keys; leaves of every type a report holds,
    among them ``ZeroStatus`` (a ``str`` subclass), non-ASCII and control
    characters and ints past 64 bits; lists, tuples and empty containers."""
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200),
                       floats, st.text(), st.sampled_from(list(ZeroStatus)),
                       st.sampled_from(["\u00e9\u2028\U0001f600", "\x00\x1f\x7f\"\\/"]))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=30)


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 2.2250738585072e-308, 1e308, -1e308]))


def _emitted(payload) -> str:
    stream = io.StringIO()
    with redirect_stdout(stream):
        cli._emit(payload)
    return stream.getvalue()


@settings(max_examples=300, deadline=None)
@given(_report_values(_FINITE))
def test_reports_are_written_as_json_dumps_writes_them(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2, sort_keys=True,
                                           allow_nan=False) + "\n"


def _json_safe(value):
    """Every non-finite float as its ``repr``, the string ``"inf"``,
    ``"-inf"`` or ``"nan"``: JSON has no token for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@settings(max_examples=200, deadline=None)
@given(_report_values(st.one_of(_FINITE, st.sampled_from([math.inf, -math.inf, math.nan]))))
def test_non_finite_floats_are_written_as_strings(payload):
    assert _emitted(payload) == json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
    assert _emitted({"x": [1.5, math.inf, (math.nan, -math.inf)]}) == \
        '{\n  "x": [\n    1.5,\n    "inf",\n    [\n      "nan",\n      "-inf"\n    ]\n  ]\n}\n'


@pytest.mark.parametrize("seed", ["0", "2", "6"])
def test_overflowed_residual_prints_as_json(tmp_path, seed):
    # 10^308*exp(x3) overflows to inf in a product without raising, so the
    # failing report carries an infinite residual; JSON has no token for it.
    doc = {"n": 3, "r": 3, "rho": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
           "L": "1/2*(y1^2 + y2^2 + y3^2)", "Theta": {"1,2": "10^308*exp(x3)"}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path), "--seed", seed])
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 1 and payload["status"] == "fail"
    assert payload["residual_max"] == "inf"


#: Text nested ``k`` levels deep in each form the parser counts.
NESTED = {"parens": lambda k: "(" * k + "x1" + ")" * k,
          "minus": lambda k: "-" * k + "x1",
          "sin": lambda k: "sin(" * k + "x1" + ")" * k,
          "power": lambda k: "x1" + "^1" * k}


def _nested_model(tmp_path, form, depth):
    deep = NESTED[form](depth)
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"n": 1, "r": 1, "rho": [["1"]],
                                "L": f"1/2*y1^2 + {deep}*y1"}))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "hamiltonian", "check prolongation"])
@pytest.mark.parametrize("form", NESTED)
def test_nesting_at_the_limit_runs(tmp_path, capsys, form, command):
    # Each runs in under a second.  ``check prolongation`` differentiates
    # only along the nonzero entries of the prolonged anchor, so the deep
    # coefficient of y1 is never differentiated along a fiber and sorted.
    path = _nested_model(tmp_path, form, ex.MAX_NESTING)
    start = time.perf_counter()
    code, out = run_cli([*command.split(), path])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert capsys.readouterr().err == ""
    assert elapsed < 1.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("form", NESTED)
def test_nesting_past_the_limit_is_an_input_error(tmp_path, capsys, form):
    code, out = run_cli(["validate", _nested_model(tmp_path, form, ex.MAX_NESTING + 1)])
    stderr = capsys.readouterr().err
    assert code == 2 and out == ""
    assert stderr.startswith("input error: L: syntax error: at offset ")
    assert stderr.endswith(f"expected at most {ex.MAX_NESTING} levels of nesting\n")


#: A valid model of rank 2 that ``validate`` passes; every perturbation of
#: :func:`perturbed_models` starts from it.
FUZZ_DOC = {"n": 2, "r": 2, "coords": ["x1", "x2"], "fibers": ["y1", "y2"], "params": {"a": 1},
            "rho": [["0", "-1"], ["1", "0"]], "L": "1/2*(y1^2 + y2^2) + a*x1",
            "Theta": {"1,2": "1"}, "box": {"default": [-1, 1]}, "seed": 0,
            "tolerances": {"tol": 1e-9, "trials": 8}}

_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                         st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
                         st.lists(st.integers(0, 2), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))
_NAMES = st.one_of(_JSON_VALUES, st.sampled_from(["sin", "1a", "x 1", "", "x1", "y2", "a"]))
_NUMBERS = st.one_of(st.booleans(), st.integers(-2, 4), st.floats(-2, 2),
                     st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def perturbed_models(draw):
    """``FUZZ_DOC`` with one to three fields replaced: a name of any JSON
    type, a list of the wrong length, text nested up to twice the parser's
    limit, or a boolean or non-finite number."""
    doc = copy.deepcopy(FUZZ_DOC)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["name", "length", "text", "number"]))
        if kind == "name":
            field, name = draw(st.sampled_from(["coords", "fibers", "params"])), draw(_NAMES)
            if field == "params":  # a JSON object key is a string
                doc[field] = {name if isinstance(name, str) else json.dumps(name): 1}
            else:
                doc[field] = draw(st.permutations([name, FUZZ_DOC[field][1]]))
        elif kind == "length":
            size = draw(st.sampled_from([0, 1, 3]))
            field = draw(st.sampled_from(["coords", "fibers", "rho", "rho[0]"]))
            if field == "rho[0]":
                doc["rho"] = [["0"] * size] + doc["rho"][1:]
            else:
                doc[field] = [["0", "0"]] * size if field == "rho" else [f"v{i}" for i in range(size)]
        elif kind == "text":
            deep = NESTED[draw(st.sampled_from(list(NESTED)))](
                draw(st.integers(0, 2 * ex.MAX_NESTING)))
            field = draw(st.sampled_from(["L", "rho", "Theta", "C"]))
            if field == "L":
                doc["L"] = f"{FUZZ_DOC['L']} + {deep}*y1"
            elif field == "rho":
                doc["rho"] = [[deep, "-1"], ["1", "0"]]
            else:
                doc[field] = {"1,2" if field == "Theta" else "1,1,2": deep}
        else:
            path = draw(st.sampled_from([("n",), ("r",), ("seed",), ("params", "a"),
                                         ("tolerances", "tol"), ("tolerances", "trials"),
                                         ("box", "default")]))
            value = draw(_NUMBERS)
            if path == ("box", "default"):
                value = draw(st.permutations([value, 1]))
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    return doc


@settings(max_examples=100, deadline=None)
@given(perturbed_models())
@example(dict(FUZZ_DOC, coords=[["a"], "x2"]))
@example(dict(FUZZ_DOC, L="(" * 500 + "x1" + ")" * 500))
def test_perturbed_models_get_an_exit_code(doc):
    # Whatever the document, ``validate`` answers with a documented exit
    # code; no exception escapes ``main``.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["validate", str(path)])
    assert code in (0, 1, 2)
