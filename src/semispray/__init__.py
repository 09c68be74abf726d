"""Poisson bracket families with second-order Hamiltonian dynamics on Lie
algebroid charts.

Given a chart-level Lie algebroid, a regular Lagrangian, and a closed
2-section, the package assembles the associated bracket on the total space,
verifies that the Hamiltonian dynamics of the energy function projects to the
anchor (the semispray property), integrates its flow, and exposes the
prolongation calculus used to certify the construction: the prolonged chart
and its differential, Cartan 1- and 2-sections, bigrading, the constructive
radial homotopy operator, and the check that the Hamiltonian sections of the
prolongation anchor to the field.
"""

from . import algebroid, dynamics, homotopy, lagrangian, poisson, prolongation, twoform
from .algebroid import AForm, AlgebroidChart, Fixture, catalog
from .errors import (BlowUp, DegenerateForm, DegreeError, DomainError,
                     InvalidFixtureParam, ModelError, NotClosed,
                     NotVerticalVanishing, QuadratureFailure, SingularHessian,
                     StepCollapse, UnknownSymbol)
from .expr import (Box, ChartPoint, Expr, compile_evaluator, diff, evaluate,
                   free_symbols, is_zero, parse, simplify, subs, to_text)
from .model import ModelDocument, load_model
from .report import ValidationReport, ZeroResult, ZeroStatus

__version__ = "0.1.0"

__all__ = [
    "AForm", "AlgebroidChart", "Box", "ChartPoint", "Expr", "Fixture",
    "ModelDocument", "ValidationReport", "ZeroResult", "ZeroStatus",
    "algebroid", "catalog", "compile_evaluator", "diff", "dynamics",
    "evaluate", "free_symbols", "homotopy", "is_zero", "lagrangian",
    "load_model", "parse", "poisson", "prolongation", "simplify", "subs",
    "to_text", "twoform",
    "BlowUp", "DegenerateForm", "DegreeError", "DomainError",
    "InvalidFixtureParam", "ModelError", "NotClosed", "NotVerticalVanishing",
    "QuadratureFailure", "SingularHessian", "StepCollapse", "UnknownSymbol",
]
