"""Exception types shared across the package."""


class UnknownSymbol(ValueError):
    """An expression references a name outside the declared alphabet."""

    def __init__(self, name, context=""):
        self.name = name
        msg = f"unknown symbol {name!r}"
        if context:
            msg += f" in {context}"
        super().__init__(msg)


class DomainError(ArithmeticError):
    """Evaluation left the real domain (log of non-positive, division by
    zero, zero to a negative power, even root of a negative number)."""


class DegreeError(ValueError):
    """A form of unsupported degree was passed to a differential operator."""


class SingularHessian(Exception):
    """The fiber Hessian of a Lagrangian degenerates on the sample box."""

    def __init__(self, witness=None):
        self.witness = witness
        where = f" at {witness}" if witness else ""
        super().__init__(f"fiber Hessian is singular{where}")


class DegenerateForm(Exception):
    """A 2-section that must be invertible degenerates on the sample box."""

    def __init__(self, witness=None):
        self.witness = witness
        where = f" at {witness}" if witness else ""
        super().__init__(f"2-section is degenerate{where}")


class InvalidFixtureParam(ValueError):
    """Catalog fixture parameters violate their preconditions."""


class NotClosed(Exception):
    """An operation requiring a closed form received a non-closed one."""


class NotVerticalVanishing(Exception):
    """The 2-section does not vanish on pairs of vertical arguments."""


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BlowUp(RuntimeError):
    """Numerical integration exceeded the configured state norm bound."""

    def __init__(self, t, norm):
        self.t = t
        self.norm = norm
        super().__init__(f"state norm {norm:.3e} exceeded bound at t={t:.6g}")


class StepCollapse(RuntimeError):
    """The adaptive step size fell below its floor; the field may be singular."""

    def __init__(self, t, dt):
        self.t = t
        self.dt = dt
        super().__init__(f"adaptive step collapsed to {dt:.3e} at t={t:.6g}; "
                         "the field may be singular")


class ModelError(ValueError):
    """A model document failed schema or symbol validation."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


#: Exit code of every error at the command line: 2 for input the user can
#: correct (the model document, a flag, an unreadable file), 1 for a well-formed
#: model that cannot be processed.  ``cli.main`` prints exit-2 errors as
#: ``input error: …`` and exit-1 errors as ``error: …``.
EXIT_CODES = {
    ModelError: 2, UnknownSymbol: 2, InvalidFixtureParam: 2, OSError: 2,
    SingularHessian: 1, DegenerateForm: 1, DomainError: 1, QuadratureFailure: 1,
    NotClosed: 1, NotVerticalVanishing: 1, DegreeError: 1, BlowUp: 1, StepCollapse: 1,
}


def exit_code(err: BaseException) -> int:
    """The code of the nearest class of ``err`` listed in :data:`EXIT_CODES`."""
    return next(EXIT_CODES[cls] for cls in type(err).__mro__ if cls in EXIT_CODES)
