"""The bench's view of the package: ``bench/tracing.py`` wraps public
functions by name and reads some of their parameters, so a rename shows up
here and not only in a traced bench run."""

import importlib.util
import pathlib
import sys

from semispray import expr as ex

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(target):
    module_name, attr = target
    owner = sys.modules[f"semispray.{module_name}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(owner, cls_name))[method]
    return getattr(owner, attr)


def test_tracer_wraps_every_target_and_uninstalls():
    tracing = _load_tracing()
    originals = {target: _current(target) for target in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for target, original in originals.items():
            assert _current(target) is not original, target
        # The parameters the tracer reads by name: is_zero(trials=…) and
        # integrate(method=…), with their defaults.
        assert tracer._is_zero_trials((ex.ZERO,), {"trials": 5}) == 5
        assert tracer._is_zero_trials((ex.ZERO,), {}) == 64
        assert tracer._integrate_method((), {"method": "rk45"}) == "rk45"
        assert tracer._integrate_method((), {}) == "rk4"
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _current(target) is original, target
