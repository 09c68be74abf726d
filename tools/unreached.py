"""List the functions of ``src/semispray`` that no command executes.

    python tools/unreached.py

Runs every case of ``tests/test_golden_cli.py`` and pass 0 of each workload
of ``bench/workloads.py`` at seed 1, in this process and in order, under
``sys.settrace``, and prints each function, method or lambda of
``src/semispray`` (as ``module.qualname``) whose code none of them entered,
in source order.  Comprehensions and generator expressions are not listed.
A function that runs only while the package is imported counts as entered
only when that import happens under the trace, as it does from the command
line.  Uses the standard library only; takes a few seconds.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semispray"

Run = Callable[[], object]


def _import_paths() -> None:
    for directory in (ROOT / "bench", ROOT / "tests", ROOT / "src"):
        if str(directory) not in sys.path:
            sys.path.insert(0, str(directory))


def functions() -> List[Tuple[str, Tuple[str, int, str]]]:
    """``(module.qualname, key)`` for every function defined in
    ``src/semispray``, in source order; ``key`` is the file, first line and
    name of its code object."""
    out = []

    def walk(code, module: str, prefix: str, in_function: bool) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = const.co_name
            if name.startswith("<") and name != "<lambda>":
                walk(const, module, prefix, in_function)  # a comprehension's body
                continue
            qualname = f"{prefix}{'<locals>.' if in_function else ''}{name}"
            is_class = not const.co_flags & inspect.CO_NEWLOCALS  # a class body, not a function
            if not is_class:
                key = (os.path.realpath(const.co_filename), const.co_firstlineno, name)
                out.append((f"{module}.{qualname}", key))
            walk(const, module, f"{qualname}.", not is_class)

    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, path.stem, "", False)
    return sorted(out, key=lambda item: (item[0].split(".")[0], item[1][1]))


def unreached(runs: Iterable[Run]) -> List[str]:
    """The names of :func:`functions` whose code none of ``runs`` enters."""
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    keys = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in entered}
    return [name for name, key in functions() if key not in keys]


def golden_runs(directory: Path, cases: Optional[Sequence[Tuple[str, str]]] = None
                ) -> Iterator[Run]:
    """One run per ``(model, command)`` golden case, all of them by default;
    the model documents are written to ``directory``."""
    _import_paths()
    import test_golden_cli as golden

    for model, command in golden.CASES if cases is None else cases:
        yield lambda model=model, command=command: golden.run_case(model, command, directory)


def bench_runs(directory: Path, seed: int = 1) -> Iterator[Run]:
    """One run per request of pass 0 of every bench workload at ``seed``;
    the model documents are written to ``directory``."""
    _import_paths()
    import workloads
    from semispray import cli

    for model, (doc, _) in workloads.MODELS.items():
        (directory / f"{model}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")

    def run(request) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(request.argv(str(directory / f"{request.model}.json")))

    for workload in workloads.WORKLOADS:
        for request in workloads.requests(workload, seed, 0):
            yield lambda request=request: run(request)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as golden_dir, tempfile.TemporaryDirectory() as bench_dir:
        # Lazy, so the package is first imported under the trace.
        runs = itertools.chain(golden_runs(Path(golden_dir)), bench_runs(Path(bench_dir)))
        for name in unreached(runs):
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
