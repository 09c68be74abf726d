"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each traced public function wherever a
``semispray`` module binds it (``cli.load_model`` and
``cli.build_lagrangian`` as well as ``model.load_model`` and
``lagrangian.build``) and ``uninstall`` puts the originals back, so the
untraced passes run the program exactly as shipped.

Only the outermost call of each name is timed and counted: a recursive
``evaluate``/``diff``/``simplify``/``emul`` call, or ``det`` inside ``det``,
runs straight through.  ``busy_s`` of a name is the time its outermost calls
took; ``self_s`` is that minus the time of the traced calls made inside
them.  Work the tracer does for itself (node counting) is kept out of every
enclosing span.  Hot names are aggregated only; every other outermost call
is kept as a span in memory and written as a tree by ``span_tree``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

#: (module, attribute) of every traced function; methods as Class.method.
TARGETS = (
    ("expr", "emul"), ("expr", "eadd"), ("expr", "diff"), ("expr", "simplify"),
    ("expr", "is_zero"), ("expr", "evaluate"), ("expr", "compile_evaluator"),
    ("expr", "parse"), ("expr", "to_text"),
    ("model", "load_model"),
    ("lagrangian", "build"), ("linalg", "det"), ("linalg", "adjugate"),
    ("twoform", "assemble_N"), ("twoform", "ThetaSection.check_closed"),
    ("algebroid", "AlgebroidChart.validate_structure"),
    ("poisson", "build_bracket"), ("poisson", "hamiltonian_field"), ("poisson", "bracket"),
    ("poisson", "check_jacobi"), ("poisson", "is_semispray"), ("poisson", "is_spray"),
    ("prolongation", "consistency_suite"), ("homotopy", "identity_suite"),
    ("dynamics", "integrate"), ("dynamics", "Trajectory.to_csv"),
)

#: Called too often to keep one span per call.
HOT = frozenset({"expr.emul", "expr.eadd", "expr.diff", "expr.simplify", "expr.evaluate",
                 "expr.parse", "expr.to_text", "expr.compiled"})


def node_counts(roots) -> Tuple[int, int]:
    """(tree nodes, distinct node objects) of expressions, sharing counted
    once for distinct and once per use for tree."""
    from semispray import expr as ex

    sizes: Dict[int, int] = {}

    def children(node):
        for slot in type(node).__slots__:
            value = getattr(node, slot)
            if isinstance(value, ex.Expr):
                yield value
            elif isinstance(value, tuple):
                yield from (v for v in value if isinstance(v, ex.Expr))

    def size(node) -> int:
        key = id(node)
        if key not in sizes:
            sizes[key] = 1 + sum(size(c) for c in children(node))
        return sizes[key]

    return sum(size(root) for root in roots), len(sizes)


class Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self.counters: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.request = None
        self._stack: List[list] = []
        self._active: set = set()
        self._stolen = 0.0
        self._patches: List[tuple] = []
        self._next_id = 0
        self.last_duration = 0.0

    # -- bookkeeping --------------------------------------------------------

    def reset(self):
        """Drop stats and counters (spans are kept for the tree)."""
        self.stats.clear()
        self.counters.clear()

    def _steal(self, t0: float):
        """Keep the tracer's own work since ``t0`` out of enclosing spans."""
        self._stolen += perf_counter() - t0

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return wrapper

    def call(self, name: str, fn, args=(), kwargs=None, observe=None):
        """Run ``fn`` as one traced call of ``name``."""
        kwargs = kwargs or {}
        active = self._active
        if name in active:
            return fn(*args, **kwargs)
        active.add(name)
        stack = self._stack
        parent = stack[-1] if stack else None
        hot = name in HOT
        if hot:
            span_id = parent[1] if parent else None
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        stolen0 = self._stolen
        error = result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            error = err
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            active.discard(name)
            dur = (t1 - t0) - (self._stolen - stolen0)
            self.last_duration = dur
            stat = self.stats[name]
            stat.calls += 1
            stat.busy += dur
            stat.self_time += dur - frame[0]
            if parent is not None:
                parent[0] += dur
            if not hot:
                self.spans.append((span_id, parent[1] if parent else None,
                                   self.request, name, t0, dur))
            if observe is not None:
                observe(args, kwargs, result, error)
                self._steal(t1)

    # -- observers (run after the call, outside every span) ----------------

    def _observe_is_zero(self, args, kwargs, result, error):
        if error is not None:
            return
        from semispray.report import ZeroStatus

        tree, distinct = node_counts([args[0] if args else kwargs["e"]])
        c = self.counters
        c["expr.is_zero.nodes_tree"] += tree
        c["expr.is_zero.nodes_distinct"] += distinct
        c["expr.is_zero.nodes_tree_max"] = max(c["expr.is_zero.nodes_tree_max"], tree)
        if result.status is ZeroStatus.PROVEN_ZERO:
            c["expr.is_zero.proven"] += 1
        else:
            c["expr.is_zero.sampled"] += 1
            c["expr.is_zero.samples_requested"] += self._is_zero_trials(args, kwargs)

    def _observe_evaluate(self, args, kwargs, result, error):
        if "expr.is_zero" not in self._active:
            return
        from semispray.errors import DomainError

        if error is None:
            self.counters["expr.is_zero.samples_evaluated"] += 1
        elif isinstance(error, DomainError):
            self.counters["expr.is_zero.samples_skipped_singular"] += 1

    def _observe_outputs(self, label, roots_of):
        def observe(args, kwargs, result, error):
            if error is None:
                tree, distinct = node_counts(roots_of(result))
                self.counters[f"{label}.nodes_tree"] += tree
                self.counters[f"{label}.nodes_distinct"] += distinct
        return observe

    def _integrate(self, fn):
        wrapped = self._wrap("dynamics.integrate", fn)
        counters = self.counters

        @functools.wraps(fn)
        def integrate(*args, **kwargs):
            before = counters["dynamics.integrate.rhs_evals"]
            traj = wrapped(*args, **kwargs)
            t0 = perf_counter()
            rhs = counters["dynamics.integrate.rhs_evals"] - before
            # rk4 takes 4 evaluations per step; Dormand-Prince 1 + 6 per try.
            tries = rhs // 4 if self._integrate_method(args, kwargs) == "rk4" else (rhs - 1) // 6
            counters["dynamics.integrate.steps_accepted"] += len(traj.times) - 1
            counters["dynamics.integrate.steps_tried"] += tries
            self._steal(t0)
            return traj

        return integrate

    def _compile_evaluator(self, fn):
        wrapped = self._wrap("expr.compile_evaluator", fn)
        compiled_name = "expr.compiled"

        @functools.wraps(fn)
        def compile_evaluator(exprs, *args, **kwargs):
            evaluator = wrapped(exprs, *args, **kwargs)
            call = self._wrap(compiled_name, evaluator)
            if "dynamics.integrate" in self._active and len(exprs) > 1:
                counters = self.counters

                def rhs(values):
                    counters["dynamics.integrate.rhs_evals"] += 1
                    return call(values)
                return rhs
            return call

        return compile_evaluator

    # -- install / uninstall -----------------------------------------------

    def install(self):
        import semispray

        self._is_zero_trials = _arg_reader(semispray.expr.is_zero, "trials")
        self._integrate_method = _arg_reader(semispray.dynamics.integrate, "method")
        observers = {
            "expr.is_zero": self._observe_is_zero,
            "expr.evaluate": self._observe_evaluate,
            "poisson.build_bracket": self._observe_outputs(
                "poisson.build_bracket", lambda b: [v for row in b.pxy + b.pyy for v in row]),
            "poisson.hamiltonian_field": self._observe_outputs(
                "poisson.hamiltonian_field", lambda f: f.components()),
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "semispray" or key.startswith("semispray.")]
        for module_name, attr in TARGETS:
            module = sys.modules[f"semispray.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original, observers.get(name)))
                continue
            original = getattr(module, attr)
            if name == "expr.compile_evaluator":
                wrapper = self._compile_evaluator(original)
            elif name == "dynamics.integrate":
                wrapper = self._integrate(original)
            else:
                wrapper = self._wrap(name, original, observers.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def span_tree(self) -> list:
        """Spans as nested dicts, one root per request."""
        nodes = {}
        roots = []
        for span_id, parent, request, name, start, dur in self.spans:
            node = {"name": name, "request": request, "start": start, "busy_s": dur,
                    "children": []}
            nodes[span_id] = node
        for span_id, parent, *_ in self.spans:
            (nodes[parent]["children"] if parent is not None else roots).append(nodes[span_id])
        for node in nodes.values():
            node["children"].sort(key=lambda n: n["start"])
        roots.sort(key=lambda n: n["start"])
        return roots


def _arg_reader(fn, param: str):
    """Read ``param`` of a call to ``fn`` from its args/kwargs, or its default."""
    sig = inspect.signature(fn)
    index = list(sig.parameters).index(param)
    default = sig.parameters[param].default

    def read(args, kwargs):
        if param in kwargs:
            return kwargs[param]
        if len(args) > index:
            return args[index]
        return default
    return read
