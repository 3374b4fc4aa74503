"""Layer spans for the traced run, recorded from outside ``src/``.

The pipeline calls each layer through a module-level binding, for
example ``repro.core.reds.tune_metamodel`` or
``repro.core.methods.prim_peel``.  :class:`Tracer` swaps those bindings
for timing wrappers while a traced call runs and puts them back after,
so the program itself carries no tracing code.  Calls that reach a
function through a binding that is not wrapped (the ``prim_peel`` inside
``optimize_alpha`` goes through ``repro.core.hyperparams``) fall into
their caller's span, which is what makes self times add up to the wall.

Spans live in memory: per span name the summed self time (duration
minus the wrapped calls nested inside it), the call count and, for
labelling, the rows labelled.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: ``(module, binding, span name)``.  Span names are
#: ``<layer module>.<function>``, the layer the function lives in.
SPANS = (
    ("repro.core.reds", "fit_metamodel", "core.reds.fit_metamodel"),
    ("repro.core.reds", "tune_metamodel", "metamodels.tuning.tune_metamodel"),
    ("repro.core.reds", "predict_chunked", "metamodels.base.predict_chunked"),
    ("repro.core.methods", "reds", "core.reds.reds"),
    ("repro.core.methods", "prim_peel", "subgroup.prim.prim_peel"),
    ("repro.core.methods", "best_interval", "subgroup.best_interval.best_interval"),
    ("repro.core.methods", "prim_bumping", "subgroup.bumping.prim_bumping"),
    ("repro.core.hyperparams", "optimize_alpha", "core.hyperparams.optimize_alpha"),
    ("repro.core.hyperparams", "optimize_bumping_features",
     "core.hyperparams.optimize_bumping_features"),
    ("repro.core.hyperparams", "optimize_bi_depth", "core.hyperparams.optimize_bi_depth"),
    ("repro.experiments.harness", "make_train_data", "experiments.harness.make_train_data"),
    ("repro.experiments.harness", "get_test_data", "experiments.harness.get_test_data"),
    ("repro.experiments.harness", "evaluate_boxes", "experiments.harness.evaluate_boxes"),
    ("repro.experiments.harness", "peeling_trajectory",
     "metrics.trajectory.peeling_trajectory"),
)

#: Bindings that are only counted: building a model is cheap, the
#: count is the number of fits the tuning grid asks for.
COUNTS = (
    ("repro.metamodels.tuning", "make_metamodel", "metamodels.tuning.make_metamodel"),
)

#: Spans whose second positional argument is the matrix being labelled.
ROWS = frozenset({"metamodels.base.predict_chunked"})


class Tracer:
    """Self time per span, accumulated over every traced call.

    Use as a context manager around one traced call; the wrappers are
    installed on entry and the original bindings restored on exit, so
    untraced calls in the same process run the program untouched.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.rows: defaultdict[str, int] = defaultdict(int)
        self._child: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def named_s(self) -> float:
        """Self seconds summed over every span so far."""
        return sum(self.self_s.values())

    def _span(self, name: str, func):
        def wrapper(*args, **kwargs):
            if name in ROWS:
                self.rows[name] += len(args[1])
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child.pop()
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += elapsed
        return wrapper

    def _count(self, name: str, func):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, binding, name in table:
                # import_module: ``repro.core.reds`` the attribute is the
                # function, the module is only reachable by name.
                module = importlib.import_module(module_name)
                original = getattr(module, binding)
                self._saved.append((module, binding, original))
                setattr(module, binding, make(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, binding, original = self._saved.pop()
            setattr(module, binding, original)
