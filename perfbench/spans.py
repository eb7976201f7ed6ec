"""Per-layer tracing from outside the program.

The tracer replaces every public function of the ``crisishedge`` modules with
a wrapper that times the call and records it under ``<module>.<function>``,
the module being the one that defines the function.  A function imported by
name into another module (``attribution`` imports ``fit_quantile`` from
``qreg``) is wrapped at that name too, so every call site the program uses
reaches the same wrapper.

Spans are folded into totals as they close rather than kept one by one, so
memory stays flat over the ~120k calls of a run:

* ``total_s``: summed duration of the function's spans;
* ``self_s``: ``total_s`` minus the time its wrapped children took;
* ``layer_s`` per module: summed duration of spans whose caller is another
  module (or the benchmark), i.e. the time the run spent inside that layer.

A few functions also feed named counters (rows fitted, boundary fits,
bootstrap replicates kept) from their arguments and results.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "crisishedge"


@dataclass
class FunctionStats:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Trace:
    """Totals for one traced call of a workload."""

    functions: dict[str, FunctionStats] = field(
        default_factory=lambda: defaultdict(FunctionStats)
    )
    layer_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_by_layer: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def calls(self, name: str) -> int:
        return self.functions[name].calls if name in self.functions else 0

    def counts(self) -> dict[str, int]:
        """Every count the trace holds; used to compare two traced runs."""
        out = {f"{name}.calls": s.calls for name, s in self.functions.items()}
        out.update({f"{name}.failed": s.failed for name, s in self.functions.items()})
        out.update(self.counters)
        return dict(sorted(out.items()))


class _Frame:
    __slots__ = ("name", "layer", "child_s")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.child_s = 0.0


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters fed from a call's arguments, result and caller.  Each takes
# (trace, arguments, result, caller name) and runs only when the call returned.
def _count_fit_quantile(trace, arguments, result, caller):
    trace.counters["qreg.fit_quantile.rows"] += len(arguments["X"])


def _count_fit_copula(trace, arguments, result, caller):
    trace.counters["copula.fit_copula.boundary"] += int(result.boundary)
    trace.counters["copula.fit_copula.nonconverged"] += int(not result.converged)
    if caller == "copula.block_bootstrap_ci":
        useful = result.converged and not result.boundary
        trace.counters["copula.bootstrap.useful_fits"] += int(useful)


def _count_block_bootstrap_ci(trace, arguments, result, caller):
    trace.counters["copula.bootstrap.replicates"] += arguments["replications"]


def _count_bootstrap_stability(trace, arguments, result, caller):
    trace.counters["attribution.stability.replicates"] += arguments["replications"]


def _count_importance_summary(trace, arguments, result, caller):
    if caller == "attribution.bootstrap_stability":
        trace.counters["attribution.stability.rankings"] += 1


def _count_load_panel(trace, arguments, result, caller):
    trace.counters["dataio.series"] += len(result)


COUNTERS = {
    "qreg.fit_quantile": _count_fit_quantile,
    "copula.fit_copula": _count_fit_copula,
    "copula.block_bootstrap_ci": _count_block_bootstrap_ci,
    "attribution.bootstrap_stability": _count_bootstrap_stability,
    "attribution.importance_summary": _count_importance_summary,
    "dataio.load_panel": _count_load_panel,
}


class Tracer:
    """Installs and removes the wrappers; collects into ``self.trace``."""

    def __init__(self) -> None:
        self.trace = Trace()
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.trace = Trace()

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = _Frame(name, layer)
            caller = stack[-1] if stack else None
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                trace = self.trace
                stats = trace.functions[name]
                stats.calls += 1
                stats.failed += int(not ok)
                stats.total_s += elapsed
                own = elapsed - frame.child_s
                stats.self_s += own
                trace.self_by_layer[layer] += own
                if caller is None or caller.layer != layer:
                    trace.layer_s[layer] += elapsed
                if caller is not None:
                    caller.child_s += elapsed
                if ok and counter is not None:
                    counter(trace, _bound(fn, args, kwargs), result,
                            caller.name if caller else None)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap every public package function at every module name bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[object, object] = {}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def remove(self) -> None:
        """Restore every original function, and check that none is left wrapped."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        leftover = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
