"""In-memory span tracer that wraps raceplan's functions from outside.

Nothing in the program is edited: ``Tracer.install`` replaces each traced
function by a wrapper at every module-level name inside the ``raceplan``
package that refers to it (so ``cli.solve``, imported by name, and the
package re-exports are covered too), and at the class attribute
``TrajectorySpline.eval_local``.  ``Tracer.uninstall`` puts every original
back.  The program is single-threaded, so a plain stack gives each span its
parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name, counter) for every traced function.  A
# counter maps (args, result) to a number recorded on the span, so counts
# are taken at the same boundary as the time.
_MODULE_TARGETS = (
    ("raceplan.gates", "decode", "gates.decode", None),
    ("raceplan.spline", "construct", "spline.construct", None),
    ("raceplan.spline", "propagate_gradients", "spline.adjoint", None),
    ("raceplan._flatjet", "flat_outputs", "model.flatness",
     lambda args, result: len(args[0])),
    ("raceplan.cost", "objective", "cost.objective", None),
    ("raceplan.cost", "penalty", "cost.penalty", None),
    ("raceplan.optimizer", "solve", "optimizer.solve", None),
    ("raceplan.optimizer", "_minimize", "optimizer.minimize",
     lambda args, result: result[2]),
    ("raceplan.optimizer", "_restore_feasibility", "optimizer.restore", None),
    ("raceplan.optimizer", "_sample_trajectory", "optimizer.sample", None),
    ("raceplan.trackio", "parse", "trackio.parse", None),
    ("raceplan.cli", "cmd_plan", "cli.plan", None),
    ("raceplan.cli", "cmd_check", "cli.check", None),
)
_METHOD_TARGETS = (
    ("raceplan.spline", "TrajectorySpline", "eval_local", "spline.eval", None),
)
_MARK = "_perfbench_original"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: str
    count: object = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    trace_id: str = ""
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)   # (owner, attr, original)

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.trace_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.count = counter(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].children_s += span.end - span.start

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _raceplan_modules()
        for mod_name, attr, name, counter in _MODULE_TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name, counter in _METHOD_TARGETS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path):
        """One JSON line per span, in start order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i, "parent": s.parent, "trace": s.trace,
                    "name": s.name, "start": s.start, "end": s.end,
                    "self_s": s.self_s,
                }) + "\n")


def _raceplan_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "raceplan" or n.startswith("raceplan."))]


def leftover_wrappers() -> list:
    """Names inside raceplan that still hold a tracing wrapper."""
    found = []
    for mod in _raceplan_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{key}.{k}"
                             for k, v in vars(value).items() if hasattr(v, _MARK))
    return found


def wrapped_names() -> list:
    """Every name the tracer replaces, for the self-test."""
    names = [f"{m}.{a}" for m, a, _, _ in _MODULE_TARGETS]
    names += [f"{m}.{c}.{a}" for m, c, a, _, _ in _METHOD_TARGETS]
    return names
