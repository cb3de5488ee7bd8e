"""Span tracer that wraps gramdelta's layer functions from outside the program.

Each wrapped function records one span per call: name, start, end, parent
span, op id and thread id, plus the work counts its counter hook derives
from the arguments and the result. A span's parent is the innermost open
span on its own thread; a span opened on a worker thread with nothing open
there (the `gram scan --threads` pool) takes the innermost open span of the
installing thread, which is blocked waiting for it. Self time is a span's
duration minus the union of its children's intervals, so parallel children
are not subtracted twice.

The program is not edited: `install` replaces every module-level reference
to each wrapped function (a function imported by name into several modules,
such as `section_eval`, is replaced in each), checks that no reference to an
original is left, and `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


def _section_terms(args, kwargs, result):
    model, t = args[0], args[1]
    n = kwargs.get("n_terms")
    if n is None:
        n = model.robust_cutoff(t.real if isinstance(t, complex) else t)
    return {"terms": (n + 1) * len(kwargs.get("orders", (0,)))}


def _csum_elements(args, kwargs, result):
    return {"elements": len(args[0])}


def _solve_failed(args, kwargs, result):
    return {"failed": int(result is None)}


def _trace_samples(args, kwargs, result):
    return {"samples": len(result.samples)}


def _classify_kind(args, kwargs, result):
    return {"indeterminate": int(result.kind.value == "indeterminate")}


def _cache_hit(args, kwargs, result):
    return {"hits": int(result is not None)}


def _newton_iterations(args, kwargs, result):
    return {"iterations": len(result.iterates) - 1}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode())}


# (module, attribute path, work-count hook). A dotted path names a method.
TARGETS = (
    ("cli", "main", None),
    ("emit", "write_csv", None),
    ("emit", "write_json", None),
    ("emit", "_write_text", _text_bytes),
    ("cache", "RecordStore.get", _cache_hit),
    ("cache", "RecordStore.put", None),
    ("gram", "classify", _classify_kind),
    ("gram", "gram_point", None),
    ("zmodel", "section_eval", _section_terms),
    ("zmodel", "classical_afe", None),
    ("zmodel", "find_zero_newton", _newton_iterations),
    ("numerics", "csum", _csum_elements),
    ("special", "theta", None),
    ("discriminant", "_ExtremumSolver.solve", _solve_failed),
    ("discriminant", "track_extremum", _trace_samples),
    ("discriminant", "closed_forms", None),
    ("curves", "shifting_stage", None),
    ("curves", "descending_stage", None),
    ("curves", "corrected_curve", None),
    ("adjust", "adjustments", None),
    ("adjust", "stage_analysis", None),
    ("adjust", "gram_vectors", None),
    ("dh", "dh_violation_experiment", None),
)


PACKAGE = "gramdelta"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    work: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = time.perf_counter()
                stack.pop()
                work = hook(args, kwargs, result) if returned and hook else {}
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.op,
                                         threading.get_ident(), work))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind every module-level reference to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        wrappers = {}
        for module_name, path, hook in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr]
            wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{path}", fn, hook))
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and value is pair[0]:
                    self._set(module, attr, value, pair[1])
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for name, member in list(vars(value).items()):
                        pair = wrappers.get(id(member))
                        if pair is not None and member is pair[0]:
                            self._set(value, name, member, pair[1])
        self._check_bindings(modules, wrappers)

    def _set(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    @staticmethod
    def _check_bindings(modules, wrappers) -> None:
        """Fail if an unwrapped original is still reachable from the package:
        through a module or class attribute, a default argument or a closure."""
        originals = {id(fn) for fn, _ in wrappers.values()}
        wrapped = {id(w) for _, w in wrappers.values()}
        for module in modules:
            for attr, value in vars(module).items():
                holders = [(f"{module.__name__}.{attr}", value)]
                if isinstance(value, type) and value.__module__ == module.__name__:
                    holders += [(f"{module.__name__}.{attr}.{k}", v)
                                for k, v in vars(value).items()]
                for where, obj in holders:
                    refs = [obj]
                    if callable(obj) and hasattr(obj, "__code__") and id(obj) not in wrapped:
                        refs += list(obj.__defaults__ or ())
                        refs += list((obj.__kwdefaults__ or {}).values())
                        refs += [_cell(c) for c in obj.__closure__ or ()]
                    if any(id(r) in originals for r in refs):
                        raise RuntimeError(f"tracer left {where} bound to an unwrapped function")

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.op = None


def _cell(cell):
    try:
        return cell.cell_contents
    except ValueError:  # a cell not yet filled
        return None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


SOLVE = "discriminant._ExtremumSolver.solve"


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, self_s and the sum of each work count; for
    `solve`, newton_iters counts its direct `section_eval` children."""
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}
    by_name: dict[str, dict] = {}
    for s in spans:
        entry = by_name.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[s.sid]
        for key, value in s.work.items():
            entry[key] = entry.get(key, 0) + value
        if s.name == "zmodel.section_eval" and names.get(s.parent) == SOLVE:
            solve = by_name.setdefault(SOLVE, {"calls": 0, "self_s": 0.0})
            solve["newton_iters"] = solve.get("newton_iters", 0) + 1
    return by_name
