"""Spans and counters recorded around the program's public layer functions.

The benchmark measures the program from the outside: for a traced round it
replaces public functions with timing wrappers and puts the originals back
afterwards. A module that did ``from .stability import scan_grid`` holds a
reference of its own, so every module global bound to the original is
rebound, not only the one in the defining module. A target that no longer
exists is reported absent, which is never an error.

Functions called once or a few times per operation get a full span (name,
start, end, parent span, operation id). The three hot leaves, called per
point or per polynomial, only update counters, so that tracing a round
does not keep hundreds of thousands of spans in memory. Self time is a
call's duration minus the time its direct child calls took.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "powergeom"


def import_program() -> None:
    """Import every public submodule, so lazily imported bindings exist."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"{PACKAGE}.{info.name}")


def _program_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def patch(module: str, qualname: str,
          make_wrapper: Callable[[Callable], Callable]) -> list | None:
    """Replace ``module.qualname`` wherever the program resolves it.

    ``qualname`` is a function name or ``Class.method``. Returns the list of
    (owner, attribute, original) to restore, or None when the target is
    absent.
    """
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    if path:  # a method: the class attribute is the only binding
        setattr(owner, attr, wrapper)
        return [(owner, attr, original)]
    restore = []
    for mod in _program_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                restore.append((mod, key, original))
    return restore


def unpatch(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


class Capture:
    """Keeps the return values of one program function for output checks."""

    def __init__(self, module: str, qualname: str):
        self.results: list = []

        def make(fn):
            def capturing(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.results.append(result)
                return result
            return capturing

        self._restore = patch(module, qualname, make)

    @property
    def present(self) -> bool:
        return self._restore is not None

    def take(self) -> list:
        out, self.results = self.results, []
        return out


# --- counters taken from a traced call's arguments or result -------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_points(counts, name, args, kwargs, result):
    _add(counts, f"{name}.points", len(result))


def _count_batch(counts, name, args, kwargs, result):
    points = len(_arg(args, kwargs, 1, "a1"))
    _add(counts, f"{name}.points", points)
    # ten output slots plus two input angles, float64 each
    _add(counts, f"{name}.bytes_computed", points * 12 * 8)


def _count_roots(counts, name, args, kwargs, result):
    zeros = result.det_zeros
    _add(counts, f"{name}.roots", len(zeros))
    # a grid value that is exactly zero is a root found without bisecting
    _add(counts, f"{name}.bisected",
         sum(1 for z in zeros if z.bracket > 0.0 or z.det_at_root != 0.0))
    _add(counts, f"{name}.roots_missing_bound",
         sum(1 for z in zeros if abs(z.det_at_root) > result.det_bound))


def _count_written(counts, name, args, kwargs, result):
    _add(counts, f"{name}.bytes",
         os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_read(counts, name, args, kwargs, result):
    _add(counts, f"{name}.bytes",
         os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_samples(counts, name, args, kwargs, result):
    _add(counts, "verify.samples_used", sum(c.samples for c in result.checks))
    _add(counts, "verify.resampled", sum(c.resampled for c in result.checks))


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


@dataclass(frozen=True)
class Target:
    name: str        # layer.function, as the metrics name it
    module: str      # submodule of the package that defines it
    qualname: str
    hot: bool = False
    post: Callable | None = None


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("stability.scan_grid", "stability", "scan_grid",
           post=_count_points),
    Target("stability.scan_diagonal", "stability", "scan_diagonal",
           post=_count_points),
    Target("stability.locate_transitions", "stability", "locate_transitions",
           post=_count_roots),
    Target("backend.batch_slots", "backend", "batch_slots", post=_count_batch),
    Target("backend.unit_slots", "backend", "unit_slots", hot=True),
    Target("scan_io.grid_table", "scan_io", "grid_table"),
    Target("scan_io.diagonal_table", "scan_io", "diagonal_table"),
    Target("scan_io.render_csv", "scan_io", "render_csv"),
    Target("scan_io.render_json", "scan_io", "render_json"),
    Target("scan_io.write_table", "scan_io", "write_table",
           post=_count_written),
    Target("scan_io.read_scan", "scan_io", "read_scan", post=_count_read),
    Target("models.eval_power_jet", "models", "eval_power_jet", hot=True),
    Target("expressions.eval_cs", "expressions", "TrigPolynomial.eval_cs",
           hot=True),
    Target("verify.verify_against_autodiff", "verify",
           "verify_against_autodiff", post=_count_samples),
    Target("selfcheck.run_self_checks", "selfcheck", "run_self_checks"),
)


class _Frame:
    __slots__ = ("name", "span", "child")

    def __init__(self, name: str, span: int | None):
        self.name = name
        self.span = span
        self.child = 0.0


class Tracer:
    """In-memory spans and per-function totals for the traced rounds."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.op = 0
        self.paused = False
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.under: dict[tuple[str, str], int] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()  # post hooks that no longer fit
        self._stack: list[_Frame] = []
        self._restore: list = []

    def install(self) -> None:
        self.absent = []
        for target in self.targets:
            restore = patch(target.module, target.qualname,
                            lambda fn, t=target: self._wrap(t, fn))
            if restore is None:
                self.absent.append(target.name)
            else:
                self._restore.extend(restore)

    def uninstall(self) -> None:
        unpatch(self._restore)
        self._restore = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, hot, post = target.name, target.hot, target.post
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            inherited = parent.span if parent is not None else None
            if hot:
                frame = _Frame(name, inherited)
            else:
                frame = _Frame(name, len(self.spans))
                self.spans.append([name, 0.0, 0.0, inherited, self.op])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, hot, start, end, parent)
            if post is not None:
                try:
                    post(self.counts, name, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, OSError):
                    self.uncounted.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame, hot: bool, start: float, end: float,
               parent: _Frame | None) -> None:
        name = frame.name
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy[name] = self.busy.get(name, 0.0) + duration
        self.self_time[name] = (self.self_time.get(name, 0.0)
                                + duration - frame.child)
        if parent is not None:
            parent.child += duration
        if hot:
            for outer in self._stack:
                key = (outer.name, name)
                self.under[key] = self.under.get(key, 0) + 1
        else:
            span = self.spans[frame.span]
            span[1], span[2] = start, end


def _busy(fn):
    return lambda tr: tr.busy.get(fn, 0.0)


def _calls(fn):
    return lambda tr: tr.calls.get(fn, 0)


def _count(key):
    return lambda tr: tr.counts.get(key, 0)


def _evals_per_root(tr: Tracer) -> float:
    roots = tr.counts.get("stability.locate_transitions.bisected", 0)
    evals = tr.under.get(("stability.locate_transitions",
                          "backend.unit_slots"), 0)
    return evals / roots if roots else 0.0


def _accept_ratio(tr: Tracer) -> float:
    used = tr.counts.get("verify.samples_used", 0)
    drawn = used + tr.counts.get("verify.resampled", 0)
    return used / drawn if drawn else 0.0


#: Per-layer metrics, in the order BENCHMARK.json lists them: name, unit,
#: and how the value is read from a tracer (totals over the traced rounds).
PER_LAYER = (
    ("backend.batch_slots.busy_s", "s", _busy("backend.batch_slots")),
    ("backend.batch_slots.points", "count",
     _count("backend.batch_slots.points")),
    ("backend.batch_slots.bytes_computed", "B",
     _count("backend.batch_slots.bytes_computed")),
    ("backend.unit_slots.calls", "count", _calls("backend.unit_slots")),
    ("backend.unit_slots.busy_s", "s", _busy("backend.unit_slots")),
    ("stability.scan_grid.busy_s", "s", _busy("stability.scan_grid")),
    ("stability.scan_grid.points", "count",
     _count("stability.scan_grid.points")),
    ("stability.scan_diagonal.busy_s", "s", _busy("stability.scan_diagonal")),
    ("stability.scan_diagonal.points", "count",
     _count("stability.scan_diagonal.points")),
    ("stability.locate_transitions.busy_s", "s",
     _busy("stability.locate_transitions")),
    ("stability.locate_transitions.self_s", "s",
     lambda tr: tr.self_time.get("stability.locate_transitions", 0.0)),
    ("stability.locate_transitions.roots", "count",
     _count("stability.locate_transitions.roots")),
    ("stability.locate_transitions.evals_per_root", "count",
     _evals_per_root),
    ("stability.locate_transitions.roots_missing_bound", "count",
     _count("stability.locate_transitions.roots_missing_bound")),
    ("scan_io.grid_table.busy_s", "s", _busy("scan_io.grid_table")),
    ("scan_io.diagonal_table.busy_s", "s", _busy("scan_io.diagonal_table")),
    ("scan_io.render_csv.busy_s", "s", _busy("scan_io.render_csv")),
    ("scan_io.render_json.busy_s", "s", _busy("scan_io.render_json")),
    ("scan_io.write_table.busy_s", "s", _busy("scan_io.write_table")),
    ("scan_io.write_table.bytes", "B", _count("scan_io.write_table.bytes")),
    ("scan_io.read_scan.busy_s", "s", _busy("scan_io.read_scan")),
    ("scan_io.read_scan.bytes", "B", _count("scan_io.read_scan.bytes")),
    ("models.eval_power_jet.calls", "count", _calls("models.eval_power_jet")),
    ("models.eval_power_jet.busy_s", "s", _busy("models.eval_power_jet")),
    ("expressions.eval_cs.calls", "count", _calls("expressions.eval_cs")),
    ("expressions.eval_cs.busy_s", "s", _busy("expressions.eval_cs")),
    ("verify.verify_against_autodiff.busy_s", "s",
     _busy("verify.verify_against_autodiff")),
    ("verify.samples_used", "count", _count("verify.samples_used")),
    ("verify.resampled", "count", _count("verify.resampled")),
    ("verify.accept_ratio", "ratio", _accept_ratio),
    ("selfcheck.run_self_checks.busy_s", "s",
     _busy("selfcheck.run_self_checks")),
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.main.busy_s", "s", _busy("cli.main")),
)

#: Ratios are not divided by the number of traced rounds.
RATIOS = {"stability.locate_transitions.evals_per_root", "verify.accept_ratio"}


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Every per-layer metric as a per-round value; ratios as they are."""
    out = {}
    for name, _, read in PER_LAYER:
        value = read(tracer)
        out[name] = value if name in RATIOS else value / rounds
    return out
