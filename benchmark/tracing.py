"""Spans and counters recorded around the calls into each entrodyn module.

Nothing in the package is instrumented. The tracer replaces, for the length
of a traced pass, the attribute each caller looks up with a wrapper, and
restores it afterwards:

* ``main`` calls ``run_simulate`` and friends, and ``run_*`` call
  ``propagate``, ``steady_state`` and the rest, through ``entrodyn.cli``;
* ``dynamics`` calls ``bound_report`` through the ``entropy_bounds`` module;
* ``steady_state`` calls ``build_superoperator`` and ``liouvillian_rhs`` by
  their names in its own module. That module is reached through
  ``sys.modules``, because the package attribute ``entrodyn.steady_state`` is
  the function of the same name.

Spans stay in memory, each with its parent's id, and are written when the run
ends. A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute the caller looks up, layer)
SPAN_TARGETS = (
    ("entrodyn.cli", "run_simulate", "cli"),
    ("entrodyn.cli", "run_steady", "cli"),
    ("entrodyn.cli", "run_audit", "cli"),
    ("entrodyn.cli", "get_model", "models.get_model"),
    ("entrodyn.cli", "propagate", "dynamics.propagate"),
    ("entrodyn.entropy_bounds", "bound_report", "entropy_bounds.bound_report"),
    ("entrodyn.cli", "trace_square_audit", "entropy_bounds.audit"),
    ("entrodyn.cli", "log_inequality_check", "entropy_bounds.audit"),
    ("entrodyn.cli", "gue_hermitian", "operators.ensemble"),
    ("entrodyn.cli", "ginibre_state", "operators.ensemble"),
    ("entrodyn.steady_state", "build_superoperator", "steady_state.build"),
    ("entrodyn.cli", "build_superoperator", "steady_state.build"),
    ("entrodyn.steady_state", "liouvillian_rhs", "steady_state.self_check"),
    ("entrodyn.cli", "steady_state", "steady_state.solve"),
)

# (module, attribute, counter). These are counted and timed but make no span,
# so the caller's self time keeps them: the health gate's eigvalsh stays in
# propagate's self time and the SVD in the steady-state solve's.
COUNT_TARGETS = (
    ("entrodyn.entropy_bounds", "is_hermitian", "entropy_bounds.is_hermitian"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "svd", "linalg.svd"),
)

SPAN_FIELDS = ("id", "parent", "pass", "request", "layer", "start", "end")


class Tracer:
    """Wraps the targets while installed; records spans and per-pass counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # rows of SPAN_FIELDS
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.missing: list[str] = []  # targets the program no longer has
        self.pass_index = 0
        self.request = 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [len(self.spans), self._stack[-1] if self._stack else None,
                   self.pass_index, self.request, layer, time.perf_counter(), None]
            self.spans.append(row)
            self._stack.append(row[0])
            try:
                return fn(*args, **kwargs)
            finally:
                row[6] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _count(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[counter] += time.perf_counter() - start

        return wrapper

    def _replace(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        self.missing.clear()
        for module, attr, layer in SPAN_TARGETS:
            self._replace(module, attr, functools.partial(self._span, layer))
        for module, attr, counter in COUNT_TARGETS:
            self._replace(module, attr, functools.partial(self._count, counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def take_counters(self) -> dict:
        """Counts and leaf seconds since the last call, then reset."""
        out = {"counts": dict(self.counts), "seconds": dict(self.seconds)}
        self.counts.clear()
        self.seconds.clear()
        return out


def layer_times(spans: list[list]) -> dict[int, dict[str, list]]:
    """Per pass and layer: [inclusive seconds, self seconds, spans]; '' holds top-level time."""
    child_time: defaultdict = defaultdict(float)
    for sid, parent, _, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for sid, parent, pass_index, _, layer, start, end in spans:
        for key in (layer, "") if parent is None else (layer,):
            entry = out[pass_index][key]
            entry[0] += end - start
            entry[1] += end - start - child_time[sid]
            entry[2] += 1
    return out
