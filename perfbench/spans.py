"""Span tracing of rscn's layers, from outside the program.

Each traced function is wrapped at every module binding that holds it
(``rscn.build.solve_output_weights`` and ``rscn.baselines.solve_output_weights``
are one function under two names, and both are replaced), so calls made
inside the program are seen as well as calls made by the benchmark. A
span is ``[name, parent index, operation, start, end]``; spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

OP = "op"


def _node_steps(counters, args, kwargs, result):
    counters["model.run_reservoir.node_steps"] += result.states.size


def _pool_outcome(counters, args, kwargs, result):
    counters["build.configure_node.accepted"] += result.best is not None


def _csv_bytes(counters, args, kwargs, result):
    counters["online.diagnostics_csv.bytes"] += len(result)


# (span name, module, attribute, counter hook or None)
FUNCTIONS = (
    ("tasks.task_from_manifest", "rscn.tasks", "task_from_manifest", None),
    ("build.build_rscn", "rscn.build", "build_rscn", None),
    ("build.configure_node", "rscn.build", "configure_node", _pool_outcome),
    ("build.solve_output_weights", "rscn.build", "solve_output_weights", None),
    ("model.run_reservoir", "rscn.model", "run_reservoir", _node_steps),
    ("model.load_model", "rscn.model", "load_model", None),
    ("spectral.esp_check", "rscn.spectral", "esp_check", None),
    ("spectral.scale_feedback", "rscn.spectral", "scale_feedback", None),
    ("baselines.build_baseline", "rscn.baselines", "build_baseline", None),
    ("evaluate.evaluate_model", "rscn.evaluate", "evaluate_model", None),
    ("evaluate.run_trials", "rscn.evaluate", "run_trials", None),
    ("evaluate.grid_search", "rscn.evaluate", "grid_search", None),
    ("online.online_run", "rscn.online", "online_run", None),
    ("online.project_step", "rscn.online", "project_step", None),
    ("online.project_step_decreasing", "rscn.online", "project_step_decreasing", None),
    ("online.project_step_deadzone", "rscn.online", "project_step_deadzone", None),
    ("online.diagnostics_csv", "rscn.online", "diagnostics_csv", _csv_bytes),
)
# construction with validation: every ReservoirModel, dataclasses.replace included
METHODS = (("model.ReservoirModel", "rscn.model", "ReservoirModel", "__post_init__"),)


class Tracer:
    """Records one span per call of every traced function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "rscn" or k.startswith("rscn.")]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    @contextlib.contextmanager
    def op(self, label: int):
        """Trace one benchmark operation under a root span.

        The wrappers are installed on entry and removed on exit, so code
        the benchmark runs between operations (its checks) is not traced.
        Every span of the operation carries its label.
        """
        self.install()
        index = len(self.spans)
        span = [OP, -1, label, 0.0, 0.0]
        self._stack.append(index)
        self.spans.append(span)
        span[3] = time.perf_counter()
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
            self.uninstall()
            for child in self.spans[index + 1:]:
                child[2] = label

    def self_times(self) -> tuple[dict, Counter]:
        """Self time and call count per span name.

        A span's self time is its duration less the durations of its
        direct children, so the self times of all spans add up to the
        durations of the root (operation) spans.
        """
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, op, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")

