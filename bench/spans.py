"""Result capture and span tracing for the benchmark.

Both work by rebinding names inside the ``fluidaircomp`` modules, so the
program itself carries no benchmark code. Pool workers are forked from the
benchmark process after the rebinding and inherit it; they hand their records
and spans back through one JSON-lines file per worker process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import solve_record

# (module, function) pairs traced as spans named "<module>.<function>".
TRACED_FUNCTIONS = (
    ("model", "mse"),
    ("closed_form", "update_m"),
    ("closed_form", "update_b"),
    ("apv_objective", "effective_weights"),
    ("pdip", "solve_pdip"),
    ("pdip", "newton_step"),
    ("pdip", "residuals"),
    ("sca", "build_surrogate"),
    ("sca", "solve_sca"),
    ("pgd", "project_feasible"),
    ("pgd", "solve_pgd"),
    ("experiments", "run_sweep"),
)
TRACED_METHODS = (("apv_objective", "ApvObjective", ("value", "gradient", "hessian")),)


def _module(name: str):
    return sys.modules[f"fluidaircomp.{name}"]


def _rebind_everywhere(original, replacement) -> list[tuple]:
    """Point every fluidaircomp module attribute bound to ``original`` at
    ``replacement``; returns the (module, attribute, old value) list to undo."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fluidaircomp" and not mod_name.startswith("fluidaircomp."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _append_jsonl(path: Path, items) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(item) + "\n")


def _drain_jsonl(out_dir: Path, prefix: str) -> list:
    items = []
    for path in sorted(out_dir.glob(f"{prefix}-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            items.extend(json.loads(line) for line in fh)
        path.unlink()
    return items


def _method_of(options) -> str:
    return "pdip" if options is None else options.method


class SolveCapture:
    """Records every ``ao_optimize`` call that ``run_sweep`` makes, in this
    process or in its pool workers, as a ``checks.solve_record``."""

    def __init__(self, out_dir: Path):
        self.owner = os.getpid()
        self.out_dir = out_dir
        self.records: list[dict] = []
        self.undo: list[tuple] = []

    def _add(self, record: dict) -> None:
        if os.getpid() == self.owner:
            self.records.append(record)
        else:
            _append_jsonl(self.out_dir / f"records-{os.getpid()}.jsonl", [record])

    def install(self) -> None:
        driver, experiments = _module("driver"), _module("experiments")

        def ao_optimize(scenario, options=None, seed=None):
            # looked up per call, so a traced ao_optimize is the one that runs
            try:
                report = driver.ao_optimize(scenario, options, seed)
            except Exception as exc:
                self._add(solve_record(scenario, _method_of(options), seed,
                                       error=repr(exc)))
                raise
            self._add(solve_record(scenario, _method_of(options), seed, report))
            return report

        self.undo.append((experiments, "ao_optimize", experiments.ao_optimize))
        experiments.ao_optimize = ao_optimize

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.undo):
            setattr(module, attr, value)
        self.undo.clear()

    def drain(self) -> list[dict]:
        records = self.records + _drain_jsonl(self.out_dir, "records")
        self.records = []
        return records


class Tracer:
    """Records spans (name, start, end, id, parent, info) in memory.

    A span id is (pid, counter). A pool worker inherits the open span of the
    run_sweep call that forked it, so its top-level spans name that span as
    parent. The worker writes its spans out each time its outermost span ends.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.owner = self.pid
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []
        self.base_depth = 0
        self.counter = 0
        self.pools_started = 0
        self.undo: list[tuple] = []

    def _wrap(self, name, fn, info=None):
        tracer = self

        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:  # first span in a forked pool worker
                tracer.pid, tracer.spans, tracer.counter = pid, [], 0
                tracer.base_depth = len(tracer.stack)
            tracer.counter += 1
            span_id = (pid, tracer.counter)
            parent = tracer.stack[-1] if tracer.stack else None
            span_name = name(args, kwargs) if callable(name) else name
            tracer.stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                details = info(result) if info is not None and result is not None else None
                tracer.spans.append((span_name, start, end, span_id, parent, details))
                if pid != tracer.owner and len(tracer.stack) == tracer.base_depth:
                    _append_jsonl(tracer.out_dir / f"spans-{pid}.jsonl", tracer.spans)
                    tracer.spans = []

        return traced

    def install(self) -> None:
        solver_info = lambda r: {"iterations": int(r.iterations),
                                 "converged": bool(r.converged)}
        for mod_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(_module(mod_name), fn_name)
            info = solver_info if fn_name.startswith("solve_") else None
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original, info)
            self.undo += _rebind_everywhere(original, wrapped)
        for mod_name, cls_name, method_names in TRACED_METHODS:
            cls = getattr(_module(mod_name), cls_name)
            for method_name in method_names:
                original = cls.__dict__[method_name]
                setattr(cls, method_name,
                        self._wrap(f"{mod_name}.{method_name}", original))
                self.undo.append((cls, method_name, original))

        def driver_name(args, kwargs):
            options = args[1] if len(args) > 1 else kwargs.get("options")
            return f"driver.{_method_of(options)}"

        original = _module("driver").ao_optimize
        wrapped = self._wrap(driver_name, original, lambda r: {
            "rounds": int(r.rounds), "inner_iterations": int(sum(r.inner_iterations))})
        self.undo += _rebind_everywhere(original, wrapped)

        tracer = self
        pool_cls = _module("experiments").ProcessPoolExecutor

        class CountingPool(pool_cls):
            def __init__(self, *args, **kwargs):
                tracer.pools_started += 1
                super().__init__(*args, **kwargs)

        self.undo += _rebind_everywhere(pool_cls, CountingPool)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()

    def collect(self) -> list[tuple]:
        """All spans of this process and its pool workers; writes them to
        spans.jsonl in the output directory."""
        spans = [tuple(s) for s in self.spans]
        for item in _drain_jsonl(self.out_dir, "spans"):
            name, start, end, span_id, parent, info = item
            spans.append((name, start, end, tuple(span_id),
                          tuple(parent) if parent else None, info))
        _append_jsonl(self.out_dir / "spans.jsonl", spans)
        return spans


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds, and summed info.

    Self time is a span's duration minus that of its children in the same
    process; children in pool workers run in parallel and are not subtracted.
    """
    child_time: dict[tuple, float] = defaultdict(float)
    for _, start, end, span_id, parent, _ in spans:
        if parent is not None and parent[0] == span_id[0]:
            child_time[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for name, start, end, span_id, _, info in spans:
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
        for key, value in (info or {}).items():
            row[key] += float(value)
    return table
