"""Spans around the public entry points of each compiler layer.

The traced run patches the functions listed in :data:`LAYER_TARGETS` for its
duration.  Each wrapper records a span (name, start, end, parent, op id) in
memory, plus work counts read off the call's arguments and result; nothing
inside ``src/`` is changed.  A layer's self time is its spans' duration minus
the time their child spans cover, so the self times of all layers plus the
harness's own share add up to the traced op time.

Patching replaces the attribute on the defining module or class and every
other loaded ``repro`` module that bound the same object by name (``from x
import f``), and :meth:`Tracer.uninstall` restores them all.  A target that
no longer exists is reported in :attr:`Tracer.missing` and reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Root span name prefix: one root span per benchmark op.
OP_PREFIX = "op."


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    op: int


@dataclass(frozen=True)
class Target:
    """One patched entry point: ``module`` + dotted ``attr`` (``Class.method``)."""

    module: str
    attr: str
    span: str | None  # None: count calls only, record no span
    counter: str | None = None  # count of calls, when wanted
    after: Callable[[Tracer, tuple, dict, Any], None] | None = None
    #: Record no span when the innermost open span has one of these names
    #: (the call is part of that layer's own work).
    skip_inside: tuple[str, ...] = ()


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """The root span of one benchmark op; nested spans share its id."""
        self._op += 1
        with self.span(OP_PREFIX + kind):
            yield

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- analysis ----------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the children's durations."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end_ns - span.start_ns - child_ns[index]
        return dict(totals)

    def root_ns(self) -> int:
        """Total duration of the root (op) spans."""
        return sum(s.end_ns - s.start_ns for s in self.spans if s.parent < 0)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")

    # -- patching ----------------------------------------------------------------

    def install(self, targets: tuple[Target, ...]) -> None:
        for target in targets:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = _wrap(self, target, original)
            self._replace(owner, name, wrapper)
            if isinstance(owner, type):
                continue
            # Rebind module-level aliases created by ``from x import f``.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, alias, wrapper)

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()


def _resolve(target: Target) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{target.module}.{target.attr}")
    return owner, name, vars(owner)[name]


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    if target.span is None:

        @functools.wraps(original)
        def counting(*args, **kwargs):
            tracer.counts[target.counter] += 1
            return original(*args, **kwargs)

        return counting

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if target.skip_inside and tracer.current() in target.skip_inside:
            return original(*args, **kwargs)
        index = tracer._open(target.span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer._close(index)
        if target.counter:
            tracer.counts[target.counter] += 1
        if target.after is not None:
            target.after(tracer, args, kwargs, result)
        return result

    return traced


# -- work counts read at the boundaries -----------------------------------------


def _after_tune(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("tuning.space_size", result.space_size)
    rejections = dict(result.rejections)
    tracer.count("tuning.grid_points", sum(rejections.values()))
    tracer.count("tuning.legal_points", rejections.get("evaluated", 0))


def _after_generate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("codegen.cuda_bytes", len(result.encode()))


def _after_symbolic(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("verify.classes_checked", result.classes_checked)


def _after_simulate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("gpu.points_executed", result.counters.stencil_updates)


def _entry_bytes(cache: Any, key: str) -> int:
    try:
        return os.path.getsize(cache.entry_dir / f"{key}.pkl")
    except OSError:
        return 0


def _after_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    cache, key = args[0], args[1]
    if result is None:
        tracer.count("cache.misses")
    else:
        tracer.count("cache.hits")
        tracer.count("cache.bytes_read", _entry_bytes(cache, key))


def _after_cache_put(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("cache.bytes_written", _entry_bytes(args[0], args[1]))


#: The public entry point of each layer, and the span name it is timed under.
LAYER_TARGETS: tuple[Target, ...] = (
    Target("repro.frontend", "parse_stencil", "frontend.parse"),
    Target("repro.model.preprocess", "canonicalize", "model.canonicalize"),
    Target("repro.tiling.tile_size", "select_tile_sizes", "tiling.select"),
    Target("repro.tiling.tile_size", "TileSizeModel.estimate", None,
           "tiling.estimates"),
    Target("repro.tiling.hexagon", "HexagonalTileShape.__post_init__", None,
           "tiling.shapes"),
    Target("repro.tiling.validate", "validate_hybrid_tiling", "tiling.validate"),
    Target("repro.tiling.schedule_arrays", "build_schedule_arrays",
           "tiling.schedule_arrays"),
    Target("repro.tuning.tuner", "tune", "tuning.tune", after=_after_tune),
    Target("repro.tuning.space", "CandidateSpace.enumerate", "tuning.enumerate"),
    Target("repro.tuning.objectives", "evaluate_candidate", "tuning.trial"),
    Target("repro.codegen.shared_mem", "plan_shared_memory", "codegen.memory"),
    Target("repro.codegen.cuda", "CudaCodeGenerator.generate", "codegen.cuda",
           after=_after_generate),
    Target("repro.codegen.kernel_ir", "analyze_core_loop", "codegen.cuda"),
    Target("repro.codegen.analysis", "AnalyticProfiler.estimate", "codegen.analysis"),
    Target("repro.gpu.perf_model", "PerformanceModel.estimate", "codegen.analysis"),
    Target("repro.verify.symbolic", "verify_tiling_plan", "verify.symbolic",
           after=_after_symbolic),
    Target("repro.verify.symbolic", "verify_hybrid", "verify.refute",
           skip_inside=("verify.symbolic",)),
    Target("repro.verify.lint", "lint_cuda", "verify.lint"),
    Target("repro.gpu.simulator", "FunctionalSimulator.run", "gpu.simulate",
           after=_after_simulate),
    Target("repro.model.program", "StencilProgram.run_reference",
           "stencils.reference"),
    Target("repro.cache.disk", "DiskCache.get", "cache.get", after=_after_cache_get),
    Target("repro.cache.disk", "DiskCache.put", "cache.put", after=_after_cache_put),
    Target("repro.api.session", "Session.run", "api.run"),
    Target("repro.api.session", "program_digest", "api.digest", "api.digest_calls"),
    Target("repro.cache.keys", "stage_key", "api.key"),
    Target("repro.obs.history", "RunHistory.append", "obs.history_append",
           "obs.history_appends"),
)
