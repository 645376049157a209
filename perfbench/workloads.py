"""The benchmark's ops, its four workloads, and the known answers they check.

Import this module only after ``run.py`` has pointed ``HEXCC_CACHE_DIR`` and
``HEXCC_TUNING_DB`` at the run's own directory: ``repro`` reads them lazily,
but nothing here may touch the user's cache.

Every op drives the public library surface (``repro.api.Session``,
``repro.tuning.tune``, ``repro.verify``, ``repro.tiling.validate``,
``repro.gpu.simulator``) or a ``hexcc`` subprocess, one at a time, in a closed
loop with a single client.  Library calls go through module attributes
(``tuning.tune``, not a bound name) so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np

import repro.api as api
import repro.cache as cache_module
import repro.gpu.simulator as simulator
import repro.model.preprocess as preprocess
import repro.stencils as stencils
import repro.tiling.hybrid as hybrid
import repro.tiling.validate as validate
import repro.tuning as tuning
import repro.tuning.objectives as objectives
import repro.verify as verify
import repro.verify.symbolic as symbolic
from repro.api.config import table4_configurations

import programs

WORKLOADS = ("cold-2d", "cold-3d", "warm-repeat", "check-small")

STENCILS_2D = ("fdtd_2d", "gradient_2d", "heat_2d", "jacobi_2d", "laplacian_2d")
STENCILS_3D = ("gradient_3d", "heat_3d", "laplacian_3d")

#: The cheap, fixed target of every probe op (see :data:`PROBES`).
PROBE_STENCIL = "jacobi_1d"

#: The mutant a refute probe verifies, on each fault-test target in turn.
PROBE_MUTATION = "phase-swap"

#: Grid-sweep budget of one ``tune`` op (model objective).
TUNE_BUDGET = 8

#: The Table-4 configuration an incremental recompile switches to.  It is the
#: only one sharing the default's tiling key (inter-tile reuse stays on), so
#: only memory, codegen and analysis recompute.
INCREMENTAL_CONFIG = "e"

#: ``hexcc list`` and warm ``hexcc compile`` subprocesses per warm-repeat round.
CLI_STARTS_PER_ROUND = 1
CLI_COMPILES_PER_ROUND = 2

#: Cold compiles of each 3-D stencil per cold-3d round (one sweep each).
COLD_3D_COMPILES = 3

#: Memory hits, and disk hit + incremental pairs, after each compile.  They
#: take milliseconds, so several per compile give them as many samples as
#: the slow ops get.
FOLLOW_UPS = 3

#: Probe samples per run.  A result must carry every end-to-end metric, so a
#: workload samples each metric outside its focus with this many probe ops on
#: ``PROBE_STENCIL``, spread evenly over the measured seconds.  One probe
#: op's time varies by about 10% from sample to sample on a shared host, so
#: each count is the fewest samples whose median holds still from run to run;
#: that keeps probes to a fifth of a 25-second run or less (measured shares
#: in README.md), and a workload's own ops get the rest.
PROBES: dict[str, dict[str, int]] = {
    "cold-2d": {
        "tune": 14, "check": 12, "cli_start": 4, "cli_compile": 4, "refute": 120
    },
    "cold-3d": {"check": 12, "cli_start": 4, "cli_compile": 4, "refute": 120},
    "warm-repeat": {"compile_cold": 40, "tune": 14, "check": 12, "refute": 120},
    "check-small": {"tune": 14, "cli_start": 4, "cli_compile": 4},
}

#: Generated check-small programs per round: one of each class.
GENERATED_PER_ROUND = len(programs.CLASSES)

#: The fault-test targets: (stencil, sizes, steps, h, widths, inner dims).
FAULT_TARGETS = (
    ("jacobi_1d", (24,), 6, 1, (4,), 0),
    ("jacobi_2d", (12, 12), 4, 1, (2, 4), 1),
    ("heat_3d", (8, 8, 8), 4, 1, (2, 4, 5), 2),
)

#: Deterministic output fields, in the order drift is reported.
OUTPUT_FIELDS = ("cuda_sha256", "tile_sizes", "classes_checked", "gstencils")


def outputs(run: Any) -> dict[str, Any]:
    """The deterministic outputs of one compile, as recorded in expected.json."""
    data: dict[str, Any] = {
        "cuda_sha256": hashlib.sha256(
            run.artifact("codegen").cuda_source.encode()
        ).hexdigest(),
        "gstencils": run.artifact("analysis").report.gstencils_per_second,
    }
    if "verify" in run.artifacts:
        sizes = run.artifact("tiling").sizes
        data["tile_sizes"] = [sizes.height, *sizes.widths]
        data["classes_checked"] = run.artifact("verify").schedule.classes_checked
    return data


def first_difference(expected: dict[str, Any], actual: dict[str, Any]) -> str | None:
    """The first output field that differs, as ``field: expected -> actual``."""
    for field in OUTPUT_FIELDS:
        if field not in expected:
            continue
        want, got = expected[field], actual.get(field)
        if isinstance(want, float) and isinstance(got, float):
            same = math.isclose(want, got, rel_tol=1e-9)
        else:
            same = want == got
        if not same:
            return f"{field}: {want!r} -> {got!r}"
    return None


def _verify_problem(report: Any) -> str | None:
    if report.ok:
        return None
    summary = report.summary()
    return (
        f"verify: races={summary.get('races')} coverage_ok="
        f"{summary.get('coverage_ok')} lint_errors={summary.get('lint_errors')} "
        f"{summary.get('race_messages', summary.get('lint_messages', ''))}"
    )


def _copy(fields: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: value.copy() for name, value in fields.items()}


class Harness:
    """Runs ops, times them, and checks their outputs against known answers."""

    def __init__(
        self, workload: str, seed: int, work: Path, root: Path, expected: dict
    ) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.work = work
        self.root = root
        self.expected = expected
        self.tracer: Any = None
        #: A reference.HostReference sampled between ops, or None.
        self.reference: Any = None
        #: Timing samples: op kind -> program -> milliseconds.
        self.samples: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: Generated programs are sampled under their class, since each one
        #: runs once: op label -> program name in :attr:`samples`.
        self.program_of: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict[str, Any]] = []
        self.drift: list[dict[str, Any]] = []
        self.gstencils: dict[str, float] = {}
        self.mutants = 0
        self.killed = 0
        #: Summed duration of every op body that returned (traced-run overhead).
        self.op_ns = 0
        self._dirs = itertools.count()
        self._config = table4_configurations()[INCREMENTAL_CONFIG]
        # Set by setup().
        self.fault_models: list[tuple[str, int, Any, Any]] = []
        self.probe_cache: Path | None = None
        self.warm_session: Any = None
        self.warm_cache: Path | None = None
        # Set by plan_probes(): (due second, kind, index), soonest first.
        self._probe_plan: list[tuple[float, str, int]] = []
        self._probe_start = 0.0
        #: Wall time spent in probe ops, for the probe share of a run.
        self.probe_ns = 0

    # -- op plumbing -------------------------------------------------------------

    def fresh_dir(self, prefix: str = "cache") -> Path:
        return self.work / f"{prefix}-{next(self._dirs)}"

    def run_op(
        self,
        kind: str,
        label: str,
        body: Callable[[], Any],
        check: Callable[[Any], str | None] | None = None,
        source: str | None = None,
    ) -> Any:
        """Time ``body``; a raise or a failed check makes the op failed.

        Only the body is timed; checks run after the clock stops.  A failed
        op contributes no timing sample.  A host-speed sample of
        :attr:`reference` may be taken before the clock starts.
        """
        if self.reference is not None:
            self.reference.maybe_sample()
        self.attempted += 1
        span = self.tracer.op(kind) if self.tracer is not None else nullcontext()
        start = time.perf_counter_ns()
        try:
            with span:
                result = body()
        except Exception as error:  # noqa: BLE001 — any failure is a result
            self._fail(kind, label, f"raised {type(error).__name__}: {error}", source)
            return None
        elapsed_ns = time.perf_counter_ns() - start
        self.op_ns += elapsed_ns
        elapsed_ms = elapsed_ns / 1e6
        problem = check(result) if check is not None else None
        if problem is not None:
            self._fail(kind, label, problem, source)
            return None
        self.samples[kind][self.program_of.get(label, label)].append(elapsed_ms)
        return result

    def _fail(self, kind: str, label: str, reason: str, source: str | None) -> None:
        failure = {"kind": kind, "op": label, "reason": reason}
        if source is not None:
            failure["source"] = source
        self.failures.append(failure)

    def _drifted(self, label: str, expected: dict | None, actual: dict) -> None:
        if expected is None:
            self.drift.append({"op": label, "field": "no expected outputs recorded"})
            return
        difference = first_difference(expected, actual)
        if difference is not None:
            self.drift.append({"op": label, "field": difference})

    # -- known answers -----------------------------------------------------------

    def check_library(self, name: str, run: Any) -> str | None:
        """Race-free, lint-clean, and the seed commit's outputs (else drift)."""
        problem = _verify_problem(run.artifact("verify"))
        if problem is not None:
            return problem
        actual = outputs(run)
        self.gstencils[name] = actual["gstencils"]
        self._drifted(name, self.expected.get(name, {}).get("default"), actual)
        return None

    def check_incremental(self, name: str, run: Any) -> str | None:
        expected = self.expected.get(name, {}).get(f"config_{INCREMENTAL_CONFIG}")
        self._drifted(f"{name}/config_{INCREMENTAL_CONFIG}", expected, outputs(run))
        return None

    def check_kill(self, mutation: Any, verdict: Any) -> str | None:
        self.mutants += 1
        if verdict.ok or not verdict.races:
            return f"mutant {mutation.name} survived"
        level = verdict.races[0].level
        if level not in mutation.expected_levels:
            return (
                f"mutant {mutation.name} killed at {level!r}, expected one of "
                f"{mutation.expected_levels}"
            )
        self.killed += 1
        return None

    # -- ops ---------------------------------------------------------------------

    def compile_group(self, name: str, follow_up: bool = True) -> None:
        """Cold compile through verify; then memory, disk and incremental runs."""
        program = stencils.get_stencil(name)
        cache_dir = self.fresh_dir()
        session = api.Session(disk_cache=cache_module.DiskCache(cache_dir))
        run = self.run_op(
            "compile_cold",
            name,
            lambda: session.run(program, stop_after="verify"),
            lambda r: self.check_library(name, r),
        )
        if run is not None and follow_up:
            self.follow_ups(
                name, program, session, cache_dir,
                lambda r: self.check_library(name, r),
                lambda r: self.check_incremental(name, r),
            )
        shutil.rmtree(cache_dir, ignore_errors=True)

    def follow_ups(
        self,
        label: str,
        program: Any,
        session: Any,
        cache_dir: Path,
        check: Callable[[Any], str | None],
        check_incremental: Callable[[Any], str | None] | None = None,
    ) -> None:
        """Memory hits on ``session``, then disk hits and incremental recompiles."""
        for _ in range(FOLLOW_UPS):
            self.run_op(
                "compile_warm",
                label,
                lambda: session.run(program, stop_after="verify"),
                check,
            )
        for _ in range(FOLLOW_UPS):
            self.disk_and_incremental(
                label, program, cache_dir, check, check_incremental
            )

    def disk_and_incremental(
        self,
        label: str,
        program: Any,
        cache_dir: Path,
        check: Callable[[Any], str | None],
        check_incremental: Callable[[Any], str | None] | None = None,
    ) -> None:
        """A disk hit on a fresh Session, then an incremental recompile on it.

        After the disk hit the session's memory tier holds every stage; with
        the disk tier detached, the other configuration recomputes memory,
        codegen and analysis only, and writes nothing a later op could hit.
        """
        session = api.Session(disk_cache=cache_module.DiskCache(cache_dir))
        run = self.run_op(
            "compile_disk",
            label,
            lambda: session.run(program, stop_after="verify"),
            check,
        )
        if run is None:
            return
        session.disk_cache = None
        self.run_op(
            "compile_incremental",
            label,
            lambda: session.run(program, config=self._config, stop_after="analysis"),
            check_incremental,
        )

    def warm_group(self, name: str) -> None:
        """warm-repeat: memory hits, disk hits and incremental on warm tiers."""
        self.follow_ups(
            name, stencils.get_stencil(name), self.warm_session, self.warm_cache,
            lambda r: self.check_library(name, r),
            lambda r: self.check_incremental(name, r),
        )

    def tune_op(self, name: str, seed: int) -> None:
        """One grid sweep, started as a fresh process would start it.

        Every trial must succeed.  The sweep's baseline is the model's
        selection, so its tile sizes are compared with the ones recorded in
        expected.json (a difference is drift).
        """
        program = stencils.get_stencil(name)
        recorded = self.expected.get(name, {}).get("default", {})
        expected = {"tile_sizes": recorded["tile_sizes"]} if recorded else None

        def check(result: Any) -> str | None:
            failed = [trial for trial in result.trials if not trial.ok]
            if failed:
                return f"tune: {len(failed)} trials failed: {failed[0].error}"
            sizes = result.baseline.candidate.sizes
            actual = {"tile_sizes": [sizes.height, *sizes.widths]}
            self._drifted(f"{name}/tune baseline", expected, actual)
            return None

        # The objective keeps one session per process; a new sweep in a new
        # process starts without it.
        sessions = getattr(objectives, "_SESSIONS", None)
        if isinstance(sessions, dict):
            sessions.clear()
        self.run_op(
            "tune",
            name,
            lambda: tuning.tune(
                program, strategy="grid", objective="model", budget=TUNE_BUDGET,
                seed=seed,
            ),
            check,
        )

    def check_op(
        self, label: str, program: Any, sim_seed: int, source: str | None = None
    ) -> None:
        """Cold compile of a small instance, exhaustive validate, simulate.

        ``program`` is a library :class:`StencilProgram`, or generated C text
        (then also passed as ``source``, for the failure report).  Known
        answers: verify race-free and lint-clean, ``validate`` ok, and the
        simulation equal to ``run_reference`` bit for bit.  On check-small the
        compile is also a cold-compile sample, and a library stencil gets the
        follow-up runs.
        """
        cache_dir = self.fresh_dir()
        session = api.Session(disk_cache=cache_module.DiskCache(cache_dir))
        compile_ms: list[float] = []

        def body() -> tuple:
            start = time.perf_counter_ns()
            run = session.run(program, stop_after="verify")
            compile_ms.append((time.perf_counter_ns() - start) / 1e6)
            tiling = run.artifact("tiling").tiling
            report = validate.validate_hybrid_tiling(tiling)
            parsed = run.artifact("parse").program
            initial = parsed.initial_state(sim_seed)
            result = simulator.FunctionalSimulator(
                tiling, run.artifact("memory").plan, run.request.config
            ).run(initial=_copy(initial))
            reference = parsed.run_reference(initial=_copy(initial))
            return run, report, result, reference

        def check(outcome: tuple) -> str | None:
            run, report, result, reference = outcome
            problem = _verify_problem(run.artifact("verify"))
            if problem is not None:
                return problem
            if not report.ok:
                return f"validate: {report}"
            for field, expected in reference.items():
                actual = result.final_fields.get(field)
                if actual is None or not np.array_equal(actual, expected):
                    return f"simulation: field {field} differs from run_reference"
            return None

        outcome = self.run_op("check", label, body, check, source)
        if outcome is not None and self.workload == "check-small":
            program_name = self.program_of.get(label, label)
            self.samples["compile_cold"][program_name].append(compile_ms[0])
            # A generated program runs once, and what a warm run of it costs
            # depends on the seed; only library stencils are followed up.
            if source is None:
                report = outcome[0].artifact("analysis").report
                self.gstencils[label] = report.gstencils_per_second
                self.follow_ups(
                    label, program, session, cache_dir,
                    lambda r: _verify_problem(r.artifact("verify")),
                )
        shutil.rmtree(cache_dir, ignore_errors=True)

    def refute_cases(self) -> list[tuple[str, Any, Any, Any]]:
        """Every mutant of the corpus on every fault-test target."""
        return [
            (f"{target}/{mutation.name}", canonical, model, mutation)
            for target, inner, canonical, model in self.fault_models
            for mutation in verify.mutation_corpus(inner_dims=inner)
        ]

    def probe_refute_cases(self) -> list[tuple[str, Any, Any, Any]]:
        """``PROBE_MUTATION`` on each fault-test target."""
        return [
            case for case in self.refute_cases()
            if case[3].name == PROBE_MUTATION
        ]

    def refute_op(self, label: str, canonical: Any, model: Any, mutation: Any) -> None:
        """One mutant verdict; the first finding must be at an expected level."""
        mutant = mutation.apply(model)
        self.run_op(
            "refute",
            label,
            lambda: symbolic.verify_hybrid(canonical, mutant),
            lambda v: self.check_kill(mutation, v),
        )

    def cli_op(self, kind: str, args: list[str], cache_dir: Path, expect: str) -> None:
        """One ``hexcc`` subprocess (``python -m repro.cli``), wall time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["HEXCC_CACHE_DIR"] = str(cache_dir)

        def body() -> subprocess.CompletedProcess:
            traced = self.tracer is not None
            with self.tracer.span("cli.run") if traced else nullcontext():
                return subprocess.run(
                    [sys.executable, "-m", "repro.cli", *args],
                    env=env, cwd=self.root, capture_output=True, text=True,
                    timeout=120, check=False,
                )

        def check(done: subprocess.CompletedProcess) -> str | None:
            if done.returncode != 0:
                return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
            if expect not in done.stdout:
                return f"output lacks {expect!r}"
            return None

        self.run_op(kind, " ".join(args), body, check)

    def cli_start_op(self) -> None:
        """``hexcc list``: interpreter start-up plus the CLI's imports."""
        self.cli_op("cli_start", ["list"], self.work / "cli-home", PROBE_STENCIL)

    # -- set-up and rounds -------------------------------------------------------

    def setup(self) -> None:
        """Everything a round needs, built before the clock starts."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.fault_models = []
        for name, sizes, steps, height, widths, inner in FAULT_TARGETS:
            canonical = preprocess.canonicalize(
                stencils.get_stencil(name, sizes=sizes, steps=steps)
            )
            tiling = hybrid.HybridTiling(canonical, hybrid.TileSizes(height, widths))
            model = symbolic.HybridScheduleModel.from_tiling(tiling)
            self.fault_models.append((name, inner, canonical, model))
        # The warm hexcc compile probe reads this cache; compiling it also
        # finishes every lazy import of the pipeline before the clock starts.
        self.probe_cache = self.fresh_dir("probe")
        api.Session(disk_cache=cache_module.DiskCache(self.probe_cache)).run(
            stencils.get_stencil(PROBE_STENCIL), stop_after="verify"
        )
        if self.workload == "warm-repeat":
            self.warm_cache = self.fresh_dir("warm")
            self.warm_session = api.Session(
                disk_cache=cache_module.DiskCache(self.warm_cache)
            )
            for name in stencils.list_stencils():
                self.warm_session.run(stencils.get_stencil(name), stop_after="verify")

    def round(self, index: int, deadline: float | None = None) -> None:
        """One round of the workload's own ops, in an order shuffled by the seed.

        Probe ops that have come due (see :meth:`plan_probes`) run between
        the round's op groups.  No group starts after ``deadline``
        (``time.perf_counter()``), so a run ends within one group of it.
        """
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        groups: list[Callable[[], None]] = []
        if self.workload == "cold-2d":
            groups += [lambda s=s: self.compile_group(s) for s in STENCILS_2D]
        elif self.workload == "cold-3d":
            for _ in range(COLD_3D_COMPILES):
                groups += [lambda s=s: self.compile_group(s) for s in STENCILS_3D]
            groups += [
                lambda s=s, n=rng.randrange(2**31): self.tune_op(s, n)
                for s in STENCILS_3D
            ]
        elif self.workload == "warm-repeat":
            names = stencils.list_stencils()
            groups += [lambda s=s: self.warm_group(s) for s in names]
            groups += [self.cli_start_op] * CLI_STARTS_PER_ROUND
            start = index * CLI_COMPILES_PER_ROUND
            for offset in range(CLI_COMPILES_PER_ROUND):
                name = names[(start + offset) % len(names)]
                groups.append(
                    lambda s=name: self.cli_op(
                        "cli_compile", ["compile", s], self.warm_cache,
                        f"compilation of {s}",
                    )
                )
        else:  # check-small
            for name in stencils.list_stencils():
                ndim = stencils.get_definition(name).dimensions
                sizes, steps = programs.SMALL_INSTANCES[ndim]
                program = stencils.get_stencil(name, sizes=sizes, steps=steps)
                sim_seed = rng.randrange(2**31)
                groups.append(
                    lambda s=name, p=program, n=sim_seed: self.check_op(s, p, n)
                )
            for name, kind, source in programs.generate(
                self.seed, GENERATED_PER_ROUND, offset=index * GENERATED_PER_ROUND
            ):
                self.program_of[name] = f"generated {kind}"
                sim_seed = rng.randrange(2**31)
                groups.append(
                    lambda s=name, src=source, n=sim_seed: self.check_op(s, src, n, src)
                )
            groups += [
                lambda case=case: self.refute_op(*case) for case in self.refute_cases()
            ]
        rng.shuffle(groups)
        for group in groups:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            self.run_due_probes()
            group()

    # -- probes ------------------------------------------------------------------

    def plan_probes(self, seconds: float) -> None:
        """Spread each kind's ``PROBES`` count evenly over the next ``seconds``."""
        plan = [
            ((j + 0.5) / count * seconds, kind, j)
            for kind, count in PROBES[self.workload].items()
            for j in range(count)
        ]
        self._probe_plan = sorted(plan, key=lambda due: due[0])
        self._probe_start = time.perf_counter()

    def run_due_probes(self, all_left: bool = False) -> None:
        """Run the planned probes that are due, or ``all_left`` of them."""
        elapsed = time.perf_counter() - self._probe_start
        while self._probe_plan and (all_left or self._probe_plan[0][0] <= elapsed):
            _, kind, j = self._probe_plan.pop(0)
            self.probe(kind, j)

    def probe(self, kind: str, j: int) -> None:
        """The ``j``-th probe op of ``kind`` on ``PROBE_STENCIL``."""
        rng = random.Random(f"{self.workload}/{self.seed}/probe/{kind}/{j}")
        start = time.perf_counter_ns()
        self._probe(kind, j, rng)
        self.probe_ns += time.perf_counter_ns() - start

    def _probe(self, kind: str, j: int, rng: random.Random) -> None:
        if kind == "compile_cold":
            self.compile_group(PROBE_STENCIL, follow_up=False)
        elif kind == "tune":
            self.tune_op(PROBE_STENCIL, rng.randrange(2**31))
        elif kind == "check":
            sizes, steps = programs.SMALL_INSTANCES[1]
            program = stencils.get_stencil(PROBE_STENCIL, sizes=sizes, steps=steps)
            self.check_op(PROBE_STENCIL, program, rng.randrange(2**31))
        elif kind == "cli_start":
            self.cli_start_op()
        elif kind == "cli_compile":
            self.cli_op(
                "cli_compile", ["compile", PROBE_STENCIL], self.probe_cache,
                f"compilation of {PROBE_STENCIL}",
            )
        elif kind == "refute":
            cases = self.probe_refute_cases()
            self.refute_op(*cases[j % len(cases)])
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
