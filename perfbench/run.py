"""The hexcc benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-2d --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up ``SETUP_REPEATS`` times, then runs rounds of the
workload until ``--seconds`` have passed, with its probe ops spread over
them, and reports every end-to-end metric of ``BENCHMARK.json``, each time
divided by the host factor of ``reference.py``.
``--trace 1`` sets up once, then runs the workload's first round plus one
probe op of each kind ``TRACE_PAIRS`` times untraced and as often with the
layer spans of ``spans.py`` installed, alternating, and reports every
per-layer metric;
its work counts depend on the seed only.  Either way the
human-readable report (environment, each metric with unit and sample count,
every failed or drifting op) goes to standard output, a JSON copy with the
spans file goes to ``.perfbench_out/``, and the last line of standard output
is the result object ``{"correct", "attempted", "failed", "metrics"}``.

The run owns its compiler state: ``HEXCC_CACHE_DIR`` and ``HEXCC_TUNING_DB``
point into a fresh directory under ``.perfbench_work/`` that is removed at
exit, so every run starts from an empty cache and history and the user's
cache is never touched.  A measured run refuses to start when
``HEXCC_FAULT_DELAY``, ``HEXCC_CACHE_DISABLE`` or ``HEXCC_HISTORY_DISABLE`` is
set; ``--allow-fault-delay`` admits the first for the self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
TRACE_PAIRS = 2
CLI_FLOOR_REPEATS = 3

#: Host-speed samples taken before and after each set-up.
SETUP_REFERENCE_SAMPLES = 5

#: Units of the end-to-end metrics that are divided by the host factor.
TIME_UNITS = ("ms", "s")

REFUSED_ENV = ("HEXCC_FAULT_DELAY", "HEXCC_CACHE_DISABLE", "HEXCC_HISTORY_DISABLE")

#: What one set-up imports, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import repro.api, repro.frontend, repro.gpu.simulator, repro.tiling.validate, "
    "repro.tuning, repro.verify"
)

#: End-to-end timings: metric name -> the op kind whose samples it reads.
OP_METRICS = {
    "refute_ms": "refute",
    "compile_cold_ms": "compile_cold",
    "tune_ms": "tune",
    "compile_warm_ms": "compile_warm",
    "compile_disk_ms": "compile_disk",
    "compile_incremental_ms": "compile_incremental",
    "cli_start_ms": "cli_start",
    "cli_compile_ms": "cli_compile",
    "check_ms": "check",
}

#: Per-layer self times: metric name -> span name (see spans.LAYER_TARGETS).
SELF_TIME_METRICS = {
    "frontend.parse_ms": "frontend.parse",
    "model.canonicalize_ms": "model.canonicalize",
    "tiling.select_ms": "tiling.select",
    "tiling.validate_ms": "tiling.validate",
    "tiling.schedule_arrays_ms": "tiling.schedule_arrays",
    "tuning.tune_self_ms": "tuning.tune",
    "tuning.enumerate_ms": "tuning.enumerate",
    "tuning.trial_ms": "tuning.trial",
    "codegen.memory_ms": "codegen.memory",
    "codegen.cuda_ms": "codegen.cuda",
    "codegen.analysis_ms": "codegen.analysis",
    "verify.symbolic_ms": "verify.symbolic",
    "verify.lint_ms": "verify.lint",
    "verify.refute_ms": "verify.refute",
    "gpu.simulate_ms": "gpu.simulate",
    "stencils.reference_ms": "stencils.reference",
    "cache.get_ms": "cache.get",
    "cache.put_ms": "cache.put",
    "api.run_self_ms": "api.run",
    "api.digest_ms": "api.digest",
    "api.key_ms": "api.key",
    "obs.history_append_ms": "obs.history_append",
    "cli.run_ms": "cli.run",
}

#: Per-layer work counts read at the span boundaries.
COUNT_METRICS = (
    "tiling.estimates",
    "tiling.shapes",
    "tuning.space_size",
    "codegen.cuda_bytes",
    "verify.classes_checked",
    "gpu.points_executed",
    "cache.hits",
    "cache.misses",
    "cache.bytes_read",
    "cache.bytes_written",
    "api.digest_calls",
    "obs.history_appends",
)


class Refused(Exception):
    """The run cannot be measured here; nothing is reported."""


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--allow-fault-delay", action="store_true",
        help="measure even with HEXCC_FAULT_DELAY set (benchmark self-test only)",
    )
    return parser.parse_args(argv)


def load_declared() -> dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Refused(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def check_environment(args: argparse.Namespace) -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise Refused("no src/repro in this checkout; nothing to benchmark")
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if args.allow_fault_delay and "HEXCC_FAULT_DELAY" in refused:
        refused.remove("HEXCC_FAULT_DELAY")
    if refused:
        raise Refused(
            f"refusing a measured run with {', '.join(refused)} set: the numbers "
            "would not describe what users run"
        )


def environment(args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fault_delay": os.environ.get("HEXCC_FAULT_DELAY", ""),
    }


# -- statistics -------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def count(by_program: dict[str, list[float]]) -> int:
    return sum(len(values) for values in by_program.values())


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the sample with exactly ten larger ones,
    and its rank as a percentile of the sorted samples.  With fewer than
    eleven samples no percentile qualifies and the maximum is reported.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * index / (len(ordered) - 1)


def geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def program_median(by_program: dict[str, list[float]]) -> float:
    """The geometric mean over programs of each program's median.

    Programs of one op kind differ in cost up to tenfold, so a median over
    their pooled samples would jump from one program to another between
    runs; this weighs every program alike.
    """
    return geomean([median(values) for values in by_program.values()])


def program_tail(by_program: dict[str, list[float]]) -> tuple[float, float]:
    """:func:`tail` of the samples relative to their program's median,
    times :func:`program_median`: the tail of one op of typical cost."""
    ratios = [
        value / median(values) for values in by_program.values() for value in values
    ]
    ratio, percentile = tail(ratios)
    return ratio * program_median(by_program), percentile


def subprocess_seconds(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run -----------------------------------------------------------


def new_harness(args: argparse.Namespace, work: Path, expected: dict) -> Any:
    import workloads

    return workloads.Harness(args.workload, args.seed, work, ROOT, expected)


#: One run's outcome: the harness, metric -> (value, unit, note), a headline.
RunResult = tuple[Any, dict[str, tuple[float, str, str]], str]


def measured_run(
    args: argparse.Namespace, work: Path, expected: dict, declared: dict
) -> RunResult:
    """Set up several times, then rounds for ``--seconds``.

    Every timing is divided by the host factor of the span it was measured
    in, set-up or rounds (see ``reference.py``); the report keeps the raw
    values too.
    """
    import reference

    setup_s: list[float] = []
    harness = None
    with reference.HostReference() as host:
        for repeat in range(SETUP_REPEATS):
            if harness is not None:
                shutil.rmtree(harness.work, ignore_errors=True)
            host.sample(SETUP_REFERENCE_SAMPLES)
            import_s = subprocess_seconds(IMPORT_PROBE)
            start = time.perf_counter()
            harness = new_harness(args, work / f"setup-{repeat}", expected)
            harness.setup()
            setup_s.append(import_s + time.perf_counter() - start)
        host.sample(SETUP_REFERENCE_SAMPLES)
        setup_factor = reference.factor(host.take())

        harness.reference = host
        deadline = time.perf_counter() + args.seconds
        harness.plan_probes(args.seconds)
        rounds = 0
        while time.perf_counter() < deadline:
            harness.round(rounds, deadline)
            rounds += 1
        harness.run_due_probes(all_left=True)
        host.sample()
        harness.reference = None
        run_samples = host.take()
        run_factor = reference.factor(run_samples)
    measured_s = time.perf_counter() - deadline + args.seconds
    probe_share = harness.probe_ns / 1e9 / measured_s

    raw: dict[str, tuple[float, str, str]] = {}
    samples = harness.samples
    for entry in declared["end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name == "setup_s":
            value, note = median(setup_s), f"median of {len(setup_s)} set-ups"
        elif name == "compile_cold_ms_tail":
            value, percentile = program_tail(samples["compile_cold"])
            note = f"p{percentile:.1f} of n={count(samples['compile_cold'])}"
        elif name in OP_METRICS:
            by_program = samples[OP_METRICS[name]]
            value = program_median(by_program)
            note = (
                f"geomean of {len(by_program)} program medians, "
                f"n={count(by_program)}"
            )
        elif name == "est_gstencils_geomean":
            value = geomean(list(harness.gstencils.values()))
            note = f"geomean over {len(harness.gstencils)} programs"
        elif name == "peak_rss_mb":
            value, note = peak_rss_mb(), "ru_maxrss of the benchmark process"
        else:
            raise Refused(f"BENCHMARK.json names an unknown end-to-end metric {name!r}")
        raw[name] = (value, unit, note)

    results: dict[str, tuple[float, str, str]] = {}
    for name, (value, unit, note) in raw.items():
        if unit in TIME_UNITS:
            host_factor = setup_factor if name == "setup_s" else run_factor
            note = f"{note}; raw {value:.4f} / host factor {host_factor:.3f}"
            value /= host_factor
        results[name] = (value, unit, note)
    headline = (
        f"{rounds} rounds in {measured_s:.1f} s, {100 * probe_share:.1f}% in probes; "
        f"host factor {setup_factor:.3f} in set-up, {run_factor:.3f} in rounds "
        f"(median of {len(run_samples)} reference samples)"
    )
    return harness, results, headline


def traced_run(
    args: argparse.Namespace, work: Path, expected: dict, declared: dict
) -> RunResult:
    """The same rounds untraced, then traced; per-layer metrics from the spans."""
    import spans
    import workloads

    interp_s = [subprocess_seconds("pass") for _ in range(CLI_FLOOR_REPEATS)]
    import_s = [
        subprocess_seconds("import repro.cli") for _ in range(CLI_FLOOR_REPEATS)
    ]

    harness = new_harness(args, work / "setup-0", expected)
    harness.setup()
    tracer = spans.Tracer()
    untraced_ns = traced_ns = 0

    def round_and_probes() -> None:
        harness.round(0)
        for kind in workloads.PROBES[args.workload]:
            harness.probe(kind, 0)

    # Untraced and traced passes over the same round alternate, so drift of
    # the host shifts both sides of the overhead alike.
    for _ in range(TRACE_PAIRS):
        before = harness.op_ns
        round_and_probes()
        untraced_ns += harness.op_ns - before
        tracer.install(spans.LAYER_TARGETS)
        harness.tracer = tracer
        before = harness.op_ns
        try:
            round_and_probes()
        finally:
            tracer.uninstall()
            harness.tracer = None
        traced_ns += harness.op_ns - before
    OUT_ROOT.mkdir(exist_ok=True)
    tracer.write(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    self_ns = tracer.self_ns()
    counts = tracer.counts
    op_ns = tracer.root_ns()
    bench_ns = sum(
        ns for name, ns in self_ns.items() if name.startswith(spans.OP_PREFIX)
    )
    values: dict[str, float] = {
        metric: self_ns.get(span, 0) / 1e6 for metric, span in SELF_TIME_METRICS.items()
    }
    values.update({metric: float(counts.get(metric, 0)) for metric in COUNT_METRICS})
    lookups = counts["cache.hits"] + counts["cache.misses"]
    values["cache.hit_ratio"] = counts["cache.hits"] / lookups if lookups else 0.0
    grid = counts["tuning.grid_points"]
    values["tuning.legal_ratio"] = counts["tuning.legal_points"] / grid if grid else 0.0
    values["verify.kill_ratio"] = (
        harness.killed / harness.mutants if harness.mutants else 0.0
    )
    values["bench.self_ms"] = bench_ns / 1e6
    values["trace.op_ms"] = op_ns / 1e6
    values["trace.attributed_pct"] = (
        100.0 * (op_ns - bench_ns) / op_ns if op_ns else 0.0
    )
    values["trace.overhead_pct"] = (
        100.0 * (traced_ns - untraced_ns) / untraced_ns if untraced_ns else 0.0
    )
    values["cli.interp_ms"] = median(interp_s) * 1e3
    values["cli.import_ms"] = (median(import_s) - median(interp_s)) * 1e3
    values["failed_ratio"] = (
        len(harness.failures) / harness.attempted if harness.attempted else 0.0
    )
    values["output_drift"] = float(len(harness.drift))

    results: dict[str, tuple[float, str, str]] = {}
    for entry in declared["per_layer"]:
        name = entry["name"]
        if name not in values:
            raise Refused(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
        results[name] = (values[name], entry["unit"], "")
    missing = ", ".join(tracer.missing) or "none"
    return harness, results, f"{TRACE_PAIRS} traced rounds; unpatched: {missing}"


# -- reporting ----------------------------------------------------------------------


def report(
    args: argparse.Namespace, env: dict, harness: Any, results: dict, headline: str
) -> dict[str, Any]:
    print(f"hexcc benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  ({headline})")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in results.items():
        print(f"  {name:<26} {value:14.4f} {unit:<12} {note}")
    print(f"  ops attempted={harness.attempted} failed={len(harness.failures)} "
          f"drifted={len(harness.drift)} mutants killed={harness.killed}/"
          f"{harness.mutants}")
    for failure in harness.failures:
        print(f"  FAILED {failure['kind']} {failure['op']}: {failure['reason']}")
        if "source" in failure:
            print("    source:\n" + failure["source"])
    for drift in harness.drift:
        print(f"  DRIFT {drift['op']}: {drift['field']}")

    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in results.items()
        },
    }
    OUT_ROOT.mkdir(exist_ok=True)
    document = {
        "environment": env,
        "result": result,
        "notes": {name: note for name, (_, _, note) in results.items()},
        "samples_ms": dict(harness.samples),
        "failures": harness.failures,
        "drift": harness.drift,
    }
    path = OUT_ROOT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        declared = load_declared()
        check_environment(args)
        if args.workload not in [w["name"] for w in declared["workloads"]]:
            raise Refused(f"unknown workload {args.workload!r}")
    except Refused as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    # A terminated run still removes its directory and its child process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    os.environ["HEXCC_CACHE_DIR"] = str(work / "hexcc-home")
    os.environ["HEXCC_TUNING_DB"] = str(work / "tuning-db.json")
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the whole run: the host-speed child and every subprocess
    # inherit it, so the host factor is measured where the ops ran.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    expected = json.loads((HERE / "expected.json").read_text())
    try:
        run = traced_run if args.trace else measured_run
        harness, results, headline = run(args, work, expected, declared)
        result = report(args, environment(args), harness, results, headline)
    except Refused as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
