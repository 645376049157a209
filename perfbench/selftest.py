"""Self-tests of the benchmark itself (not of the compiler).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--only determinism,seeds,fault]

* ``determinism``: two traced runs with one seed report identical work
  counts (cold-2d and check-small);
* ``seeds``: the check-small generator is a function of the seed, and a
  different seed gives different programs;
* ``fault``: with ``HEXCC_FAULT_DELAY=tiling:40`` the warm-repeat run's
  ``compile_cold_ms`` and ``compile_warm_ms`` worsen past their bounds, and
  the traced run puts the extra time in ``api.run_self_ms`` (the delay sleeps
  in the pass loop, outside every layer function), not in a layer.

Prints one line per check and exits non-zero if any fails.  Takes a few
minutes: it runs the benchmark eight times.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Work counts that must repeat exactly for a fixed seed.
WORK_COUNTS = (
    "tiling.estimates",
    "tiling.shapes",
    "verify.classes_checked",
    "gpu.points_executed",
    "tuning.space_size",
    "cache.bytes_written",
)

FAULT_DELAY = "tiling:40"


def bench(
    workload: str, seed: int, trace: int, seconds: float = 8, fault: bool = False
) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEXCC_")}
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if fault:
        env["HEXCC_FAULT_DELAY"] = FAULT_DELAY
        command.append("--allow-fault-delay")
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def check_determinism() -> list[str]:
    problems = []
    for workload in ("cold-2d", "check-small"):
        first, second = bench(workload, 7, 1), bench(workload, 7, 1)
        print(f"     {workload}: " + ", ".join(
            f"{name}={first[name]:.0f}" for name in WORK_COUNTS
        ))
        for name in WORK_COUNTS:
            if first[name] != second[name]:
                problems.append(f"{workload} {name}: {first[name]} != {second[name]}")
            if first[name] == 0:
                problems.append(f"{workload} {name} is zero: nothing was counted")
    return problems


def check_seeds() -> list[str]:
    sys.path.insert(0, str(HERE))
    import programs

    problems = []
    count = len(programs.CLASSES)
    if programs.generate(3, count) != programs.generate(3, count):
        problems.append("one seed generated two different program sets")
    one = [source for _, _, source in programs.generate(3, count)]
    other = [source for _, _, source in programs.generate(4, count)]
    if any(a == b for a, b in zip(one, other)):
        problems.append("seeds 3 and 4 generated an identical program")
    return problems


def check_fault() -> list[str]:
    bounds = {
        entry["name"]: entry["bound"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    problems = []
    clean, slow = bench("warm-repeat", 5, 0), bench("warm-repeat", 5, 0, fault=True)
    for name in ("compile_cold_ms", "compile_warm_ms"):
        worse = slow[name] / clean[name] - 1.0
        print(f"     {name}: {clean[name]:.2f} -> {slow[name]:.2f} ms ({worse:+.0%})")
        if worse <= bounds[name]:
            problems.append(
                f"{name} worsened by {worse:.1%} with {FAULT_DELAY}, "
                f"not past its bound {bounds[name]:.0%}"
            )
    clean, slow = bench("warm-repeat", 5, 1), bench("warm-repeat", 5, 1, fault=True)
    # The hexcc subprocesses sleep too, inside their own process.
    extra = (slow["trace.op_ms"] - slow["cli.run_ms"]) - (
        clean["trace.op_ms"] - clean["cli.run_ms"]
    )
    in_api = slow["api.run_self_ms"] - clean["api.run_self_ms"]
    print(f"     traced: {extra:.0f} ms added, {in_api:.0f} ms in api.run_self_ms")
    if extra <= 0 or in_api < 0.8 * extra:
        problems.append(
            f"api.run_self_ms took {in_api:.0f} ms of the {extra:.0f} ms the "
            "delay added"
        )
    for name, value in slow.items():
        if name.endswith("_ms") and name not in (
            "api.run_self_ms", "cli.run_ms", "trace.op_ms", "cli.import_ms",
            "cli.interp_ms",
        ) and value - clean[name] > 0.1 * max(extra, 1.0):
            problems.append(f"{name} grew by {value - clean[name]:.0f} ms")
    return problems


CHECKS = {"determinism": check_determinism, "seeds": check_seeds, "fault": check_fault}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(CHECKS))
    args = parser.parse_args()
    failed = False
    for name in args.only.split(","):
        print(f"---- {name}")
        problems = CHECKS[name]()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
