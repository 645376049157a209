"""``hexcc compile`` stdout is pinned byte for byte to recorded copies.

Each file under ``tests/data/compile_stdout/`` holds the full stdout of one
command: the compilation description, the performance summary and the
generated CUDA.  Re-record one (only for an intended output change) with::

    PYTHONPATH=src python -m repro.cli compile heat_2d --show-cuda --no-cache \
        > tests/data/compile_stdout/heat_2d.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "data" / "compile_stdout"

CASES = {
    "heat_2d": ["compile", "heat_2d"],
    "heat_3d": ["compile", "heat_3d"],
    "fdtd_2d": ["compile", "fdtd_2d"],
    "custom_stencil": [
        "compile-file", str(ROOT / "examples" / "custom_stencil.c"),
        "--h", "2", "--widths", "4,32",
    ],
}


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_compile_stdout_matches_the_recorded_copy(case, cache, capsys):
    argv = [*CASES[case], "--show-cuda"]
    if cache == "warm":
        # The second run is served from the disk cache; output must not move.
        assert main(argv) == 0
        capsys.readouterr()
    assert main(argv) == 0
    expected = (RECORDED / f"{case}.txt").read_text()
    assert capsys.readouterr().out == expected
