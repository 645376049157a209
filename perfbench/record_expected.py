"""Record the deterministic outputs the benchmark compares against.

Usage, from the root of a checkout::

    python3 perfbench/record_expected.py

For every library stencil at its paper problem size, compiles the default
configuration through ``verify`` and the incremental configuration through
``analysis``, and writes the CUDA sha256, selected tile sizes,
``classes_checked`` and modelled GTX 470 GStencils/s to
``perfbench/expected.json``.  The committed file was recorded at the commit
that added the benchmark; re-record only when a change of output is
intended, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as home:
        os.environ["HEXCC_CACHE_DIR"] = home
        os.environ["HEXCC_TUNING_DB"] = str(Path(home) / "tuning-db.json")
        sys.path.insert(0, str(HERE.parent / "src"))
        import workloads
        from repro.api import Session
        from repro.api.config import table4_configurations
        from repro.stencils import get_stencil, list_stencils

        config = table4_configurations()[workloads.INCREMENTAL_CONFIG]
        expected = {}
        for name in list_stencils():
            session = Session()
            program = get_stencil(name)
            default = session.run(program, stop_after="verify")
            incremental = session.run(program, config=config, stop_after="analysis")
            key = f"config_{workloads.INCREMENTAL_CONFIG}"
            expected[name] = {
                "default": workloads.outputs(default),
                key: workloads.outputs(incremental),
            }
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(expected)} stencils)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
