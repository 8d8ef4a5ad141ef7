"""Regenerate the reference outputs of the eigensolver workloads.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py [workload ...]

The references in ``reference/`` were made with this script at commit
d83e120; regenerate them only in a change whose purpose is to change the
program's outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads


def make(workload: str, size: str, workdir: Path) -> None:
    from csdtc import cli

    call = workloads.eigensolver_call(workload, size, 0, workdir, check=False)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(call.argv)
    doc = {
        "args": workloads.reference_args(workload, size),
        "exit_code": code,
        "output": call.out.read_text(encoding="utf-8"),
    }
    path = workloads.reference_path(workload, size)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{path.name}: exit code {code}")


def main(argv: list[str]) -> int:
    names = argv or [w for w in workloads.WORKLOADS if w != "rb_budget"]
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=workloads.BENCH_DIR.parent) as tmp:
        for name in names:
            for size in workloads.SIZES:
                make(name, size, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
