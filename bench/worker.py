"""One benchmark run in a fresh process: import csdtc, run passes of a workload, check them.

Started by ``run.py`` with the BLAS thread count fixed in its environment and
``src/`` of the checkout on ``PYTHONPATH``. With ``--probe`` it only measures
set-up (import csdtc, load the parameter file) and exits. Otherwise it runs
passes of the workload's CLI calls in-process through ``csdtc.cli.main``
until ``--seconds`` would be exceeded (at least one pass), checks every output
against its reference, and writes a JSON result for ``run.py``. With
``--trace 1`` the first half of the time runs untraced and the second half
runs with every public function wrapped by ``tracing.Tracer``.
"""

from __future__ import annotations

import time  # first import: set-up is timed from before this process started

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PARAMS_FILE = BENCH_DIR / "params.json"


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tally:
    """Points attempted, points flagged or mismatched, and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.bad = 0
        self.failed = 0
        self.exit_codes: Counter = Counter()
        self.messages: list[str] = []

    def add(self, code, outcome) -> None:
        self.attempted += outcome.points
        self.bad += outcome.bad
        self.failed += len(outcome.mismatched)
        self.exit_codes[str(code)] += 1
        for message in outcome.mismatched.values():
            self.note(message)

    def note(self, message: str) -> None:
        if len(self.messages) < 10:
            self.messages.append(message)


def run_pass(cli, calls, tally: Tally) -> tuple[float, float]:
    """Wall and CPU seconds of one pass over the calls; outputs checked after each call."""
    wall = cpu = 0.0
    for call in calls:
        with contextlib.suppress(FileNotFoundError):
            call.out.unlink()
        sink = io.StringIO()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(call.argv)
        except Exception:  # a crash is recorded as a failed call, the run goes on
            code = None
            tally.note(traceback.format_exc(limit=3))
        wall += time.perf_counter() - t0
        cpu += _cpu_seconds() - cpu0
        tally.add(code, call.check(code, call.out))
    return wall, cpu


def run_passes(cli, calls, budget_s: float, tally: Tally):
    walls, cpus = [], []
    start = time.monotonic()
    while True:
        wall, cpu = run_pass(cli, calls, tally)
        walls.append(wall)
        cpus.append(cpu)
        if time.monotonic() - start + statistics.median(walls) > budget_s:
            return walls, cpus


def _blas_versions(np, scipy) -> dict:
    versions = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            versions[name] = module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            versions[name] = None
    return versions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import csdtc
    import csdtc.cli
    from csdtc.circuit import load_params

    load_params(PARAMS_FILE)
    setup_done = time.monotonic()

    if not Path(csdtc.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"csdtc was imported from {csdtc.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    result = {"setup_done": setup_done}
    if args.probe:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    import numpy as np
    import scipy

    import tracing
    import workloads

    plan = workloads.plan(args.workload, args.size, args.seed, args.workdir)
    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, cpus = run_passes(csdtc.cli, plan.calls, budget, tally)
    result.update(
        walls=walls,
        cpus=cpus,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced_walls, _ = run_passes(csdtc.cli, plan.calls, budget, tally)
        layers = tracer.layer_metrics(len(traced_walls))
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result.update(layers=layers, traced_walls=traced_walls, untraced_functions=tracer.missing)
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.span_records()), encoding="utf-8")

    result.update(
        attempted=tally.attempted,
        bad=tally.bad,
        failed=tally.failed,
        exit_codes=dict(tally.exit_codes),
        messages=tally.messages,
        record={
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": _blas_versions(np, scipy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "n_max": plan.n_max,
            "k": plan.k,
            "passes": len(walls),
        },
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
