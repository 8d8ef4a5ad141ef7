"""csdtc benchmark: one run of one workload, printed as a JSON line.

    python3 bench/run.py --workload flux_sweep_n7 --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds ``src/csdtc``. Each run starts
fresh worker processes (``worker.py``) with the BLAS thread count fixed, so
set-up, CPU time and peak memory belong to that run alone. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run record. The exit code is 0 only when every
output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# One thread: on a shared 2-core x86-64 machine a single n_max=7 solve spread
# by about 30% between processes with two threads, and by about 5% with one.
BLAS_THREADS = "1"
SETUP_PROBES = 4  # extra set-up-only processes; with the worker, 5 set-up samples per run
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "valid_frac": "ratio", "setup_s": "s"}
LAYER_UNITS = {"calls": "count", "self_s": "s", "nnz": "count", "dim": "count", "complex_share": "ratio", "iterations": "count"}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(extra_args: list[str], result_path: Path, deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (its start time, its result)."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--result", str(result_path)] + extra_args
    started = time.monotonic()
    proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return started, json.loads(result_path.read_text(encoding="utf-8"))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _unit(name: str) -> str:
    if name == "trace.overhead_s":
        return "s"
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """Run the workload once; return (result line, run record)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        setups = []
        if not trace:
            for index in range(SETUP_PROBES):
                started, probe = _run_worker(["--probe"], workdir / f"probe{index}.json", deadline)
                setups.append(probe["setup_done"] - started)
        tag = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
        worker_args = [
            "--workload", workload, "--size", size, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--workdir", str(workdir), "--spans", str(OUT_DIR / f"spans-{tag}.json"),
        ]
        started, run = _run_worker(worker_args, workdir / "result.json", deadline)
        setups.append(run["setup_done"] - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values = run["layers"]
        metrics = {name: {"value": values[name], "unit": _unit(name)} for name in sorted(values)}
    else:
        values = {
            "wall_s": statistics.median(run["walls"]),
            "cpu_s": statistics.median(run["cpus"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "valid_frac": 1.0 - run["bad"] / run["attempted"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = dict(
        run["record"],
        workload=workload,
        size=size,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        git_sha=_git_sha(),
        pass_walls_s=run["walls"],
        pass_cpus_s=run["cpus"],
        setup_samples_s=setups,
        points_flagged_or_mismatched=run["bad"],
        cli_exit_codes=run["exit_codes"],
        mismatches=run["messages"],
    )
    if trace:
        record.update(traced_pass_walls_s=run["traced_walls"], untraced_functions=run["untraced_functions"])
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps({"record": record, "result": line}, indent=1) + "\n")
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one csdtc benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="'tiny' is the test smoke size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "csdtc" / "__init__.py").is_file():
        print(f"error: no csdtc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
