"""Tests of the benchmark itself: self time, metric names, reference checks, smoke runs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("a", 7.0, 9.0, 0),
    ]
    totals = tracing.self_times(spans)
    assert totals["root"] == (1, pytest.approx(10.0 - 3.0 - 1.0 - 2.0))
    assert totals["a"] == (2, pytest.approx((3.0 - 1.0) + 2.0))
    assert totals["leaf"] == (1, pytest.approx(1.0))
    assert totals["b"] == (1, pytest.approx(1.0))


def test_covered_length_counts_overlapping_children_once():
    assert tracing.covered_length(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (4.5, 4.8), (9.0, 12.0)]) == pytest.approx(5.0)


def test_tracer_records_nested_calls_and_values():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("m.inner", inner, {"size": (lambda r: r * 10, max)})
    traced_outer = tracer.wrap("m.outer", lambda x: traced_inner(x) * 2, {"bad": (lambda r: r.missing, max)})
    assert traced_outer(1) == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("m.outer", None), ("m.inner", 0)]
    assert dict(tracer.values) == {"m.inner.size": [20.0]}  # unreadable values are skipped


def test_metric_names_use_the_allowed_charset():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names + tracing.layer_metric_names():
        assert NAME.match(name), name


def test_spec_lists_exactly_what_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracing.layer_metric_names())
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run._unit(metric["name"])


def test_flux_check_catches_shifted_zeta_and_changed_flags(tmp_path):
    ref = workloads.load_reference("flux_sweep_n7", "full")
    check = workloads._csv_checker(ref, "phi_ex", ("zeta_kHz",), even=True)
    out = tmp_path / "zz.csv"
    out.write_text(ref["output"], encoding="utf-8")
    same = check(ref["exit_code"], out)
    assert same.mismatched == {} and same.flagged == {0, 3} and same.bad == 2

    lines = ref["output"].splitlines()
    phi, zeta, flag = lines[2].split(",")
    lines[2] = f"{phi},{float(zeta) + 0.2!r},{flag}"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert set(check(ref["exit_code"], out).mismatched) == {1, 2}  # value and evenness

    out.write_text(ref["output"].replace("-0.45,,1", "-0.45,-9000.0,0"), encoding="utf-8")
    assert 0 in check(ref["exit_code"], out).mismatched
    assert len(check(0, out).mismatched) == 4  # the reference exits with code 3


def test_rb_check_catches_broken_identity_and_missed_truth(tmp_path):
    doc = {
        "L1_cz": 0.001, "r_incoh_cz": 0.002, "r_coh_cz": 0.001, "r_cz": 0.00375,
        "fidelity": 1.0 - 0.00375 - 0.001 / 4.0, "d": 4,
        "uncertainties": {"l1_cz": 1e-4, "r_incoh_cz": 1e-4, "r_coh_cz": 1e-4, "r_cz": 1e-4, "fidelity": 1e-4},
    }
    truth = {"L1_cz": 0.001, "r_incoh_cz": 0.002, "r_cz": 0.00375}
    out = tmp_path / "budget.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    assert workloads._rb_checker(truth)(0, out).mismatched == {}
    assert workloads._rb_checker(dict(truth, r_cz=0.005))(0, out).mismatched
    out.write_text(json.dumps(dict(doc, r_coh_cz=0.0011)), encoding="utf-8")
    assert workloads._rb_checker(truth)(0, out).mismatched


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py"] + args, cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_at_tiny_size(workload, trace):
    done = _run(["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    assert record["blas_threads"] == run.BLAS_THREADS and record["seed"] == 5
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] >= 1
        assert record["untraced_functions"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "rb_budget", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
