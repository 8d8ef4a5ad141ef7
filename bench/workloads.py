"""The benchmark's workloads: CLI argument lists, generated inputs and reference checks.

Each workload is a fixed list of ``csdtc`` CLI calls (one *pass*). A call is
checked against its reference once it returns; every output row or document
is one *point*. A point is *flagged* when the program itself marks it
ambiguous or failed, and *mismatched* when it disagrees with the reference.

References for the eigensolver workloads were produced by ``make_reference.py``
at commit d83e120; the Lanczos start vector (``--seed``) moves zeta by far
less than the 0.1 kHz oracle gate, so one reference serves every seed. The
``rb_budget`` reference is the synthetic truth drawn from the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PARAMS_FILE = BENCH_DIR / "params.json"
REFERENCE_DIR = BENCH_DIR / "reference"

ZETA_TOL_KHZ = 0.1  # oracle gate for every zeta column
C34_STAR_TOL_FF = 0.01  # step tolerance of the zero-coupling fixed point
DESIGN_BRACKET_TOL_FF = 1.0  # golden-section stopping width of the design workload
BUDGET_IDENTITY_TOL = 1e-12
RECOVERY_SIGMAS = 5.0

SIZES = ("full", "tiny")


@dataclass
class Outcome:
    """Reference-check result of one CLI call."""

    points: int
    flagged: set = field(default_factory=set)
    mismatched: dict = field(default_factory=dict)

    @property
    def bad(self) -> int:
        return len(self.flagged | set(self.mismatched))


@dataclass
class Call:
    argv: list
    out: Path
    check: Callable[[int | None, Path], Outcome] | None


@dataclass
class Plan:
    """Calls of one pass plus the settings the run record states."""

    calls: list
    n_max: int | None
    k: int | None


# --- reference files ------------------------------------------------------------


def reference_args(workload: str, size: str) -> list[str]:
    """Output-determining CLI arguments (no --params, --out or --seed)."""
    return list(_ARGS[workload][size])


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def load_reference(workload: str, size: str) -> dict:
    with open(reference_path(workload, size), encoding="utf-8") as handle:
        ref = json.load(handle)
    if ref["args"] != reference_args(workload, size):
        raise ValueError(f"reference for {workload}/{size} was made with other arguments: {ref['args']}")
    return ref


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: str, b: str, tol: float) -> bool:
    if a == "" or b == "":
        return a == b
    return abs(float(a) - float(b)) <= tol


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _csv_checker(ref: dict, key: str, value_columns: tuple[str, ...], *, even: bool):
    ref_rows = _rows(ref["output"])

    def check(code: int, out: Path) -> Outcome:
        outcome = Outcome(points=len(ref_rows))
        text = _read(out)
        if code != ref["exit_code"] or text is None:
            for i in range(len(ref_rows)):
                outcome.mismatched[i] = f"exit code {code} (reference {ref['exit_code']}), output {'missing' if text is None else 'present'}"
            return outcome
        rows = _rows(text)
        if len(rows) != len(ref_rows):
            for i in range(len(ref_rows)):
                outcome.mismatched[i] = f"{len(rows)} rows, reference {len(ref_rows)}"
            return outcome
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            if row.get("ambiguous_flag") != "0":
                outcome.flagged.add(i)
            if row.get(key) != ref_row[key] or row.get("ambiguous_flag") != ref_row["ambiguous_flag"]:
                outcome.mismatched[i] = f"{key} or ambiguous_flag differs from the reference at row {i}"
                continue
            for column in value_columns:
                if not _close(row.get(column, ""), ref_row[column], ZETA_TOL_KHZ):
                    outcome.mismatched[i] = f"{column}={row.get(column)} vs reference {ref_row[column]} at {key}={row[key]}"
        if even:
            for i, row in enumerate(rows):
                mirror = rows[len(rows) - 1 - i]
                if not math.isclose(float(row[key]), -float(mirror[key]), abs_tol=1e-12):
                    continue
                a, b = row[value_columns[0]], mirror[value_columns[0]]
                if a and b and abs(float(a) - float(b)) > ZETA_TOL_KHZ:
                    outcome.mismatched[i] = f"zeta(phi) != zeta(-phi) at phi={row[key]}: {a} vs {b}"
        return outcome

    return check


def _design_checker(ref: dict):
    ref_doc = json.loads(ref["output"])
    tolerances = {
        "c34_star_fF": C34_STAR_TOL_FF,
        "argmin_c34_exact_fF": DESIGN_BRACKET_TOL_FF,
        "zeta_at_star_kHz": ZETA_TOL_KHZ,
    }

    def check(code: int, out: Path) -> Outcome:
        outcome = Outcome(points=1)
        text = _read(out)
        if code != ref["exit_code"] or text is None:
            outcome.mismatched[0] = f"exit code {code} (reference {ref['exit_code']})"
            return outcome
        doc = json.loads(text)
        for name, tol in tolerances.items():
            value, expected = doc.get(name), ref_doc[name]
            if value is None or expected is None:
                ok = value is expected
            else:
                ok = abs(value - expected) <= tol
            if not ok:
                outcome.mismatched[0] = f"{name}={value} vs reference {expected} (tolerance {tol})"
        return outcome

    return check


# --- synthetic RB trace sets -----------------------------------------------------

RB_LENGTHS = (1, 5, 10, 20, 40, 80, 120, 200, 300)
RB_NOISE = 0.005
RB_SETS = {"full": 64, "tiny": 2}
_SLOTS = ("x1_srb", "x1_irb", "purity_srb", "purity_irb", "p0000_srb", "p0000_irb")


def _rb_truth_and_traces(rng, rb):
    """One six-trace set drawn from ``rng`` and the budget it encodes.

    The P_0000 traces are built so that P_0000 - P_X1/4, the series the
    gate-error fit runs on, is a single exponential with known decay.
    """
    x1_offset = rng.uniform(0.75, 0.80)
    lam = {}
    for kind, lo, hi, drop_lo, drop_hi in (
        ("x1", 0.994, 0.997, 0.002, 0.005),
        ("purity", 0.994, 0.997, 0.002, 0.003),
        ("sub", 0.993, 0.996, 0.004, 0.006),
    ):
        lam[f"{kind}_srb"] = rng.uniform(lo, hi)
        lam[f"{kind}_irb"] = lam[f"{kind}_srb"] - rng.uniform(drop_lo, drop_hi)
    noise_seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]

    traces = {}
    for variant, n0, n1, n2 in (("srb", *noise_seeds[:3]), ("irb", *noise_seeds[3:])):
        upper = variant.upper()
        x1 = rb.synth_trace(
            offset=x1_offset, amplitude=0.15, lam=lam[f"x1_{variant}"], kind=rb.KIND_POPULATION_X1,
            lengths=RB_LENGTHS, noise_sigma=RB_NOISE, seed=n0, variant=upper,
        )
        purity = rb.synth_trace(
            offset=-0.02, amplitude=0.95, lam=lam[f"purity_{variant}"], kind=rb.KIND_PURITY,
            lengths=RB_LENGTHS, noise_sigma=RB_NOISE, seed=n1, variant=upper,
        )
        sub = rb.synth_trace(
            offset=0.07, amplitude=0.60, lam=lam[f"sub_{variant}"], kind=rb.KIND_SUBTRACTED,
            lengths=RB_LENGTHS, noise_sigma=RB_NOISE, seed=n2, variant=upper,
        )
        p0000 = rb.RBTrace(
            lengths=sub.lengths,
            values=tuple(s + x / 4.0 for s, x in zip(sub.values, x1.values)),
            std_errs=sub.std_errs,
            kind=rb.KIND_POPULATION_0000,
            variant=upper,
        )
        traces[f"x1_{variant}"], traces[f"purity_{variant}"], traces[f"p0000_{variant}"] = x1, purity, p0000

    l1 = {v: (1.0 - x1_offset) * (1.0 - lam[f"x1_{v}"]) for v in ("srb", "irb")}
    truth = {
        "L1_cz": 1.0 - (1.0 - l1["irb"]) / (1.0 - l1["srb"]),
        "r_incoh_cz": 0.75 * (1.0 - lam["purity_irb"] / lam["purity_srb"]),
        "r_cz": 0.75 * (1.0 - lam["sub_irb"] / lam["sub_srb"]),
    }
    return truth, traces


def _rb_checker(truth: dict):
    sigma_keys = {"L1_cz": "l1_cz", "r_incoh_cz": "r_incoh_cz", "r_cz": "r_cz"}

    def check(code: int, out: Path) -> Outcome:
        outcome = Outcome(points=1)
        text = _read(out)
        if code != 0 or text is None:
            outcome.mismatched[0] = f"exit code {code}"
            return outcome
        doc = json.loads(text)
        r, r_incoh, r_coh, l1, fidelity = (doc[k] for k in ("r_cz", "r_incoh_cz", "r_coh_cz", "L1_cz", "fidelity"))
        if abs(r_incoh + r_coh + 0.75 * l1 - r) > BUDGET_IDENTITY_TOL:
            outcome.mismatched[0] = "r != r_incoh + r_coh + 3/4 L1"
        elif abs(fidelity - (1.0 - r - l1 / 4.0)) > BUDGET_IDENTITY_TOL:
            outcome.mismatched[0] = "F != 1 - r - L1/4"
        for name, expected in truth.items():
            sigma = doc["uncertainties"][sigma_keys[name]]
            if abs(doc[name] - expected) > RECOVERY_SIGMAS * sigma + 1e-9:
                outcome.mismatched[0] = f"{name}={doc[name]:.6g} misses the synthetic truth {expected:.6g} (sigma {sigma:.3g})"
        return outcome

    return check


# --- workload table ---------------------------------------------------------------

# Output-determining arguments per workload and size. "tiny" is the test smoke size.
_ARGS = {
    "flux_sweep_n7": {
        "full": ["zz", "--flux-grid=-0.45:0.45:4", "--n-max", "7", "--k", "16"],
        "tiny": ["zz", "--flux-grid=-0.45:0.45:4", "--n-max", "3", "--k", "16"],
    },
    "design_n7": {
        "full": ["design", "--bracket", "34:58", "--bracket-tol", "1", "--n-max", "7", "--k", "16"],
        "tiny": ["design", "--bracket", "20:80", "--bracket-tol", "8", "--n-max", "3", "--k", "16"],
    },
    "c34_scan_n4": {
        "full": ["pert-compare", "--c34-grid", "5:100:96", "--zero-parasitics", "--n-max", "4", "--k", "16"],
        "tiny": ["pert-compare", "--c34-grid", "5:100:6", "--zero-parasitics", "--n-max", "3", "--k", "16"],
    },
}

WORKLOADS = ("flux_sweep_n7", "design_n7", "c34_scan_n4", "rb_budget")


def _setting(args: list[str], flag: str) -> int:
    return int(args[args.index(flag) + 1])


def eigensolver_call(workload: str, size: str, seed: int, workdir: Path, *, check=True) -> Call:
    args = reference_args(workload, size)
    out = workdir / f"{workload}.out"
    argv = args + ["--params", str(PARAMS_FILE), "--seed", str(seed), "--out", str(out)]
    if not check:
        return Call(argv, out, None)
    ref = load_reference(workload, size)
    if workload == "design_n7":
        checker = _design_checker(ref)
    elif workload == "flux_sweep_n7":
        checker = _csv_checker(ref, "phi_ex", ("zeta_kHz",), even=True)
    else:
        checker = _csv_checker(ref, "C34_fF", ("zeta_exact_kHz", "zeta_pert_kHz"), even=False)
    return Call(argv, out, checker)


def plan(workload: str, size: str, seed: int, workdir: Path) -> Plan:
    """The calls of one pass; ``rb_budget`` writes its seeded trace files here."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if workload != "rb_budget":
        args = reference_args(workload, size)
        return Plan([eigensolver_call(workload, size, seed, workdir)], _setting(args, "--n-max"), _setting(args, "--k"))

    import numpy as np
    from csdtc import rb

    calls = []
    for index in range(RB_SETS[size]):
        truth, traces = _rb_truth_and_traces(np.random.default_rng([seed, index]), rb)
        argv = ["rb-budget"]
        for slot in _SLOTS:
            path = workdir / f"set{index:03d}_{slot}.csv"
            rb.write_trace_csv(traces[slot], path)
            argv += [f"--{slot.replace('_', '-')}", str(path)]
        out = workdir / f"set{index:03d}_budget.json"
        calls.append(Call(argv + ["--out", str(out)], out, _rb_checker(truth)))
    return Plan(calls, None, None)
