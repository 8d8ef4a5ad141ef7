"""Randomized-benchmarking decay fits and the CZ-gate error budget.

Three trace kinds feed the budget: computational-subspace population
(leakage), normalized purity (incoherent error, decaying as lambda^(2m)),
and ground-state population with the leakage reference subtracted (total
gate error). SRB/IRB pairs of each kind combine into per-gate rates, and the
budget closes exactly: r = r_incoh + r_coh + (3/4) L1, F = 1 - r - L1/4.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .errors import FitError

KIND_POPULATION_X1 = "population_X1"
KIND_POPULATION_0000 = "population_0000"
KIND_PURITY = "normalized_purity"
KIND_SUBTRACTED = "subtracted_population"

TRACE_KINDS = (KIND_POPULATION_X1, KIND_POPULATION_0000, KIND_PURITY, KIND_SUBTRACTED)
_BOUNDED_KINDS = (KIND_POPULATION_X1, KIND_POPULATION_0000)
VARIANTS = ("SRB", "IRB")

# The budget is for the two-qubit computational subspace.
D = 4

_LAMBDA_FLOOR = 1e-12
_AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class RBTrace:
    """One decay curve: sequence lengths, means, optional standard errors."""

    lengths: tuple[int, ...]
    values: tuple[float, ...]
    std_errs: tuple[float, ...] | None
    kind: str
    variant: str

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.lengths) < 4:
            raise ValueError("need at least 4 points per trace")
        if len(self.values) != len(self.lengths):
            raise ValueError("lengths and values must have equal size")
        if any(int(m) != m or m <= 0 for m in self.lengths):
            raise ValueError("sequence lengths must be positive integers")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("sequence lengths must be strictly increasing")
        if self.std_errs is not None:
            if len(self.std_errs) != len(self.lengths):
                raise ValueError("std_errs must match lengths")
            if not all(0.0 <= s < math.inf for s in self.std_errs):
                raise ValueError("std_errs must be finite and non-negative")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("values must be finite")
        if self.kind in _BOUNDED_KINDS and any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValueError(f"{self.kind} values must lie in [0, 1]")


@dataclass(frozen=True)
class DecayFit:
    """Result of fitting offset + amplitude * lambda^(scale*m).

    Covariance rows/columns are ordered (amplitude, offset, lam). A fit with
    ``lambda_identifiable=False`` (vanishing amplitude) carries a zero
    covariance; its decay constant is a placeholder, not an estimate.
    """

    amplitude: float
    offset: float
    lam: float
    covariance: np.ndarray
    residual_norm: float
    lambda_identifiable: bool = True

    @property
    def lam_variance(self) -> float:
        return float(self.covariance[2, 2])


@dataclass(frozen=True)
class ErrorBudget:
    """CZ-gate error decomposition (dimension D); None marks pieces a partial run skipped."""

    l1_cz: float | None
    r_incoh_cz: float | None
    r_coh_cz: float | None
    r_cz: float | None
    fidelity: float | None
    uncertainties: dict


def synth_trace(
    *,
    offset: float,
    amplitude: float,
    lam: float,
    kind: str,
    lengths,
    noise_sigma: float = 0.0,
    seed: int = 0,
    variant: str = "SRB",
) -> RBTrace:
    """Evaluate the decay model exactly, plus seeded Gaussian noise.

    Purity traces decay as lambda^(2m), everything else as lambda^m.
    ``noise_sigma=0`` yields exact model values; a fixed seed yields a
    bit-identical trace.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    m = np.asarray(list(lengths), dtype=float)
    values = offset + amplitude * lam ** (_exponent_scale(kind) * m)
    if noise_sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sigma, m.size)
        std = tuple([float(noise_sigma)] * m.size)
    else:
        std = None
    return RBTrace(
        lengths=tuple(int(v) for v in lengths),
        values=tuple(float(v) for v in values),
        std_errs=std,
        kind=kind,
        variant=variant,
    )


def _exponent_scale(kind: str) -> int:
    """Purity is quadratic in the state, so it decays as lambda^(2m)."""
    return 2 if kind == KIND_PURITY else 1


def _initial_guess(m, y, scale):
    offset0 = float(np.mean(y[-2:]))
    amp0 = float(y[0] - offset0)
    lam0 = 0.95
    j = len(y) // 2
    denom = y[0] - offset0
    if denom != 0.0:
        ratio = (y[j] - offset0) / denom
        span = scale * (m[j] - m[0])
        if ratio > 0 and span > 0:
            lam0 = float(ratio ** (1.0 / span))
    lam0 = min(max(lam0, 1e-6), 1.0)
    return amp0, offset0, lam0


def fit_decay(trace: RBTrace) -> DecayFit:
    """Weighted nonlinear least squares of offset + amplitude * lam^(scale*m).

    The trace kind fixes scale (2 for purity, 1 otherwise). Weights are
    1/std^2 when standard errors are present (unit weights otherwise); lam is
    constrained to (0, 1]; the covariance comes from the fit Jacobian.
    """
    scale = _exponent_scale(trace.kind)
    m = np.asarray(trace.lengths, dtype=float)
    y = np.asarray(trace.values, dtype=float)
    sigma = None
    if trace.std_errs is not None and min(trace.std_errs) > 0:
        sigma = np.asarray(trace.std_errs, dtype=float)

    if np.ptp(y) == 0.0:
        # constant trace: amplitude 0, decay constant unidentifiable
        return DecayFit(
            amplitude=0.0,
            offset=float(y[0]),
            lam=1.0,
            covariance=np.zeros((3, 3)),
            residual_norm=0.0,
            lambda_identifiable=False,
        )

    def model(mm, amplitude, offset, lam):
        return offset + amplitude * lam ** (scale * mm)

    p0 = _initial_guess(m, y, scale)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, pcov = curve_fit(
                model,
                m,
                y,
                p0=p0,
                sigma=sigma,
                absolute_sigma=sigma is not None,
                bounds=([-np.inf, -np.inf, _LAMBDA_FLOOR], [np.inf, np.inf, 1.0]),
                maxfev=20000,
            )
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"decay fit failed (initial guess {p0}): {exc}") from exc
    residuals = y - model(m, *popt)
    if not np.all(np.isfinite(pcov)):
        raise FitError(f"decay fit produced a non-finite covariance; residuals {residuals}")
    amplitude, offset, lam = (float(v) for v in popt)
    return DecayFit(
        amplitude=amplitude,
        offset=offset,
        lam=lam,
        covariance=np.asarray(pcov),
        residual_norm=float(np.linalg.norm(residuals)),
        lambda_identifiable=bool(abs(amplitude) > _AMPLITUDE_FLOOR),
    )


def _leakage_rate(fit: DecayFit) -> tuple[float, float]:
    """Per-Clifford leakage (1 - offset)(1 - lam) with its variance."""
    value = (1.0 - fit.offset) * (1.0 - fit.lam)
    grad = np.array([0.0, -(1.0 - fit.lam), -(1.0 - fit.offset)])
    variance = float(grad @ fit.covariance @ grad)
    return value, variance


def leakage_budget(fit_srb: DecayFit, fit_irb: DecayFit) -> tuple[float, float]:
    """CZ leakage error and its std from the SRB/IRB population_X1 fits.

    L1 = (1 - A)(1 - lambda) per variant, then
    L1_CZ = 1 - (1 - L1_IRB)/(1 - L1_SRB); uncertainty propagates to first
    order through both formulas.
    """
    l1_srb, var_srb = _leakage_rate(fit_srb)
    l1_irb, var_irb = _leakage_rate(fit_irb)
    if l1_srb >= 1.0:
        raise FitError(f"SRB leakage rate {l1_srb} >= 1 makes the CZ ratio undefined")
    l1_cz = 1.0 - (1.0 - l1_irb) / (1.0 - l1_srb)
    d_irb = 1.0 / (1.0 - l1_srb)
    d_srb = -(1.0 - l1_irb) / (1.0 - l1_srb) ** 2
    var_cz = d_irb**2 * var_irb + d_srb**2 * var_srb
    return l1_cz, math.sqrt(max(var_cz, 0.0))


def ratio_error_budget(fit_srb: DecayFit, fit_irb: DecayFit) -> tuple[float, float]:
    """CZ error (D-1)/D (1 - lam_IRB/lam_SRB) and its std from an SRB/IRB pair of fits.

    On purity fits this is the incoherent error; on fits of the subtracted
    P_0000 - P_X1/D series it is the total gate error.
    """
    lam_s, lam_i = fit_srb.lam, fit_irb.lam
    if lam_s == 0:
        raise FitError("SRB decay constant is zero; ratio undefined")
    prefactor = (D - 1) / D
    value = prefactor * (1.0 - lam_i / lam_s)
    d_i = -prefactor / lam_s
    d_s = prefactor * lam_i / lam_s**2
    variance = d_i**2 * fit_irb.lam_variance + d_s**2 * fit_srb.lam_variance
    return value, math.sqrt(max(variance, 0.0))


def subtracted_population_trace(p0000: RBTrace, px1: RBTrace) -> RBTrace:
    """Build the P_0000(m) - P_X1(m)/D series the gate-error fit runs on."""
    if p0000.kind != KIND_POPULATION_0000:
        raise ValueError(f"first trace must be {KIND_POPULATION_0000}, got {p0000.kind}")
    if px1.kind != KIND_POPULATION_X1:
        raise ValueError(f"second trace must be {KIND_POPULATION_X1}, got {px1.kind}")
    if p0000.variant != px1.variant:
        raise ValueError("traces must come from the same variant")
    if p0000.lengths != px1.lengths:
        raise ValueError("traces must share their sequence lengths")
    values = tuple(a - b / D for a, b in zip(p0000.values, px1.values))
    std = None
    if p0000.std_errs is not None and px1.std_errs is not None:
        std = tuple(math.hypot(a, b / D) for a, b in zip(p0000.std_errs, px1.std_errs))
    return RBTrace(p0000.lengths, values, std, KIND_SUBTRACTED, p0000.variant)


def normalized_purity_from_density(rho) -> float:
    """(D/(D-1)) (tr[rho^2] - 1/D); negative when leakage leaves trace < 1."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (D, D):
        raise ValueError(f"density matrix must be {D}x{D}, got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise ValueError("density matrix must be Hermitian")
    trace = float(np.trace(rho).real)
    if trace > 1.0 + 1e-9:
        raise ValueError(f"density matrix trace {trace} exceeds 1")
    purity = float(np.trace(rho @ rho).real)
    return (D / (D - 1.0)) * (purity - 1.0 / D)


def assemble_budget(
    r_cz: float | None,
    r_incoh_cz: float | None,
    l1_cz: float | None,
    *,
    r_cz_std: float | None = 0.0,
    r_incoh_std: float | None = 0.0,
    l1_std: float | None = 0.0,
) -> ErrorBudget:
    """Close the budget: r_coh = r - r_incoh - (3/4) L1, F = 1 - r - L1/4.

    A piece given as None leaves every entry that needs it None. A negative
    coherent error is reported as-is with a statistical consistency warning.
    """
    r_coh = r_coh_std = fidelity = fidelity_std = None
    if r_cz is not None and l1_cz is not None:
        fidelity = 1.0 - r_cz - l1_cz / 4.0
        fidelity_std = math.sqrt(r_cz_std**2 + l1_std**2 / 16.0)
        if r_incoh_cz is not None:
            r_coh = r_cz - r_incoh_cz - 0.75 * l1_cz
            if r_coh < 0:
                warnings.warn(
                    f"coherent error came out negative ({r_coh:.3e}); "
                    "the SRB/IRB fits are statistically inconsistent",
                    stacklevel=2,
                )
            r_coh_std = math.sqrt(r_cz_std**2 + r_incoh_std**2 + 0.5625 * l1_std**2)
    return ErrorBudget(
        l1_cz=l1_cz,
        r_incoh_cz=r_incoh_cz,
        r_coh_cz=r_coh,
        r_cz=r_cz,
        fidelity=fidelity,
        uncertainties={
            "l1_cz": l1_std,
            "r_incoh_cz": r_incoh_std,
            "r_coh_cz": r_coh_std,
            "r_cz": r_cz_std,
            "fidelity": fidelity_std,
        },
    )


SLOT_EXPECTATIONS = {
    "x1_srb": (KIND_POPULATION_X1, "SRB"),
    "x1_irb": (KIND_POPULATION_X1, "IRB"),
    "purity_srb": (KIND_PURITY, "SRB"),
    "purity_irb": (KIND_PURITY, "IRB"),
    "p0000_srb": (KIND_POPULATION_0000, "SRB"),
    "p0000_irb": (KIND_POPULATION_0000, "IRB"),
}


def full_budget(traces: dict, *, allow_partial: bool = False) -> ErrorBudget:
    """Budget from up to six traces keyed x1/purity/p0000 x srb/irb.

    Missing pairs leave their budget entries None (only with
    ``allow_partial``). The gate-error fit needs both the p0000 and x1 pairs
    because of the leakage-reference subtraction.
    """
    expected = SLOT_EXPECTATIONS
    unknown = set(traces) - set(expected)
    if unknown:
        raise ValueError(f"unknown trace slots: {sorted(unknown)}")
    for slot, trace in traces.items():
        kind, variant = expected[slot]
        if trace.kind != kind or trace.variant != variant:
            raise ValueError(
                f"slot {slot} requires kind={kind} variant={variant}, "
                f"got kind={trace.kind} variant={trace.variant}"
            )
    missing = set(expected) - set(traces)
    if missing and not allow_partial:
        raise ValueError(f"missing trace slots: {sorted(missing)}; a partial budget needs allow_partial (--partial)")

    l1 = l1_std = None
    if {"x1_srb", "x1_irb"} <= set(traces):
        l1, l1_std = leakage_budget(fit_decay(traces["x1_srb"]), fit_decay(traces["x1_irb"]))

    r_incoh = r_incoh_std = None
    if {"purity_srb", "purity_irb"} <= set(traces):
        r_incoh, r_incoh_std = ratio_error_budget(
            fit_decay(traces["purity_srb"]), fit_decay(traces["purity_irb"])
        )

    r_cz = r_cz_std = None
    if {"p0000_srb", "p0000_irb", "x1_srb", "x1_irb"} <= set(traces):
        r_cz, r_cz_std = ratio_error_budget(
            fit_decay(subtracted_population_trace(traces["p0000_srb"], traces["x1_srb"])),
            fit_decay(subtracted_population_trace(traces["p0000_irb"], traces["x1_irb"])),
        )

    return assemble_budget(
        r_cz, r_incoh, l1,
        r_cz_std=r_cz_std, r_incoh_std=r_incoh_std, l1_std=l1_std,
    )


def budget_to_dict(budget: ErrorBudget) -> dict:
    return {
        "L1_cz": budget.l1_cz,
        "r_incoh_cz": budget.r_incoh_cz,
        "r_coh_cz": budget.r_coh_cz,
        "r_cz": budget.r_cz,
        "fidelity": budget.fidelity,
        "uncertainties": dict(budget.uncertainties),
        "d": D,
    }


# --- trace CSV I/O -------------------------------------------------------------


def write_trace_csv(trace: RBTrace, path) -> None:
    """Per-trace CSV: a kind/variant header line, then m, value, std_err rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# kind={trace.kind} variant={trace.variant}\n")
        writer = csv.writer(handle, lineterminator="\n")
        if trace.std_errs is None:
            writer.writerow(["m", "value"])
            for m, v in zip(trace.lengths, trace.values):
                writer.writerow([m, repr(v)])
        else:
            writer.writerow(["m", "value", "std_err"])
            for m, v, s in zip(trace.lengths, trace.values, trace.std_errs):
                writer.writerow([m, repr(v), repr(s)])


def read_trace_csv(path) -> RBTrace:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: expected '# kind=... variant=...' header line")
        fields = dict(
            part.split("=", 1) for part in header.lstrip("#").split() if "=" in part
        )
        if "kind" not in fields or "variant" not in fields:
            raise ValueError(f"{path}: header must define kind and variant")
        reader = csv.reader(handle)
        columns = next(reader, [])
        if columns[:2] != ["m", "value"]:
            raise ValueError(f"{path}: line 2: expected columns m, value[, std_err]")
        has_std = len(columns) > 2 and columns[2] == "std_err"
        width = 3 if has_std else 2
        lengths, values, stds = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                raise ValueError(f"{path}: line {reader.line_num + 1}: expected {width} fields, got {len(row)}")
            try:
                lengths.append(int(row[0]))
                values.append(float(row[1]))
                if has_std:
                    stds.append(float(row[2]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num + 1}: {exc}") from None
    try:
        return RBTrace(
            lengths=tuple(lengths),
            values=tuple(values),
            std_errs=tuple(stds) if has_std else None,
            kind=fields["kind"],
            variant=fields["variant"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
