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
from scipy.optimize import minimize_scalar

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
            if not all(0.0 < s < math.inf for s in self.std_errs):
                raise ValueError("std_errs must be finite and positive")
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


def _projection(rates, scaled_m, y, weights):
    """Amplitude, offset and chi^2 of the fit at each decay rate r = -ln(lam), in closed form.

    The offset is eliminated by centring decay and data on their weighted
    means; a rate whose decay underflows at every length fits the offset alone.
    """
    decay = np.exp(-np.multiply.outer(rates, scaled_m))
    y_mean = (weights @ y) / weights.sum()
    decay_mean = (decay @ weights) / weights.sum()
    decay_c = decay - decay_mean[..., None]
    y_c = y - y_mean
    amplitude = ((decay_c * weights) @ y_c) / np.maximum((decay_c * decay_c) @ weights, np.finfo(float).tiny)
    # chi^2 from the residuals themselves: the expanded sums cancel near lam = 1
    residuals = y_c - amplitude[..., None] * decay_c
    return amplitude, y_mean - amplitude * decay_mean, (residuals * residuals) @ weights


def fit_decay(trace: RBTrace) -> DecayFit:
    """Weighted least squares of offset + amplitude * lam^(scale*m), by variable projection.

    scale is 2 for purity traces, 1 otherwise; weights are 1/std^2 (unit
    without standard errors). At fixed lam, amplitude and offset are linear,
    so only the rate -ln(lam) is searched, with lam in [1e-12, 1]: a log-spaced
    grid brackets the best cell, scipy's bounded Brent method refines it, and
    two Gauss-Newton steps on (amplitude, offset, lam), each kept only if it
    lowers chi^2, polish it. The covariance is (J^T W J)^-1 of the analytic
    Jacobian, scaled by chi^2/(n-3) without standard errors. ``FitError`` if it
    is singular to rounding or non-finite.
    """
    scale = _exponent_scale(trace.kind)
    m = np.asarray(trace.lengths, dtype=float)
    y = np.asarray(trace.values, dtype=float)
    absolute = trace.std_errs is not None
    weights = np.asarray(trace.std_errs, dtype=float) ** -2 if absolute else np.ones_like(y)

    if np.ptp(y) == 0.0:
        # constant trace: amplitude 0, decay constant unidentifiable
        return DecayFit(amplitude=0.0, offset=float(y[0]), lam=1.0, covariance=np.zeros((3, 3)),
                        lambda_identifiable=False)

    scaled_m = scale * m
    # rates r = -ln(lam) from a 1e-6 decay over the trace (slower is a straight line to rounding) to the floor
    rates = np.geomspace(1e-6 / scaled_m[-1], -math.log(_LAMBDA_FLOOR), 64)
    best = int(np.argmin(_projection(rates, scaled_m, y, weights)[2]))
    bracket = (rates[max(best - 1, 0)], rates[min(best + 1, rates.size - 1)])
    rate = minimize_scalar(lambda r: _projection(r, scaled_m, y, weights)[2], bounds=bracket,
                           method="bounded", options={"xatol": 1e-12}).x
    amplitude, offset, chi2 = _projection(rate, scaled_m, y, weights)
    theta = np.array([amplitude, offset, math.exp(-rate)])
    try:
        for _ in range(2):
            decay = theta[2] ** scaled_m
            jac = np.column_stack([decay, np.ones_like(m), theta[0] * scaled_m * theta[2] ** (scaled_m - 1)])
            residuals = y - theta[1] - theta[0] * decay
            # (J^T W J)^-1 from the SVD of W^(1/2) J with unit columns: positive definite, or singular to rounding
            weighted_jac = np.sqrt(weights)[:, None] * jac
            norms = np.maximum(np.linalg.norm(weighted_jac, axis=0), np.finfo(float).tiny)
            _, sv, vt = np.linalg.svd(weighted_jac / norms, full_matrices=False)
            if not sv[-1] > np.finfo(float).eps * m.size * sv[0]:
                raise np.linalg.LinAlgError(f"column-scaled Jacobian has singular values {sv}")
            covariance = (vt.T / sv**2) @ vt / np.outer(norms, norms)
            trial = theta + covariance @ (jac.T @ (weights * residuals))
            trial[2] = min(max(trial[2], _LAMBDA_FLOOR), 1.0)
            trial_chi2 = weights @ (y - trial[1] - trial[0] * trial[2] ** scaled_m) ** 2
            if not trial_chi2 <= chi2:
                break
            theta, chi2 = trial, trial_chi2
    except np.linalg.LinAlgError as exc:
        raise FitError(f"decay fit is singular at lam {theta[2]:.6g}: lam is not identifiable ({exc})") from exc
    if not absolute:
        covariance = covariance * chi2 / (y.size - 3)
    if not np.all(np.isfinite(covariance)):
        raise FitError(f"decay fit produced a non-finite covariance; residuals {residuals}")
    return DecayFit(*map(float, theta), covariance, lambda_identifiable=bool(abs(theta[0]) > _AMPLITUDE_FLOOR))


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
        l1, l1_std = leakage_budget(_slot_fit("x1_srb", traces["x1_srb"]), _slot_fit("x1_irb", traces["x1_irb"]))

    r_incoh = r_incoh_std = None
    if {"purity_srb", "purity_irb"} <= set(traces):
        r_incoh, r_incoh_std = ratio_error_budget(
            _slot_fit("purity_srb", traces["purity_srb"]), _slot_fit("purity_irb", traces["purity_irb"])
        )

    r_cz = r_cz_std = None
    if {"p0000_srb", "p0000_irb", "x1_srb", "x1_irb"} <= set(traces):
        r_cz, r_cz_std = ratio_error_budget(
            _slot_fit("p0000_srb/x1_srb", subtracted_population_trace(traces["p0000_srb"], traces["x1_srb"])),
            _slot_fit("p0000_irb/x1_irb", subtracted_population_trace(traces["p0000_irb"], traces["x1_irb"])),
        )

    return assemble_budget(
        r_cz, r_incoh, l1,
        r_cz_std=r_cz_std, r_incoh_std=r_incoh_std, l1_std=l1_std,
    )


def _slot_fit(slots: str, trace: RBTrace) -> DecayFit:
    """``fit_decay`` of the trace in ``slots``; ``FitError`` naming them if it fails or does not decay."""
    try:
        fit = fit_decay(trace)
    except FitError as exc:
        raise FitError(f"trace {slots}: {exc}") from exc
    if not fit.lambda_identifiable:
        raise FitError(f"trace {slots} does not decay (fitted amplitude {fit.amplitude}): lambda is not identifiable")
    return fit


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
    """Read a trace exactly as ``write_trace_csv`` writes it; anything else raises ValueError naming the line."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: line 1: expected '# kind=... variant=...' header line")
        pairs = [part.split("=", 1) for part in header[1:].split()]
        if sorted(pair[0] for pair in pairs) != ["kind", "variant"] or any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"{path}: line 1: header must define kind and variant once each, got {header!r}")
        fields = dict(pairs)
        reader = csv.reader(handle)
        columns = next(reader, [])
        if columns not in (["m", "value"], ["m", "value", "std_err"]):
            raise ValueError(f"{path}: line 2: expected columns m,value or m,value,std_err, got {','.join(columns)!r}")
        has_std = len(columns) == 3
        lengths, values, stds = [], [], []
        for row in reader:
            if len(row) != len(columns):
                raise ValueError(f"{path}: line {reader.line_num + 1}: expected {len(columns)} fields, got {len(row)}")
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
