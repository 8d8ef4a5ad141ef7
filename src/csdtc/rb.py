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
# the decay-rate search: points per zoom, and the bracket width at which a trace stops zooming
_ZOOM_POINTS = 17
_RATE_TOL = 1e-12


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
    """Amplitude, offset and chi^2 of each trace's fit at each of its decay rates r = -ln(lam), in closed form.

    ``rates`` is (traces, rates) and the other arrays are (traces, points). The
    offset is eliminated by centring decay and data on their weighted means; a
    rate whose decay underflows at every length fits the offset alone. Every
    sum runs over one trace's points, so no trace's result depends on another's.
    """
    decay = np.exp(rates[..., None] * -scaled_m[:, None, :])
    w = weights[:, None, :]
    total = weights.sum(axis=-1)
    y_mean = (weights * y).sum(axis=-1) / total
    decay_mean = (decay * w).sum(axis=-1) / total[:, None]
    decay_c = decay - decay_mean[..., None]
    weighted_c = decay_c * w
    y_c = (y - y_mean[:, None])[:, None, :]
    amplitude = (weighted_c * y_c).sum(axis=-1) / np.maximum((weighted_c * decay_c).sum(axis=-1), np.finfo(float).tiny)
    # chi^2 from the residuals themselves: the expanded sums cancel near lam = 1
    residuals = y_c - amplitude[..., None] * decay_c
    return amplitude, y_mean[:, None] - amplitude * decay_mean, (residuals * residuals * w).sum(axis=-1)


def _best_rates(scaled_m, y, weights):
    """Each trace's chi^2-minimizing rate: a log-spaced grid brackets it, repeated zooms close in on it.

    A zoom evaluates ``_ZOOM_POINTS`` evenly spaced rates across a trace's
    bracket, both ends included, and keeps the best one's neighbours as the
    next bracket. A trace stops zooming once its own bracket is within
    ``_RATE_TOL``, so its rate does not depend on the other traces.
    """
    # rates r = -ln(lam) from the floor down to a 1e-6 decay over the trace (slower is a straight line to
    # rounding); grids run from fast to slow and argmin takes the first of equal chi^2 values, so a trace with
    # no decay, whose chi^2 is flat at fast rates, runs to the lam floor, where its Jacobian is singular
    grid = np.geomspace(-math.log(_LAMBDA_FLOOR), 1e-6 / scaled_m[:, -1], 64, axis=-1)
    steps, neighbours = np.linspace(0.0, 1.0, _ZOOM_POINTS), np.array([-1, 0, 1])
    bracket = np.empty((len(grid), 3))  # fast end, best rate, slow end
    live = np.arange(len(grid))
    while live.size:
        best = _projection(grid, scaled_m[live], y[live], weights[live])[2].argmin(axis=-1)
        picks = np.minimum(np.maximum(best[:, None] + neighbours, 0), grid.shape[1] - 1)
        bracket[live] = grid[np.arange(live.size)[:, None], picks]
        live = live[bracket[live, 0] - bracket[live, 2] > _RATE_TOL]
        grid = bracket[live, :1] + (bracket[live, 2:] - bracket[live, :1]) * steps
    return bracket[:, 1]


def fit_decay(trace: RBTrace) -> DecayFit:
    """Weighted least squares of offset + amplitude * lam^(scale*m), by variable projection.

    scale is 2 for purity traces, 1 otherwise; weights are 1/std^2 (unit
    without standard errors). At fixed lam, amplitude and offset are linear,
    so only the rate -ln(lam) is searched, with lam in [1e-12, 1]: a log-spaced
    grid brackets the best cell, vectorized zooms refine it to 1e-12 in the
    rate, and two Gauss-Newton steps on (amplitude, offset, lam), each kept
    only if it lowers chi^2, polish it. The covariance is (J^T W J)^-1 of the
    analytic Jacobian, scaled by chi^2/(n-3) without standard errors.
    ``FitError`` if it is singular to rounding or non-finite. This is the
    batch of one of the fit ``full_budget`` runs on all its traces at once.
    """
    (fit,) = _fit_decays([trace])
    if isinstance(fit, FitError):
        raise fit
    return fit


def _fit_decays(traces) -> list:
    """``fit_decay`` of every trace in one vectorized pass: a DecayFit, or the FitError it raises, per trace.

    Traces with the same number of points are fitted as one stack, and each
    trace's result is bit-identical to its fit alone.
    """
    results = [None] * len(traces)
    stacks = {}
    for index, trace in enumerate(traces):
        if np.ptp(trace.values) == 0.0:
            # constant trace: amplitude 0, decay constant unidentifiable
            results[index] = DecayFit(amplitude=0.0, offset=float(trace.values[0]), lam=1.0,
                                      covariance=np.zeros((3, 3)), lambda_identifiable=False)
        else:
            stacks.setdefault(len(trace.lengths), []).append(index)
    for indices in stacks.values():
        for index, result in zip(indices, _fit_stack([traces[i] for i in indices])):
            results[index] = result
    return results


def _fit_stack(traces) -> list:
    """The search, polish and covariance of ``fit_decay`` on non-constant traces of equal size, stacked."""
    scaled_m = np.array([[_exponent_scale(t.kind) * m for m in t.lengths] for t in traces], dtype=float)
    y = np.array([t.values for t in traces], dtype=float)
    n = y.shape[1]
    absolute = np.array([t.std_errs is not None for t in traces])
    weights = np.array([t.std_errs if t.std_errs is not None else (1.0,) * n for t in traces], dtype=float) ** -2

    rate = _best_rates(scaled_m, y, weights)
    amplitude, offset, chi2 = (v[:, 0] for v in _projection(rate[:, None], scaled_m, y, weights))
    theta = np.column_stack([amplitude, offset, np.exp(-rate)])
    errors = [None] * len(traces)
    for _ in range(2):
        decay = theta[:, 2:] ** scaled_m
        jac = np.stack([decay, np.ones_like(decay), theta[:, :1] * scaled_m * theta[:, 2:] ** (scaled_m - 1)], axis=-1)
        residuals = y - theta[:, 1:2] - theta[:, :1] * decay
        # (J^T W J)^-1 from the SVD of W^(1/2) J with unit columns: positive definite, or singular to rounding
        weighted_jac = np.sqrt(weights)[..., None] * jac
        norms = np.maximum(np.linalg.norm(weighted_jac, axis=-2), np.finfo(float).tiny)
        scaled_jac = weighted_jac / norms[:, None, :]
        # LAPACK does not converge on NaN, and one such matrix would fail the whole stack
        unconverged = np.isnan(scaled_jac).any(axis=(-2, -1))
        scaled_jac[unconverged] = 0.0
        _, sv, vt = np.linalg.svd(scaled_jac, full_matrices=False)
        singular = ~(sv[:, -1] > np.finfo(float).eps * n * sv[:, 0])
        for i in np.flatnonzero(singular):
            reason = "SVD did not converge" if unconverged[i] else f"column-scaled Jacobian has singular values {sv[i]}"
            errors[i] = errors[i] or FitError(
                f"decay fit is singular at lam {theta[i, 2]:.6g}: lam is not identifiable ({reason})")
        # a failed trace's covariance and step are never used; unit values keep them finite
        sv[singular], norms[singular] = 1.0, 1.0
        covariance = (np.swapaxes(vt, -1, -2) / sv[:, None, :] ** 2) @ vt / (norms[:, :, None] * norms[:, None, :])
        gradient = (jac * (weights * residuals)[..., None]).sum(axis=-2)
        trial = theta + (covariance @ gradient[..., None])[..., 0]
        trial[:, 2] = np.clip(trial[:, 2], _LAMBDA_FLOOR, 1.0)
        trial_chi2 = (weights * (y - trial[:, 1:2] - trial[:, :1] * trial[:, 2:] ** scaled_m) ** 2).sum(axis=-1)
        # a rejected step leaves theta, and so the next pass's covariance and step, as they are
        keep = trial_chi2 <= chi2
        theta[keep], chi2[keep] = trial[keep], trial_chi2[keep]
    covariance[~absolute] = covariance[~absolute] * chi2[~absolute, None, None] / (n - 3)
    results = []
    for i in range(len(traces)):
        if errors[i] is None and not np.all(np.isfinite(covariance[i])):
            errors[i] = FitError(f"decay fit produced a non-finite covariance; residuals {residuals[i]}")
        results.append(errors[i] or DecayFit(*map(float, theta[i]), covariance[i],
                                             lambda_identifiable=bool(abs(theta[i, 0]) > _AMPLITUDE_FLOOR)))
    return results


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
    because of the leakage-reference subtraction. Every trace, and each
    P_0000 - P_X1/D series, is fitted in one vectorized batch, with the same
    bits as ``fit_decay`` of it alone. Failures are raised in the order the
    budget uses the fits: x1, purity, then the gate-error series, SRB first.
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

    # one batched fit of every trace it has, the two P_0000 - P_X1/D series included; a series that cannot be
    # built keeps its ValueError in place of its fit, so failures are raised in the order the budget uses them
    series = {slot: traces[slot] for slot in ("x1_srb", "x1_irb", "purity_srb", "purity_irb") if slot in traces}
    if {"p0000_srb", "p0000_irb", "x1_srb", "x1_irb"} <= set(traces):
        for variant in ("srb", "irb"):
            try:
                series[f"p0000_{variant}/x1_{variant}"] = subtracted_population_trace(
                    traces[f"p0000_{variant}"], traces[f"x1_{variant}"])
            except ValueError as exc:
                series[f"p0000_{variant}/x1_{variant}"] = exc
    fits = dict(series)
    fittable = [slots for slots, trace in series.items() if isinstance(trace, RBTrace)]
    fits.update(zip(fittable, _fit_decays([series[slots] for slots in fittable])))

    l1 = l1_std = None
    if {"x1_srb", "x1_irb"} <= set(traces):
        l1, l1_std = leakage_budget(_slot_fit("x1_srb", fits), _slot_fit("x1_irb", fits))

    r_incoh = r_incoh_std = None
    if {"purity_srb", "purity_irb"} <= set(traces):
        r_incoh, r_incoh_std = ratio_error_budget(_slot_fit("purity_srb", fits), _slot_fit("purity_irb", fits))

    r_cz = r_cz_std = None
    if {"p0000_srb", "p0000_irb", "x1_srb", "x1_irb"} <= set(traces):
        r_cz, r_cz_std = ratio_error_budget(_slot_fit("p0000_srb/x1_srb", fits), _slot_fit("p0000_irb/x1_irb", fits))

    return assemble_budget(
        r_cz, r_incoh, l1,
        r_cz_std=r_cz_std, r_incoh_std=r_incoh_std, l1_std=l1_std,
    )


def _slot_fit(slots: str, fits: dict) -> DecayFit:
    """The fit of the trace in ``slots``; ``FitError`` naming them if it failed or does not decay.

    A ValueError in place of the fit, from building the trace, is raised as it is.
    """
    fit = fits[slots]
    if isinstance(fit, ValueError):
        raise fit
    if isinstance(fit, FitError):
        raise FitError(f"trace {slots}: {fit}") from fit
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
