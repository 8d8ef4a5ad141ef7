import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import curve_fit

from csdtc import rb
from csdtc.errors import FitError
from csdtc.rb import (
    KIND_POPULATION_0000,
    KIND_POPULATION_X1,
    KIND_PURITY,
    KIND_SUBTRACTED,
    DecayFit,
    RBTrace,
    assemble_budget,
    budget_to_dict,
    fit_decay,
    full_budget,
    leakage_budget,
    ratio_error_budget,
    read_trace_csv,
    subtracted_population_trace,
    synth_trace,
    write_trace_csv,
)

LENGTHS = (1, 5, 10, 20, 40, 80, 120, 200, 300)


def _fit(amplitude=0.0, offset=0.0, lam=1.0, var_lam=0.0):
    cov = np.zeros((3, 3))
    cov[2, 2] = var_lam
    return DecayFit(amplitude=amplitude, offset=offset, lam=lam, covariance=cov)


class TestSynth:
    def test_deterministic_for_fixed_seed(self):
        a = synth_trace(offset=0.2, amplitude=0.7, lam=0.99, kind=KIND_POPULATION_X1,
                        lengths=LENGTHS, noise_sigma=0.01, seed=7)
        b = synth_trace(offset=0.2, amplitude=0.7, lam=0.99, kind=KIND_POPULATION_X1,
                        lengths=LENGTHS, noise_sigma=0.01, seed=7)
        assert a == b

    def test_lambda_one_is_constant(self):
        trace = synth_trace(offset=0.2, amplitude=0.3, lam=1.0, kind=KIND_POPULATION_X1, lengths=LENGTHS)
        assert set(trace.values) == {0.5}

    def test_sigma_zero_is_exact(self):
        trace = synth_trace(offset=0.25, amplitude=0.72, lam=0.995, kind=KIND_POPULATION_X1, lengths=LENGTHS)
        expected = 0.25 + 0.72 * 0.995 ** np.asarray(LENGTHS, dtype=float)
        assert np.array_equal(np.asarray(trace.values), expected)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            synth_trace(offset=0.0, amplitude=1.0, lam=0.0, kind=KIND_PURITY, lengths=LENGTHS)


class TestTraceValidation:
    def test_too_short(self):
        with pytest.raises(ValueError):
            RBTrace((1, 2, 3), (0.1, 0.2, 0.3), None, KIND_POPULATION_X1, "SRB")

    def test_lengths_strictly_increasing(self):
        with pytest.raises(ValueError):
            RBTrace((1, 2, 2, 4), (0.1,) * 4, None, KIND_POPULATION_X1, "SRB")

    def test_population_bounds(self):
        with pytest.raises(ValueError):
            RBTrace((1, 2, 3, 4), (0.1, 0.2, 0.3, 1.2), None, KIND_POPULATION_0000, "IRB")

    def test_purity_may_be_negative(self):
        trace = RBTrace((1, 2, 3, 4), (0.9, 0.5, 0.1, -0.05), None, KIND_PURITY, "SRB")
        assert trace.values[-1] == -0.05

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RBTrace((1, 2, 3, 4), (0.1,) * 4, (0.1, 0.1, -0.1, 0.1), KIND_POPULATION_X1, "SRB")

    @pytest.mark.parametrize(
        "values, std_errs, match",
        [
            ((0.9, 0.5, math.nan, 0.1), None, "values must be finite"),
            ((0.9, 0.5, math.inf, 0.1), None, "values must be finite"),
            ((0.9, 0.5, 0.2, 0.1), (math.nan, 0.01, 0.01, 0.01), "std_errs must be finite"),
            ((0.9, 0.5, 0.2, 0.1), (0.01, 0.01, math.nan, 0.01), "std_errs must be finite"),
            ((0.9, 0.5, 0.2, 0.1), (0.01, 0.0, 0.01, 0.01), "std_errs must be finite and positive"),
            ((0.9, 0.5, 0.2, 0.1), (0.01, 1e-200, 0.01, 0.01), "each with a finite weight 1/std_err"),
        ],
        ids=["nan_value", "inf_value", "nan_std_first", "nan_std_later", "zero_std", "overflowing_weight"],
    )
    def test_non_finite_rejected(self, values, std_errs, match):
        with pytest.raises(ValueError, match=match):
            RBTrace((1, 2, 3, 4), values, std_errs, KIND_PURITY, "SRB")

    def test_unknown_kind_and_variant(self):
        with pytest.raises(ValueError):
            RBTrace((1, 2, 3, 4), (0.1,) * 4, None, "nope", "SRB")
        with pytest.raises(ValueError):
            RBTrace((1, 2, 3, 4), (0.1,) * 4, None, KIND_POPULATION_X1, "XRB")


class TestFitDecay:
    def test_noiseless_roundtrip(self):
        trace = synth_trace(offset=0.25, amplitude=0.72, lam=0.995, kind=KIND_POPULATION_X1, lengths=LENGTHS)
        fit = fit_decay(trace)
        assert fit.offset == pytest.approx(0.25, abs=1e-9)
        assert fit.amplitude == pytest.approx(0.72, abs=1e-9)
        assert fit.lam == pytest.approx(0.995, abs=1e-9)
        assert fit.lambda_identifiable

    def test_purity_exponent_guard(self):
        trace = synth_trace(offset=0.05, amplitude=0.9, lam=0.99, kind=KIND_PURITY, lengths=LENGTHS)
        fit = fit_decay(trace)
        assert fit.lam == pytest.approx(0.99, abs=1e-9)
        assert fit.lam != pytest.approx(0.99**2, abs=1e-4)

    def test_population_and_purity_recover_same_physical_lambda(self):
        lam = 0.993
        pop = synth_trace(offset=0.25, amplitude=0.7, lam=lam, kind=KIND_POPULATION_X1, lengths=LENGTHS)
        pur = synth_trace(offset=0.02, amplitude=0.9, lam=lam, kind=KIND_PURITY, lengths=LENGTHS)
        assert fit_decay(pop).lam == pytest.approx(fit_decay(pur).lam, abs=1e-9)

    def test_constant_trace_flagged(self):
        trace = RBTrace((1, 5, 10, 20), (0.25,) * 4, None, KIND_POPULATION_X1, "SRB")
        fit = fit_decay(trace)
        assert fit.offset == 0.25
        assert fit.amplitude == 0.0
        assert not fit.lambda_identifiable
        assert fit.lam == 1.0

    def test_weighted_fit_uses_std(self):
        trace = synth_trace(offset=0.25, amplitude=0.7, lam=0.99, kind=KIND_POPULATION_X1,
                            lengths=LENGTHS, noise_sigma=0.01, seed=3)
        fit = fit_decay(trace)
        assert fit.lam == pytest.approx(0.99, abs=5e-3)
        assert fit.lam_variance > 0

    def test_covariance_psd(self):
        trace = synth_trace(offset=0.25, amplitude=0.7, lam=0.99, kind=KIND_POPULATION_X1,
                            lengths=LENGTHS, noise_sigma=0.005, seed=11)
        fit = fit_decay(trace)
        eigs = np.linalg.eigvalsh((fit.covariance + fit.covariance.T) / 2.0)
        assert eigs.min() > -1e-15

    @pytest.mark.parametrize("kind", [KIND_POPULATION_X1, KIND_PURITY])
    @pytest.mark.parametrize("lam", [0.3, 0.9, 0.999, 0.99999])
    def test_noiseless_lambda_range(self, kind, lam):
        # 1e-12, not 1e-9: the zooms close the rate's bracket to 1e-12, so the optimum they return is lam to rounding
        trace = synth_trace(offset=0.1, amplitude=0.8, lam=lam, kind=kind, lengths=LENGTHS)
        assert fit_decay(trace).lam == pytest.approx(lam, abs=1e-12)

    def test_lengths_past_the_underflow_of_the_fastest_rate(self):
        # at lam = 1e-12 the purity decay underflows to 0 at every one of these lengths
        lengths = (30, 60, 100, 200, 300)
        trace = synth_trace(offset=0.05, amplitude=0.9, lam=0.99, kind=KIND_PURITY, lengths=lengths)
        assert fit_decay(trace).lam == pytest.approx(0.99, abs=1e-9)

    @pytest.mark.parametrize("std_err", [1e-153, 3e-154, 1e-154])
    def test_weights_near_overflow_fit_without_warnings(self, std_err):
        # each weight 1/std_err^2 is finite, but their sums overflowed inside the fit until the weights were scaled
        noisy = synth_trace(offset=0.78, amplitude=0.15, lam=0.996, kind=KIND_POPULATION_X1, lengths=LENGTHS,
                            noise_sigma=0.005, seed=1)
        trace = RBTrace(noisy.lengths, noisy.values, (std_err,) * len(LENGTHS), noisy.kind, noisy.variant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decay(trace)
        # equal weights, so the same fit as at std_err 0.005, with a variance (std_err / 0.005)^2 times its own
        reference = fit_decay(noisy)
        assert fit.lam == pytest.approx(reference.lam, abs=1e-9)
        assert fit.lam_variance == pytest.approx(reference.lam_variance * (std_err / 0.005) ** 2, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 7, 300, -300])
    def test_std_errs_scaled_by_a_power_of_two(self, k):
        # the weights are scaled by a power of two before the fit, so this scaling moves no bit but the covariance's
        noisy = synth_trace(offset=0.25, amplitude=0.7, lam=0.99, kind=KIND_PURITY, lengths=LENGTHS,
                            noise_sigma=0.005, seed=5)
        std_errs = tuple(0.003 + 0.001 * i for i in range(len(LENGTHS)))
        fit = fit_decay(RBTrace(noisy.lengths, noisy.values, std_errs, noisy.kind, noisy.variant))
        scaled = fit_decay(RBTrace(noisy.lengths, noisy.values, tuple(s * 2.0**-k for s in std_errs),
                                   noisy.kind, noisy.variant))
        assert (scaled.amplitude, scaled.offset, scaled.lam) == (fit.amplitude, fit.offset, fit.lam)
        assert np.array_equal(scaled.covariance, fit.covariance * 4.0**-k)

    @pytest.mark.parametrize(
        "offset, amplitude, lam, noise_sigma, seed",
        [(0.5, 0.0, 0.9, 0.005, 3), (0.78, 0.15, 0.998, 0.005, 0), (0.5, 0.1, 0.3, 0.001, 2)],
        ids=["noise", "decay_too_slow_to_see", "decay_gone_after_one_length"],
    )
    def test_degenerate_fit_raises_or_has_positive_variances(self, offset, amplitude, lam, noise_sigma, seed):
        trace = synth_trace(offset=offset, amplitude=amplitude, lam=lam, kind=KIND_POPULATION_X1,
                            lengths=LENGTHS, noise_sigma=noise_sigma, seed=seed)
        try:
            fit = fit_decay(trace)
        except FitError:
            return
        assert np.all(np.isfinite(fit.covariance))
        assert np.all(np.diag(fit.covariance) > 0)

    @pytest.mark.parametrize(
        "kind, offset, lam, amplitude, noise_sigma, seed",
        [
            (KIND_PURITY, 0.5, 0.99999, 0.1, 1e-3, 0),
            (KIND_PURITY, 0.5, 0.99, 0.01, 1e-2, 9),
            (KIND_PURITY, 0.5, 0.9, 0.0, 1e-3, 1),
            (KIND_POPULATION_X1, 0.5, 0.9999, 0.1, 1e-2, 4),
            (KIND_POPULATION_X1, 0.5, 0.999, 0.01, 1e-3, 7),
            (KIND_POPULATION_X1, 0.5, 0.99999, 0.1, 1e-2, 19),
            # acceptance criterion 7's noisy x1_srb traces whose search ends at the slowest rate
            *((KIND_POPULATION_X1, 0.78, 0.996, 0.15, 1e-2, seed) for seed in (56, 60, 67, 111, 113, 138, 180, 181)),
        ],
    )
    def test_fit_no_worse_than_a_straight_line(self, kind, offset, lam, amplitude, noise_sigma, seed):
        # lam -> 1 with amplitude ~ 1/(1 - lam) turns the model into a straight line, so no fit
        # it returns may leave a larger chi^2 than the best line; on these noisy traces it comes close
        trace = synth_trace(offset=offset, amplitude=amplitude, lam=lam, kind=kind, lengths=LENGTHS,
                            noise_sigma=noise_sigma, seed=seed)
        try:
            fit = fit_decay(trace)
        except FitError:
            return
        m, y = np.asarray(LENGTHS, dtype=float), np.asarray(trace.values)
        scale = 2 if kind == KIND_PURITY else 1
        chi2 = np.sum((y - fit.offset - fit.amplitude * fit.lam ** (scale * m)) ** 2)
        assert chi2 <= np.sum((y - np.polyval(np.polyfit(m, y, 1), m)) ** 2) * (1 + 1e-6)


def _curve_fit_oracle(trace, p0):
    """The decay fit as scipy's trust-region curve_fit: lam bounded to [1e-12, 1], absolute sigma with std_errs."""
    scale = 2 if trace.kind == KIND_PURITY else 1
    sigma = None if trace.std_errs is None else np.asarray(trace.std_errs)
    popt, pcov = curve_fit(
        lambda m, amplitude, offset, lam: offset + amplitude * lam ** (scale * m),
        np.asarray(trace.lengths, dtype=float), np.asarray(trace.values), p0=p0, sigma=sigma,
        absolute_sigma=sigma is not None, bounds=([-np.inf, -np.inf, 1e-12], [np.inf, np.inf, 1.0]),
    )
    return popt[2], math.sqrt(pcov[2, 2])


class TestAgainstCurveFit:
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize(
        "kind, offset, amplitude, lo, hi",
        [
            (KIND_POPULATION_X1, 0.78, 0.15, 0.994, 0.997),
            (KIND_PURITY, -0.02, 0.95, 0.994, 0.997),
            (KIND_SUBTRACTED, 0.07, 0.60, 0.989, 0.996),
        ],
    )
    def test_lambda_and_its_error_match(self, kind, offset, amplitude, lo, hi, weighted):
        rng = np.random.default_rng(17)
        for seed in range(6):
            lam = rng.uniform(lo, hi)
            trace = synth_trace(offset=offset, amplitude=amplitude, lam=lam, kind=kind, lengths=LENGTHS,
                                noise_sigma=0.005, seed=seed)
            if not weighted:
                trace = RBTrace(trace.lengths, trace.values, None, trace.kind, trace.variant)
            lam_ref, sigma_ref = _curve_fit_oracle(trace, (amplitude, offset, lam))
            fit = fit_decay(trace)
            assert abs(fit.lam - lam_ref) <= 1e-3 * sigma_ref
            assert math.sqrt(fit.lam_variance) == pytest.approx(sigma_ref, rel=1e-3)


class TestLeakage:
    def test_arithmetic_example(self):
        srb = _fit(offset=0.9, lam=0.999)
        irb = _fit(offset=0.9, lam=0.998)
        l1_cz, _ = leakage_budget(srb, irb)
        expected = 1.0 - (1.0 - 2e-4) / (1.0 - 1e-4)
        assert l1_cz == pytest.approx(expected, rel=1e-12)
        assert l1_cz == pytest.approx(1.0001e-4, rel=1e-4)

    def test_lambda_one_gives_zero(self):
        l1_cz, _ = leakage_budget(_fit(offset=0.9, lam=1.0), _fit(offset=0.9, lam=1.0))
        assert l1_cz == 0.0

    def test_identical_fits_give_zero(self):
        fit = _fit(offset=0.8, lam=0.995)
        assert leakage_budget(fit, fit)[0] == 0.0

    def test_srb_rate_above_one_rejected(self):
        with pytest.raises(FitError):
            leakage_budget(_fit(offset=-1.5, lam=0.5), _fit(offset=0.9, lam=0.99))


class TestRatioBudgets:
    def test_incoherent_arithmetic(self):
        value, _ = ratio_error_budget(_fit(lam=0.99), _fit(lam=0.98))
        assert value == pytest.approx(0.75 * (1 - 0.98 / 0.99), rel=1e-12)
        assert value == pytest.approx(7.576e-3, abs=1e-5)

    def test_equal_lambdas_give_zero(self):
        assert ratio_error_budget(_fit(lam=0.97), _fit(lam=0.97))[0] == 0.0

    def test_gate_error_arithmetic(self):
        value, _ = ratio_error_budget(_fit(lam=0.995), _fit(lam=0.990))
        assert value == pytest.approx(0.75 * (1 - 0.990 / 0.995), rel=1e-12)
        assert value == pytest.approx(3.769e-3, abs=1e-5)

    def test_zero_srb_lambda(self):
        with pytest.raises(FitError):
            ratio_error_budget(_fit(lam=0.0), _fit(lam=0.5))


class TestSubtractedTrace:
    def test_arithmetic(self):
        p0000 = RBTrace((1, 2, 3, 4), (0.9, 0.8, 0.7, 0.6), (0.03, 0.03, 0.03, 0.03),
                        KIND_POPULATION_0000, "SRB")
        px1 = RBTrace((1, 2, 3, 4), (1.0, 0.96, 0.92, 0.88), (0.04, 0.04, 0.04, 0.04),
                      KIND_POPULATION_X1, "SRB")
        sub = subtracted_population_trace(p0000, px1)
        assert sub.kind == KIND_SUBTRACTED
        assert sub.values[0] == pytest.approx(0.9 - 1.0 / 4.0, rel=1e-15)
        assert sub.std_errs[0] == pytest.approx(math.hypot(0.03, 0.01), rel=1e-12)

    def test_mismatched_lengths(self):
        p0000 = RBTrace((1, 2, 3, 4), (0.9, 0.8, 0.7, 0.6), None, KIND_POPULATION_0000, "SRB")
        px1 = RBTrace((1, 2, 3, 5), (1.0, 0.96, 0.92, 0.88), None, KIND_POPULATION_X1, "SRB")
        with pytest.raises(ValueError):
            subtracted_population_trace(p0000, px1)

    def test_kind_checks(self):
        px1 = RBTrace((1, 2, 3, 4), (1.0, 0.96, 0.92, 0.88), None, KIND_POPULATION_X1, "SRB")
        with pytest.raises(ValueError):
            subtracted_population_trace(px1, px1)


class TestAssembleBudget:
    def test_published_fidelity_value(self):
        budget = assemble_budget(r_cz=0.0014, r_incoh_cz=0.0012, l1_cz=0.0001)
        assert budget.fidelity == pytest.approx(0.998575, abs=1e-15)

    def test_identity_exact(self):
        budget = assemble_budget(r_cz=0.0014, r_incoh_cz=0.0012, l1_cz=0.0001)
        lhs = budget.r_incoh_cz + budget.r_coh_cz + 0.75 * budget.l1_cz
        assert lhs == pytest.approx(budget.r_cz, rel=1e-15)
        assert budget.fidelity == pytest.approx(1.0 - budget.r_cz - budget.l1_cz / 4.0, rel=1e-15)

    def test_coherent_residual_value(self):
        budget = assemble_budget(r_cz=0.0014, r_incoh_cz=0.0012, l1_cz=0.0001)
        assert budget.r_coh_cz == pytest.approx(1.25e-4, rel=1e-9)

    def test_zero_leakage_equal_rates(self):
        budget = assemble_budget(r_cz=0.002, r_incoh_cz=0.002, l1_cz=0.0)
        assert budget.r_coh_cz == 0.0

    def test_negative_coherent_warns(self):
        with pytest.warns(UserWarning, match="negative"):
            budget = assemble_budget(r_cz=0.001, r_incoh_cz=0.002, l1_cz=0.0)
        assert budget.r_coh_cz < 0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("seed", range(20))
    def test_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        r, ri, l1 = rng.uniform(0.0, 0.02, 3)
        budget = assemble_budget(r_cz=r, r_incoh_cz=ri, l1_cz=l1)
        assert budget.r_incoh_cz + budget.r_coh_cz + 0.75 * budget.l1_cz == pytest.approx(r, rel=1e-14, abs=1e-18)
        assert budget.fidelity == pytest.approx(1.0 - r - l1 / 4.0, rel=1e-15)


def _bundle(noise_sigma=0.0, seed=0):
    lam = {"x1_srb": 0.9990, "x1_irb": 0.9980, "purity_srb": 0.9960, "purity_irb": 0.9930,
           "p0000_srb": 0.9950, "p0000_irb": 0.9900}
    bundle = {}
    bundle["x1_srb"] = synth_trace(offset=0.92, amplitude=0.07, lam=lam["x1_srb"],
                                   kind=KIND_POPULATION_X1, lengths=LENGTHS,
                                   noise_sigma=noise_sigma, seed=seed, variant="SRB")
    bundle["x1_irb"] = synth_trace(offset=0.92, amplitude=0.07, lam=lam["x1_irb"],
                                   kind=KIND_POPULATION_X1, lengths=LENGTHS,
                                   noise_sigma=noise_sigma, seed=seed + 1, variant="IRB")
    bundle["purity_srb"] = synth_trace(offset=-0.02, amplitude=0.95, lam=lam["purity_srb"],
                                       kind=KIND_PURITY, lengths=LENGTHS,
                                       noise_sigma=noise_sigma, seed=seed + 2, variant="SRB")
    bundle["purity_irb"] = synth_trace(offset=-0.02, amplitude=0.95, lam=lam["purity_irb"],
                                       kind=KIND_PURITY, lengths=LENGTHS,
                                       noise_sigma=noise_sigma, seed=seed + 3, variant="IRB")
    bundle["p0000_srb"] = synth_trace(offset=0.26, amplitude=0.70, lam=lam["p0000_srb"],
                                      kind=KIND_POPULATION_0000, lengths=LENGTHS,
                                      noise_sigma=noise_sigma, seed=seed + 4, variant="SRB")
    bundle["p0000_irb"] = synth_trace(offset=0.26, amplitude=0.70, lam=lam["p0000_irb"],
                                      kind=KIND_POPULATION_0000, lengths=LENGTHS,
                                      noise_sigma=noise_sigma, seed=seed + 5, variant="IRB")
    return bundle, lam


class TestFullBudget:
    def test_budget_identity_in_output(self):
        bundle, _ = _bundle()
        budget = full_budget(bundle)
        assert budget.r_incoh_cz + budget.r_coh_cz + 0.75 * budget.l1_cz == pytest.approx(
            budget.r_cz, rel=1e-12, abs=1e-18
        )
        doc = budget_to_dict(budget)
        assert set(doc) == {"L1_cz", "r_incoh_cz", "r_coh_cz", "r_cz", "fidelity", "uncertainties", "d"}

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("seed", range(5))
    def test_noiseless_bundle_recovers_closed_form(self, seed):
        # purity decays as lambda^(2m), written out here rather than taken from
        # synth_trace; P_0000 = S + P_X1/4 makes the subtracted series a single exponential S
        rng = np.random.default_rng(seed)
        x1_offset = rng.uniform(0.75, 0.80)
        lam = {}
        for name, lo, hi, drop_lo, drop_hi in (
            ("x1", 0.994, 0.997, 0.002, 0.005),
            ("purity", 0.994, 0.997, 0.002, 0.003),
            ("sub", 0.993, 0.996, 0.004, 0.006),
        ):
            lam[name, "SRB"] = rng.uniform(lo, hi)
            lam[name, "IRB"] = lam[name, "SRB"] - rng.uniform(drop_lo, drop_hi)
        bundle = {}
        for variant in ("SRB", "IRB"):
            x1 = synth_trace(offset=x1_offset, amplitude=0.15, lam=lam["x1", variant],
                             kind=KIND_POPULATION_X1, lengths=LENGTHS, variant=variant)
            sub = synth_trace(offset=0.07, amplitude=0.60, lam=lam["sub", variant],
                              kind=KIND_SUBTRACTED, lengths=LENGTHS, variant=variant)
            purity = tuple(-0.02 + 0.95 * lam["purity", variant] ** (2 * m) for m in LENGTHS)
            p0000 = tuple(s + x / 4.0 for s, x in zip(sub.values, x1.values))
            slot = variant.lower()
            bundle[f"x1_{slot}"] = x1
            bundle[f"purity_{slot}"] = RBTrace(LENGTHS, purity, None, KIND_PURITY, variant)
            bundle[f"p0000_{slot}"] = RBTrace(LENGTHS, p0000, None, KIND_POPULATION_0000, variant)
        budget = full_budget(bundle)
        l1 = {v: (1.0 - x1_offset) * (1.0 - lam["x1", v]) for v in ("SRB", "IRB")}
        r_incoh = 0.75 * (1.0 - lam["purity", "IRB"] / lam["purity", "SRB"])
        assert budget.l1_cz == pytest.approx(1.0 - (1.0 - l1["IRB"]) / (1.0 - l1["SRB"]), rel=1e-6)
        assert budget.r_incoh_cz == pytest.approx(r_incoh, rel=1e-6)
        assert budget.r_cz == pytest.approx(0.75 * (1.0 - lam["sub", "IRB"] / lam["sub", "SRB"]), rel=1e-6)

    def test_partial_budget_has_nulls(self):
        bundle, _ = _bundle()
        partial = {k: bundle[k] for k in ("x1_srb", "x1_irb")}
        budget = full_budget(partial, allow_partial=True)
        assert budget.l1_cz is not None
        assert budget.r_incoh_cz is None
        assert budget.r_cz is None
        assert budget.fidelity is None

    def test_missing_without_partial_rejected(self):
        bundle, _ = _bundle()
        del bundle["purity_irb"]
        with pytest.raises(ValueError, match="missing"):
            full_budget(bundle)

    def test_wrong_kind_in_slot_rejected(self):
        bundle, _ = _bundle()
        bundle["purity_srb"] = bundle["x1_srb"]
        with pytest.raises(ValueError, match="purity_srb"):
            full_budget(bundle)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("purity_lengths", [LENGTHS, (2, 6, 15, 30, 60, 110, 250)], ids=["shared", "own"])
    def test_each_fit_as_if_fitted_alone(self, monkeypatch, seed, purity_lengths):
        # the budget fits its six series in one batch; each result must carry the same bits as
        # fit_decay of that series alone, whatever else the batch holds and however long its traces are
        bundle, lam = _bundle(noise_sigma=0.002, seed=seed)
        for slot in ("purity_srb", "purity_irb"):
            purity = synth_trace(offset=-0.02, amplitude=0.95, lam=lam[slot], kind=KIND_PURITY,
                                 lengths=purity_lengths, noise_sigma=0.01, seed=seed + 7, variant=slot[-3:].upper())
            # without standard errors, so that one stack mixes weighted and unweighted traces
            bundle[slot] = RBTrace(purity.lengths, purity.values, None, purity.kind, purity.variant)
        batches = []
        fit_batch = rb._fit_decays

        def recording(traces):
            batches.append((traces, fit_batch(traces)))
            return batches[-1][1]

        monkeypatch.setattr(rb, "_fit_decays", recording)
        full_budget(bundle)
        monkeypatch.undo()
        [(traces, fits)] = batches
        assert len(traces) == 6
        for trace, fit in zip(traces, fits):
            alone = fit_decay(trace)
            assert (fit.lam, fit.amplitude, fit.offset) == (alone.lam, alone.amplitude, alone.offset)
            assert np.array_equal(fit.covariance, alone.covariance)

    @pytest.mark.parametrize(
        "failing, named",
        [(("purity_irb", "x1_irb"), "x1_irb"), (("p0000_srb", "purity_srb"), "purity_srb"),
         (("p0000_irb", "p0000_srb"), "p0000_srb/x1_srb")],
    )
    def test_first_failing_slot_is_named(self, failing, named):
        # every slot is fitted in one batch, but a failure is raised for the first slot the budget uses
        bundle, _ = _bundle()
        for slot in failing:
            kind, variant = bundle[slot].kind, bundle[slot].variant
            if slot.startswith("p0000"):
                # dyadic values keep P_0000 - P_X1/4 exactly 0.25 at every length
                x1 = tuple(0.5 + 0.5**k for k in range(1, len(LENGTHS) + 1))
                bundle[f"x1_{slot[-3:]}"] = RBTrace(LENGTHS, x1, None, KIND_POPULATION_X1, variant)
                bundle[slot] = RBTrace(LENGTHS, tuple(0.25 + v / 4 for v in x1), None, kind, variant)
            else:
                bundle[slot] = RBTrace(LENGTHS, (0.5,) * len(LENGTHS), None, kind, variant)
        with pytest.raises(FitError, match=f"^trace {re.escape(named)} does not decay"):
            full_budget(bundle)

    def test_failing_fit_named_before_mismatched_lengths(self):
        # the x1 fits come before the gate-error series, whose P_0000 and P_X1 lengths must agree
        bundle, _ = _bundle()
        bundle["x1_srb"] = RBTrace(LENGTHS, (0.9,) * len(LENGTHS), None, KIND_POPULATION_X1, "SRB")
        bundle["p0000_irb"] = synth_trace(offset=0.26, amplitude=0.70, lam=0.99, kind=KIND_POPULATION_0000,
                                          lengths=LENGTHS[:-1], variant="IRB")
        with pytest.raises(FitError, match="^trace x1_srb does not decay"):
            full_budget(bundle)
        bundle["x1_srb"] = _bundle()[0]["x1_srb"]
        with pytest.raises(ValueError, match="share their sequence lengths"):
            full_budget(bundle)


class TestStatisticalSoundness:
    @pytest.mark.parametrize(
        "kind,params",
        [
            (KIND_POPULATION_X1, dict(offset=0.2, amplitude=0.7, lam=0.995)),
            (KIND_PURITY, dict(offset=0.01, amplitude=0.9, lam=0.995)),
        ],
    )
    def test_mean_lambda_within_two_standard_errors(self, kind, params):
        fitted = []
        for seed in range(200):
            trace = synth_trace(kind=kind, lengths=LENGTHS, noise_sigma=0.01, seed=seed, **params)
            fitted.append(fit_decay(trace).lam)
        fitted = np.asarray(fitted)
        stderr = fitted.std(ddof=1) / math.sqrt(fitted.size)
        assert abs(fitted.mean() - params["lam"]) < 2.0 * stderr


class TestTraceCsv:
    def test_round_trip_with_std(self, tmp_path):
        trace = synth_trace(offset=0.2, amplitude=0.7, lam=0.99, kind=KIND_POPULATION_X1,
                            lengths=LENGTHS, noise_sigma=0.01, seed=5, variant="IRB")
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    def test_round_trip_without_std(self, tmp_path):
        trace = synth_trace(offset=0.2, amplitude=0.7, lam=0.99, kind=KIND_PURITY, lengths=LENGTHS)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("variant=SRB", "variant=SRB variant=IRB", 1),
            ("# kind", "# note kind", 1),
            ("m,value,std_err", "m,value,sigma", 2),
            ("\n5,", "\n5,0.5,", 4),
            ("\n5,", "\n\n5,", 4),
        ],
        ids=["variant_twice", "bare_header_word", "sigma_column", "long_row", "blank_row"],
    )
    def test_only_the_written_format_is_read(self, tmp_path, old, new, line):
        trace = synth_trace(offset=0.2, amplitude=0.7, lam=0.99, kind=KIND_POPULATION_X1,
                            lengths=LENGTHS, noise_sigma=0.01, seed=5)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: "):
            read_trace_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("m,value\n1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)
