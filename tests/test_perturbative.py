import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from csdtc import perturbative
from csdtc.circuit import CircuitParams, derive_junction_energies
from csdtc.constants import E_CHARGE, FF, GHZ, HBAR, NH, PLANCK_H
from csdtc.errors import ModelError
from csdtc.perturbative import (
    BlockModes,
    EffectiveParams,
    ModeSystem,
    block_normal_modes,
    effective_parameters,
    mode_frequencies_and_g12,
    shunt_capacitance_for,
    two_mode_reduction,
    zero_coupling_c34,
    zz_perturbative,
)


def _blocks(params):
    """Both blocks at the default normalization EJ1, with the junction energies."""
    ej = derive_junction_energies(params)
    b13, b24 = block_normal_modes(params, ej, ej.ej1)
    return b13, b24, ej


class TestBlockModes:
    def test_uncoupled_block_is_identity(self, device):
        bare = replace(device, c13=0.0)
        block, _, _ = _blocks(bare)
        assert np.allclose(block.u, np.eye(2), atol=1e-14)
        assert block.c_qubit == pytest.approx(device.c11 * FF, rel=1e-12)

    def test_uncoupled_block_scaling_with_norm(self, device):
        bare = replace(device, c13=0.0)
        ej = derive_junction_energies(device)
        block, _ = block_normal_modes(bare, ej, e_norm_ghz=ej.ej2)
        assert block.c_qubit == pytest.approx(device.c11 * FF * ej.ej2 / ej.ej1, rel=1e-12)

    def test_device_blocks(self, device):
        for block in _blocks(device)[:2]:
            assert block.c_qubit > 0 and block.c_coupler > 0
            assert block.u[1, 0] != 0.0
            assert np.linalg.norm(block.u.T @ block.u - np.eye(2)) < 1e-12
            assert block.u[0, 0] > 0 and block.u[1, 1] > 0


class TestEffectiveParams:
    def test_formula_identities(self, device):
        b13, b24, ej = _blocks(device)
        eff = effective_parameters(b13, b24, device.c34, ej)
        assert eff.k_ur == b13.u[1, 0] * b24.u[1, 0] / (b13.r_coupler * b24.r_coupler)
        assert eff.ej5_kerr == pytest.approx(eff.k_ur**2 * ej.ej5, rel=1e-15)
        assert eff.c34_eff == pytest.approx(eff.k_ur * device.c34 * FF, rel=1e-15)
        assert eff.ej5_eff == pytest.approx(eff.k_ur * ej.ej5, rel=1e-15)

    def test_decoupled_blocks_give_zero_k_ur(self, device):
        bare = replace(device, c13=0.0, c24=0.0)
        b13, b24, ej = _blocks(bare)
        eff = effective_parameters(b13, b24, bare.c34, ej)
        assert eff.k_ur == 0.0
        assert eff.c34_eff == 0.0
        assert eff.ej5_eff == 0.0


class TestModeFrequencies:
    def test_single_transmon_limit(self, device):
        bare = replace(device, c13=0.0, c24=0.0)
        b13, b24, ej = _blocks(bare)
        eff = effective_parameters(b13, b24, bare.c34, ej)
        system = mode_frequencies_and_g12(b13, b24, eff, ej.ej1)
        e_c = E_CHARGE**2 / (2.0 * device.c11 * FF)
        e_j = ej.ej1 * GHZ * PLANCK_H
        expected = math.sqrt(8.0 * e_c * e_j) / HBAR
        assert system.omega1 == pytest.approx(expected, rel=1e-9)
        assert system.g12 == 0.0

    def test_g12_monotone_with_unique_zero(self, device):
        # the capacitive term grows with C34 while the junction term is nearly
        # constant, so g12 crosses zero exactly once over the physical range
        grid = np.linspace(20.0, 80.0, 25)
        g12 = [two_mode_reduction(device.with_c34(c)).system.g12 for c in grid]
        signs = np.sign(g12)
        assert np.all(np.diff(g12) > 0)
        assert np.count_nonzero(np.diff(signs)) == 1

    def test_non_positive_definite_rejected(self, device):
        b13, b24, ej = _blocks(device)
        eff = effective_parameters(b13, b24, device.c34, ej)
        huge = EffectiveParams(
            k_ur=eff.k_ur,
            c34_eff=2.0 * math.sqrt(b13.c_qubit * b24.c_qubit),
            ej5_eff=eff.ej5_eff,
            ej5_kerr=eff.ej5_kerr,
            ej1_kerr=eff.ej1_kerr,
            ej2_kerr=eff.ej2_kerr,
        )
        with pytest.raises(ModelError):
            mode_frequencies_and_g12(b13, b24, huge, ej.ej1)

    def test_overflowing_determinant_refused_without_warnings(self, device):
        # 1e300 fF nodes: finite and admissible, but C1 C2 overflows, which passed det <= 0 as inf
        huge_nodes = replace(device, c11=1e300, c22=1e300, c33=1e300, c44=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="two-mode capacitance matrix overflows: its determinant is inf"):
                two_mode_reduction(huge_nodes)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # det = 1e-310 is positive, yet W_11 = C2/det overflows
            (lambda b13, b24, eff: (replace(b13, c_qubit=1e-310), replace(b24, c_qubit=1.0), replace(eff, c34_eff=0.0)),
             "mode frequencies overflow: omega1 = inf"),
            (lambda b13, b24, eff: (b13, b24, replace(eff, ej5_eff=math.inf)), "coupling rate g12 is not finite"),
        ],
        ids=["mode_frequency", "g12"],
    )
    def test_non_finite_frequency_or_coupling_refused(self, device, edit, message):
        b13, b24, ej = _blocks(device)
        b13, b24, eff = edit(b13, b24, effective_parameters(b13, b24, device.c34, ej))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=message):
                mode_frequencies_and_g12(b13, b24, eff, ej.ej1)


class TestCrossKerr:
    def _system(self, omega1, omega2, g12):
        w = np.array([[omega1**2 / 8.0, 0.0], [0.0, omega2**2 / 8.0]])
        return ModeSystem(w=w, omega1=omega1, omega2=omega2, g12=g12)

    def _eff(self, ej1=1.0, ej2=1.0, ej5=1.0):
        return EffectiveParams(
            k_ur=0.0, c34_eff=0.0, ej5_eff=0.0,
            ej5_kerr=ej5, ej1_kerr=ej1, ej2_kerr=ej2,
        )

    def test_zero_kerr_gives_zero(self):
        system = self._system(1.0, 2.0, 0.3)
        zeta, _ = zz_perturbative(system, self._eff(0.0, 0.0, 0.0))
        assert zeta == 0.0

    def test_g12_zero_leaves_only_cross_term(self):
        system = self._system(1.0, 2.0, 0.0)
        eff = self._eff(5.0, 7.0, 2.0)
        zeta, u12 = zz_perturbative(system, eff)
        assert np.array_equal(u12, np.eye(2))
        wj5 = eff.ej5_kerr * GHZ * 2.0 * math.pi
        x1 = 8.0 * system.w[0, 0] / system.omega1
        x2 = 8.0 * system.w[1, 1] / system.omega2
        expected = -(wj5 / 4.0) * x1 * x2 / (2.0 * math.pi * 1e3)
        assert zeta == pytest.approx(expected, rel=1e-15)

    def test_degenerate_with_zero_coupling_picks_identity(self):
        system = self._system(1.0, 1.0, 0.0)
        _, u12 = zz_perturbative(system, self._eff())
        assert np.array_equal(u12, np.eye(2))

    def test_degenerate_with_coupling_is_balanced(self):
        system = self._system(1.0, 1.0, 0.1)
        _, u12 = zz_perturbative(system, self._eff())
        assert abs(u12[0, 0]) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert np.linalg.norm(u12.T @ u12 - np.eye(2)) < 1e-12

    def test_rotation_diagonalizes(self):
        system = self._system(1.0, 1.3, 0.07)
        _, u12 = zz_perturbative(system, self._eff())
        mat = np.array([[system.omega1, system.g12], [system.g12, system.omega2]])
        off = (u12.T @ mat @ u12)[0, 1]
        assert abs(off) < 1e-12


class TestNormalizationInvariance:
    def test_observables_invariant(self, device):
        ej = derive_junction_energies(device)
        a = two_mode_reduction(device, e_norm_ghz=ej.ej1)
        b = two_mode_reduction(device, e_norm_ghz=ej.ej2)
        assert b.system.omega1 == pytest.approx(a.system.omega1, rel=1e-10)
        assert b.system.omega2 == pytest.approx(a.system.omega2, rel=1e-10)
        assert b.system.g12 == pytest.approx(a.system.g12, rel=1e-10)
        assert b.zeta_pert_khz == pytest.approx(a.zeta_pert_khz, rel=1e-10)

    @pytest.mark.parametrize("e_norm", [0.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_norm_refused(self, device, e_norm):
        with pytest.raises(ModelError, match="normalization energy must be finite and positive"):
            two_mode_reduction(device, e_norm_ghz=e_norm)

    def test_intermediates_scale_with_norm(self, device):
        # k_Ur, eigen-capacitances and W deliberately carry the normalization
        ej = derive_junction_energies(device)
        a = two_mode_reduction(device, e_norm_ghz=ej.ej1)
        b = two_mode_reduction(device, e_norm_ghz=2.0 * ej.ej1)
        assert b.eff.k_ur == pytest.approx(2.0 * a.eff.k_ur, rel=1e-12)
        assert np.allclose(b.system.w, a.system.w / 2.0, rtol=1e-12)


class TestZeroCoupling:
    def test_closed_form_reference_value(self):
        c34 = shunt_capacitance_for(27.66e-9, 2 * math.pi * 4e9, 2 * math.pi * 4e9)
        assert c34 / FF == pytest.approx(57.24, abs=0.1)

    def test_reduction_carries_closed_form_at_its_frequencies(self, device):
        result = two_mode_reduction(device)
        lj5_h = derive_junction_energies(device).lj5_nh * NH
        expected = shunt_capacitance_for(lj5_h, result.system.omega1, result.system.omega2) / FF
        assert result.c34_closed_ff == expected

    def test_fixed_point_converges_with_small_residual(self, device):
        result = zero_coupling_c34(device)
        assert 40.0 < result.c34_star_ff < 56.0
        assert result.iterations <= 100
        tol = 1e-5 * math.sqrt(result.omega1 * result.omega2)
        assert abs(result.g12_residual) < tol

    def test_fixed_point_is_self_consistent(self, device):
        result = zero_coupling_c34(device)
        ej = derive_junction_energies(device)
        again = shunt_capacitance_for(ej.lj5_nh * 1e-9, result.omega1, result.omega2) / FF
        assert again == pytest.approx(result.c34_star_ff, abs=0.02)

    def test_no_fixed_point_below_upper_bound_names_it(self, device, monkeypatch):
        # a closed form above every C34: closed(C) - C has no sign change on [0, 2 closed(C34)]
        reduction = perturbative.two_mode_reduction
        monkeypatch.setattr(
            perturbative, "two_mode_reduction", lambda p: replace(reduction(p), c34_closed_ff=2.0 * p.c34 + 1.0)
        )
        upper = 2.0 * (2.0 * device.c34 + 1.0)
        with pytest.raises(ModelError, match=re.escape(f"in [0, {upper:.3f}] fF") + ".*upper bound"):
            zero_coupling_c34(device)

    def test_strongly_coupled_circuit_polished_to_tolerance(self):
        # strong C13/C24 mixing and a large shunt: the closed form's fixed point leaves |g12| above the
        # 1e-5 sqrt(w1 w2) tolerance, so the result comes from the exact-g12 polish
        strong = CircuitParams(
            c11=183.15, c22=107.63, c33=134.32, c44=43.92,
            c12=0.0, c13=40.41, c14=0.0, c23=0.0, c24=55.15, c34=124.20,
            ic1=53.70, ic2=41.32, ic3=44.38, ic4=117.59, ic5=14.28,
        )
        fixed = brentq(lambda c: two_mode_reduction(strong.with_c34(c)).c34_closed_ff - c, 0.0, 500.0, xtol=1e-6)
        unpolished = two_mode_reduction(strong.with_c34(fixed)).system
        assert abs(unpolished.g12) > 1e-5 * math.sqrt(unpolished.omega1 * unpolished.omega2)

        result = zero_coupling_c34(strong)
        tol = 1e-5 * math.sqrt(result.omega1 * result.omega2)
        assert abs(result.g12_residual) < tol
        assert result.c34_star_ff == pytest.approx(63.84, abs=0.01)

    def test_polish_onto_mode_swap_names_it(self, mode_swap_circuit):
        # the fixed point (214.25 fF) leaves |g12| above tolerance, and the polish's brentq converges onto
        # the C34 where block_normal_modes swaps a block's qubit-like column: k_Ur and g12 jump sign there
        swapping = mode_swap_circuit
        fixed = brentq(lambda c: two_mode_reduction(swapping.with_c34(c)).c34_closed_ff - c, 0.0, 500.0, xtol=1e-6)
        assert fixed == pytest.approx(214.25, abs=0.01)
        below, above = (two_mode_reduction(swapping.with_c34(168.948 + step)) for step in (-1e-3, 1e-3))
        assert below.eff.k_ur > 0 > above.eff.k_ur
        assert below.system.g12 < 0 < above.system.g12
        expected = (
            "the g12 polish converged onto C34 = 168.948 fF, where a block swaps its qubit-like mode: "
            "across it k_Ur goes +0.0523 -> -0.0523 and g12 -2.428e+08 -> +1.726e+08 rad/s, a jump and not a zero"
        )
        with pytest.raises(ModelError) as info:
            zero_coupling_c34(swapping)
        assert str(info.value) == expected
