import math
from dataclasses import replace

import numpy as np
import pytest

from csdtc import perturbative
from csdtc.circuit import derive_junction_energies
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

    def test_non_convergence_carries_trace(self, device, monkeypatch):
        monkeypatch.setattr(perturbative, "_FIXED_POINT_TOL_FF", 1e-12)
        monkeypatch.setattr(perturbative, "_FIXED_POINT_MAX_ITER", 1)
        with pytest.raises(ModelError, match="iteration"):
            zero_coupling_c34(device)

    def test_strongly_coupled_circuit_polished_to_tolerance(self):
        # large C13/C24 mixing: the closed form alone leaves an MHz-scale
        # residual, so the exact-g12 polish has to kick in
        from csdtc.circuit import CircuitParams

        strong = CircuitParams(
            c11=120.0, c22=110.0, c33=150.0, c44=140.0,
            c12=0.1, c13=28.0, c14=0.1, c23=0.1, c24=25.0, c34=79.0,
            ic1=20.0, ic2=22.0, ic3=70.0, ic4=65.0, ic5=21.0,
        )
        result = zero_coupling_c34(strong)
        tol = 1e-5 * math.sqrt(result.omega1 * result.omega2)
        assert abs(result.g12_residual) < tol
        assert result.c34_star_ff > 0
