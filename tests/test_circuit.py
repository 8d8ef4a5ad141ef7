import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from csdtc.circuit import (
    CircuitParams,
    build_capacitance_matrix,
    charging_matrix,
    derive_junction_energies,
    load_params,
    params_from_dict,
    params_to_dict,
    reference_device,
    save_params,
)
from csdtc.constants import E_CHARGE, PHI0_REDUCED, PLANCK_H
from csdtc.errors import NumericsError, ParameterError


def closed_form_ej_ghz(ic_na: float) -> float:
    # independent oracle: E_J/h = Ic / (4 pi e)
    return ic_na * 1e-9 / (4.0 * math.pi * E_CHARGE) / 1e9


class TestJunctionEnergies:
    def test_closed_form_oracle(self, device):
        ej = derive_junction_energies(device)
        assert ej.ej1 == pytest.approx(closed_form_ej_ghz(26.7), rel=1e-12)
        assert ej.ej5 == pytest.approx(closed_form_ej_ghz(11.9), rel=1e-12)

    def test_reference_values(self, device):
        ej = derive_junction_energies(device)
        assert ej.ej1 == pytest.approx(13.2614, abs=1e-3)
        assert ej.ej5 == pytest.approx(5.9105, abs=1e-3)
        assert ej.lj5_nh == pytest.approx(27.656, abs=1e-2)

    def test_inductance_energy_consistency(self, device):
        # lj5[nH] * ej5[GHz] is numerically (Phi0/2pi)^2 / h in SI
        ej = derive_junction_energies(device)
        target = PHI0_REDUCED**2 / PLANCK_H
        assert ej.lj5_nh * ej.ej5 == pytest.approx(target, rel=1e-12)

    def test_nonpositive_current_rejected(self, device):
        with pytest.raises(ParameterError, match="critical current Ic5 must be strictly positive, got -1.0"):
            replace(device, ic5=-1.0)

    @pytest.mark.parametrize(
        "field, current, named",
        [
            ("ic1", 1e300, "EJ1 of critical current Ic1 = 1e+300 nA"),
            ("ic3", 1e300, "EJ3 of critical current Ic3 = 1e+300 nA"),
            ("ic5", 1e300, "EJ5 of critical current Ic5 = 1e+300 nA"),
            ("ic5", 1e-320, "L_J5 of critical current Ic5 = 1e-320 nA"),  # 1e-329 A rounds to 0
        ],
        ids=["ic1", "ic3", "ic5", "ic5_subnormal"],
    )
    def test_overflowing_junction_refused_naming_it(self, device, field, current, named):
        # a finite, admissible current whose energy or inductance is not finite
        with pytest.raises(NumericsError, match=f"^{re.escape(named)} overflows to inf$"):
            derive_junction_energies(replace(device, **{field: current}))

    def test_largest_finite_energy_is_kept(self, device):
        assert derive_junction_energies(replace(device, ic1=3e299)).ej1 == pytest.approx(1.49e299, rel=1e-2)


class TestCapacitanceMatrix:
    def test_reference_entries(self, device):
        mat = build_capacitance_matrix(device)
        assert mat[0, 0] == pytest.approx((108 + 0.002 + 12.6 + 0.06) * 1e-15, rel=1e-12)
        assert mat[2, 2] == pytest.approx((90 + 12.6 + 0.06 + 30.3) * 1e-15, rel=1e-12)
        assert mat[0, 2] == pytest.approx(-12.6e-15, rel=1e-12)

    def test_bitwise_symmetric(self, device):
        mat = build_capacitance_matrix(device)
        assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize(
        "field, i, j", [("c12", 0, 1), ("c13", 0, 2), ("c14", 0, 3), ("c23", 1, 2), ("c24", 1, 3), ("c34", 2, 3)]
    )
    def test_mutual_cij_joins_nodes_i_and_j(self, decoupled, field, i, j):
        mat = build_capacitance_matrix(replace(decoupled, **{field: 7.0}))
        off_diagonal = mat - np.diag(np.diag(mat))
        expected = np.zeros((4, 4))
        expected[i, j] = expected[j, i] = -7.0e-15
        assert np.array_equal(off_diagonal, expected)

    def test_decoupled_is_diagonal(self, decoupled):
        mat = build_capacitance_matrix(decoupled)
        nodes = [decoupled.c11, decoupled.c22, decoupled.c33, decoupled.c44]
        expected = np.diag(np.array(nodes) * 1e-15)
        assert np.array_equal(mat, expected)


class TestChargingMatrix:
    def test_diagonal_closed_form(self):
        mat = np.diag([100e-15] * 4)
        ec = charging_matrix(mat)
        expected = 2.0 * E_CHARGE**2 / 100e-15 / PLANCK_H / 1e9  # 4 E_C in GHz
        assert np.allclose(np.diag(ec), expected, rtol=1e-12)
        assert expected == pytest.approx(0.7748, abs=1e-4)

    def test_scalar_scaling_halves_entries(self, device):
        base = build_capacitance_matrix(device)
        ec1 = charging_matrix(base)
        ec2 = charging_matrix(2.0 * base)
        assert np.allclose(ec2, ec1 / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("scale", [0.3, 1.7, 5.0])
    def test_scaling_property(self, device, scale):
        base = build_capacitance_matrix(device)
        ec1 = charging_matrix(base)
        ecs = charging_matrix(scale * base)
        assert np.allclose(ecs, ec1 / scale, rtol=1e-12)

    def test_product_is_scaled_identity(self, device):
        cmat = build_capacitance_matrix(device)
        ec = charging_matrix(cmat)
        product = ec @ cmat
        target = (2.0 * E_CHARGE**2 / PLANCK_H / 1e9) * np.eye(4)
        assert np.allclose(product, target, rtol=1e-10, atol=abs(target[0, 0]) * 1e-10)

    def test_offdiagonal_34_positive(self, device):
        # brute-force sign check: solve C x = e4 and read component 3
        cmat = build_capacitance_matrix(device)
        col = np.linalg.solve(cmat, np.eye(4)[:, 3])
        assert col[2] > 0
        ec = charging_matrix(build_capacitance_matrix(device))
        assert ec[2, 3] > 0

    def test_singular_matrix_diagnostic(self):
        singular = np.ones((4, 4)) * 1e-15
        with pytest.raises(NumericsError, match="condition number"):
            charging_matrix(singular)

    def test_overflowing_inverse_refused_naming_the_charging_matrix(self, device):
        # 1e-300 fF nodes and no mutuals: condition number 1, but the inverse overflows to inf and NaN
        tiny = replace(device, c11=1e-300, c22=1e-300, c33=1e-300, c44=1e-300,
                       c12=0.0, c13=0.0, c14=0.0, c23=0.0, c24=0.0, c34=0.0)
        cmat = build_capacitance_matrix(tiny)
        assert np.linalg.cond(cmat) == 1.0
        with pytest.raises(NumericsError) as info:
            charging_matrix(cmat)
        assert str(info.value) == (
            "charging matrix overflows: the capacitance matrix, largest entry 1.000e-315 F, is too small to invert"
        )

    def test_near_singular_admissible_set_refused(self, device):
        # nodes 1 and 2 tied only to each other by 1e5 fF, with 1e-20 fF each to ground: admissible, yet singular
        tied = replace(device, c11=1e-20, c22=1e-20, c12=1e5, c13=0.0, c14=0.0, c23=0.0, c24=0.0)
        with pytest.raises(NumericsError, match="condition number"):
            charging_matrix(build_capacitance_matrix(tied))


class TestValidation:
    def test_reference_is_clean(self, device):
        assert CircuitParams(**asdict(device)) == device

    def test_negative_node_cap(self, device):
        with pytest.raises(ParameterError, match="^node capacitance C11 must be strictly positive, got -1.0$"):
            replace(device, c11=-1.0)

    def test_zero_current(self, device):
        with pytest.raises(ParameterError, match="^critical current Ic3 must be strictly positive, got 0.0$"):
            replace(device, ic3=0.0)

    def test_every_violation_reported(self, device):
        with pytest.raises(ParameterError) as info:
            replace(device, c12=-5.0, ic5=float("nan"))
        assert str(info.value) == (
            "mutual capacitance C12 must be non-negative, got -5.0; "
            "critical current Ic5 must be strictly positive, got nan"
        )

    def test_shunt_copy_is_checked(self, device):
        with pytest.raises(ParameterError, match="mutual capacitance C34 must be non-negative"):
            device.with_c34(-1.0)


class TestJsonDocument:
    def test_round_trip(self, tmp_path, device):
        path = tmp_path / "params.json"
        save_params(device, path)
        assert load_params(path) == device

    def test_mutual_keys_in_field_order(self, device):
        assert list(params_to_dict(device)["mutual_caps_fF"]) == ["C12", "C13", "C14", "C23", "C24", "C34"]

    def test_unknown_top_level_key(self, device):
        doc = params_to_dict(device)
        doc["extra"] = 1
        with pytest.raises(ParameterError, match="unknown keys"):
            params_from_dict(doc)

    def test_unknown_mutual_key(self, device):
        doc = params_to_dict(device)
        doc["mutual_caps_fF"]["C15"] = 0.0
        with pytest.raises(ParameterError, match="C15"):
            params_from_dict(doc)

    def test_missing_mutual_key(self, device):
        doc = params_to_dict(device)
        del doc["mutual_caps_fF"]["C34"]
        with pytest.raises(ParameterError, match="missing"):
            params_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(extra=1), "unknown keys in parameter document: ['extra']"),
            (lambda doc: doc.pop("node_caps_fF"), "missing keys in parameter document: ['node_caps_fF']"),
            (lambda doc: doc["mutual_caps_fF"].update(C15=0.0), "unknown keys in mutual_caps_fF: ['C15']"),
            (lambda doc: doc["mutual_caps_fF"].pop("C34"), "missing keys in mutual_caps_fF: ['C34']"),
        ],
        ids=["unknown-top", "missing-top", "unknown-mutual", "missing-mutual"],
    )
    def test_key_messages(self, device, edit, message):
        doc = params_to_dict(device)
        edit(doc)
        with pytest.raises(ParameterError) as info:
            params_from_dict(doc)
        assert str(info.value) == message

    def test_wrong_list_lengths(self, device):
        doc = params_to_dict(device)
        doc["node_caps_fF"] = [1.0, 2.0]
        with pytest.raises(ParameterError):
            params_from_dict(doc)

    @pytest.mark.parametrize(
        "section, index, key",
        [("node_caps_fF", 1, "node_caps_fF[1]"), ("mutual_caps_fF", "C34", "mutual_caps_fF.C34")],
    )
    def test_null_value(self, device, section, index, key):
        doc = params_to_dict(device)
        doc[section][index] = None
        with pytest.raises(ParameterError, match=re.escape(key)):
            params_from_dict(doc)

    @pytest.mark.parametrize(
        "section, index, key",
        [
            ("node_caps_fF", 1, "node_caps_fF[1]"),
            ("mutual_caps_fF", "C34", "mutual_caps_fF.C34"),
            ("critical_currents_nA", 4, "critical_currents_nA[4]"),
        ],
    )
    @pytest.mark.parametrize("value", [True, "108", " 1e2 "], ids=["bool", "string", "padded_string"])
    def test_only_json_numbers(self, device, section, index, key, value):
        # float() would take each of these: true as a 1 fF shunt, "108" as 108 fF
        doc = params_to_dict(device)
        doc[section][index] = value
        with pytest.raises(ParameterError) as info:
            params_from_dict(doc)
        assert str(info.value) == f"{key} must be a number, got {value!r}"

    def test_json_integers_accepted(self, device):
        doc = params_to_dict(device)
        doc["node_caps_fF"][0] = 108
        params = params_from_dict(doc)
        assert params.c11 == 108.0 and isinstance(params.c11, float)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError):
            load_params(path)


def test_helper_replacements(device):
    assert device.with_c34(55.0).c34 == 55.0
    stripped = device.without_parasitics()
    assert (stripped.c12, stripped.c14, stripped.c23) == (0.0, 0.0, 0.0)
    assert stripped.c13 == device.c13
