"""Properties of the two-mode reduction over random admissible parameter sets.

Only the 2x2 block algebra runs here; no circuit Hamiltonian is diagonalized.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402

from csdtc.circuit import derive_junction_energies  # noqa: E402
from csdtc.perturbative import block_normal_modes, two_mode_reduction  # noqa: E402
from strategies import PARAMETER_SETS, PROPERTY_SETTINGS  # noqa: E402


@PROPERTY_SETTINGS
@given(PARAMETER_SETS)
def test_observables_invariant_under_normalization(params):
    ej = derive_junction_energies(params)
    a = two_mode_reduction(params, e_norm_ghz=ej.ej1)
    b = two_mode_reduction(params, e_norm_ghz=ej.ej2)
    # g12 may pass through zero, so its tolerance is anchored to the mode frequencies
    g12_scale = math.sqrt(a.system.omega1 * a.system.omega2)
    assert b.system.omega1 == pytest.approx(a.system.omega1, rel=1e-10)
    assert b.system.omega2 == pytest.approx(a.system.omega2, rel=1e-10)
    assert b.system.g12 == pytest.approx(a.system.g12, rel=1e-10, abs=1e-10 * g12_scale)
    assert b.zeta_pert_khz == pytest.approx(a.zeta_pert_khz, rel=1e-10)


@PROPERTY_SETTINGS
@given(PARAMETER_SETS)
def test_block_transforms_orthogonal(params):
    ej = derive_junction_energies(params)
    for e_norm in (ej.ej1, ej.ej2):
        for block in block_normal_modes(params, ej, e_norm):
            assert np.linalg.norm(block.u.T @ block.u - np.eye(2)) < 1e-12
