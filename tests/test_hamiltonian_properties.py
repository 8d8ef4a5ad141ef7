"""Properties of the assembled charge-basis operator over random admissible parameter sets.

Only assembly runs here, at n_max=3; nothing is diagonalized.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csdtc.circuit import validate_params  # noqa: E402
from csdtc.hamiltonian import ChargeBasisConfig, assemble_hamiltonian  # noqa: E402
from strategies import PARAMETER_SETS, PROPERTY_SETTINGS  # noqa: E402

CFG3 = ChargeBasisConfig(n_max=3)
FLUXES = st.floats(-1.0, 1.0)
OPERATOR_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=25)


def _assemble(params, flux):
    assume(not validate_params(params))
    return assemble_hamiltonian(params, flux, CFG3)


def _identical(a, b) -> bool:
    return (a != b).nnz == 0


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_hermitian(params, phi):
    h = _assemble(params, phi).matrix
    assert _identical(h, h.conj().T)


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_flux_reversal_is_charge_parity_and_conjugation(params, phi):
    h = _assemble(params, phi).matrix
    h_reversed = _assemble(params, -phi).matrix
    parity = np.arange(h.shape[0])[::-1]  # n -> -n on every node
    assert _identical(h_reversed, h[parity][:, parity])
    assert _identical(h_reversed, h.conj())


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_flux_period_one(params, phi):
    h = _assemble(params, phi).matrix
    h_shifted = _assemble(params, phi + 1.0).matrix
    assert abs(h_shifted - h).max() <= 1e-12 * abs(h).max()


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_label_references_flux_independent(params, phi):
    at_flux = _assemble(params, phi).modes
    at_zero = _assemble(params, 0.0).modes
    assert len(at_flux) == len(at_zero) == 4
    for a, b in zip(at_flux, at_zero):
        assert np.array_equal(a, b)
