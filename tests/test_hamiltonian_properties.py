"""Properties of the assembled charge-basis operator over random admissible parameter sets.

Only assembly runs here, at n_max=3; nothing is diagonalized.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csdtc.hamiltonian import ChargeBasisConfig, _build_block, assemble_hamiltonian  # noqa: E402
from strategies import PARAMETER_SETS, PROPERTY_SETTINGS  # noqa: E402
from test_hamiltonian import block_cases, csr_bytes, kron_reference_block  # noqa: E402

CFG3 = ChargeBasisConfig(n_max=3)
FLUXES = st.floats(-1.0, 1.0)
OPERATOR_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=25)


def _assemble(params, flux):
    return assemble_hamiltonian(params, flux, CFG3)


def _identical(a, b) -> bool:
    return (a != b).nnz == 0


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_hermitian(params, phi):
    h = _assemble(params, phi)[1]
    assert _identical(h, h.conj().T)


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_flux_reversal_is_charge_parity_and_conjugation(params, phi):
    h = _assemble(params, phi)[1]
    h_reversed = _assemble(params, -phi)[1]
    parity = np.arange(h.shape[0])[::-1]  # n -> -n on every node
    assert _identical(h_reversed, h[parity][:, parity])
    assert _identical(h_reversed, h.conj())


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_flux_period_one(params, phi):
    h = _assemble(params, phi)[1]
    h_shifted = _assemble(params, phi + 1.0)[1]
    assert abs(h_shifted - h).max() <= 1e-12 * abs(h).max()


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_coupler_reference_flux_reversal_is_charge_parity_and_conjugation(params, phi):
    # every block, the two node blocks as well as the coupler
    modes = _assemble(params, phi)[0].modes
    modes_reversed = _assemble(params, -phi)[0].modes
    for mode, mode_reversed in zip(modes, modes_reversed, strict=True):
        assert np.array_equal(mode_reversed, mode[::-1, ::-1])
        assert np.array_equal(mode_reversed, mode.conj())


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_operator_without_cross_block_capacitance_is_sum_of_references(params, phi):
    blocks = replace(params, c12=0.0, c13=0.0, c14=0.0, c23=0.0, c24=0.0)
    refs, ham = _assemble(blocks, phi)
    h1, h2, h34 = (sp.csr_matrix(block) for block in refs.modes)
    eye = sp.identity(CFG3.states_per_node, format="csr")
    expected = sp.kron(h1, sp.kron(eye, sp.kron(eye, eye))) + sp.kron(eye, sp.kron(h2, sp.kron(eye, eye)))
    expected = expected + sp.kron(sp.kron(eye, eye), h34)
    assert len(refs.modes) == 3
    assert abs(ham - expected).max() <= 1e-12 * abs(ham).max()


@OPERATOR_SETTINGS
@given(PARAMETER_SETS, FLUXES)
def test_blocks_match_the_kronecker_reference_byte_for_byte(params, phi):
    for name, args in block_cases(params, CFG3.n_max, phi).items():
        assert csr_bytes(_build_block(*args)) == csr_bytes(kron_reference_block(*args)), name
