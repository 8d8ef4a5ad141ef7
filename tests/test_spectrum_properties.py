"""The hierarchical backend against the charge-basis oracle over random admissible parameter sets, at n_max=3.

With every block level kept, the product basis spans the whole charge basis,
so the two backends must agree for any circuit. At the shipped truncation the
backend either agrees with the oracle or refuses the circuit.
"""

from dataclasses import replace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csdtc import spectrum  # noqa: E402
from csdtc.circuit import validate_params  # noqa: E402
from csdtc.errors import LabelingError, TruncationError  # noqa: E402
from csdtc.hamiltonian import ChargeBasisConfig  # noqa: E402
from strategies import PARAMETER_SETS, PROPERTY_SETTINGS  # noqa: E402

CFG3 = ChargeBasisConfig(n_max=3, num_eigenstates=16)
FLUXES = st.sampled_from([0.0, 0.15, 0.25])
REAL_FLUXES = st.sampled_from([0.0, 0.5])  # a real 2401-state product matrix keeps the full-basis check cheap
SPECTRUM_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=10)


def _oracle_zeta(params, phi):
    """zeta of the charge-basis oracle; the example is discarded where the oracle cannot label."""
    assume(not validate_params(params))
    try:
        return spectrum._zeta_from_spectrum(spectrum.charge_spectrum(params, phi, CFG3))
    except LabelingError:
        assume(False)


@SPECTRUM_SETTINGS
@given(PARAMETER_SETS, REAL_FLUXES)
def test_hierarchical_with_every_level_kept_matches_oracle(params, phi):
    oracle = _oracle_zeta(params, phi)
    size = 2 * CFG3.n_max + 1
    with mock.patch.multiple(spectrum, _KEPT_QUBIT_LEVELS=size, _KEPT_COUPLER_LEVELS=size**2):
        hierarchical = spectrum._zeta_from_spectrum(spectrum.hierarchical_spectrum(params, phi, CFG3))
    assert abs(hierarchical - oracle) < 0.1


@settings(SPECTRUM_SETTINGS, max_examples=20)
@given(PARAMETER_SETS, FLUXES, st.sampled_from([1.0, 0.1]))
def test_hierarchical_matches_oracle_or_refuses(params, phi, mutual_scale):
    # a scale of 0.1 shrinks the cross-block capacitances to 0-3 fF, where the truncation mostly holds
    mutuals = {name: mutual_scale * getattr(params, name) for name in ("c12", "c13", "c14", "c23", "c24")}
    params = replace(params, **mutuals)
    oracle = _oracle_zeta(params, phi)
    try:
        hierarchical = spectrum._zeta_from_spectrum(spectrum.hierarchical_spectrum(params, phi, CFG3))
    except TruncationError:
        return
    assert abs(hierarchical - oracle) < 0.1
