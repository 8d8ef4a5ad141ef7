"""Both backends against dense references over random admissible parameter sets, at n_max=3.

The charge basis, solved sparsely in its real form, must give the lowest
eigenvalues of the dense real form, and the real form must be U^H H U.
With every block product kept, the product basis spans the whole charge
basis, so the two backends must agree for any circuit. Below its energy
cutoffs the product backend either agrees with the oracle or refuses the
circuit.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

pytest.importorskip("hypothesis")

from hypothesis import Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csdtc import spectrum  # noqa: E402
from csdtc.errors import LabelingError, TruncationError  # noqa: E402
from csdtc.hamiltonian import ChargeBasisConfig, assemble_hamiltonian  # noqa: E402
from csdtc.spectrum import real_form  # noqa: E402
from strategies import PARAMETER_SETS, PROPERTY_SETTINGS  # noqa: E402
from test_spectrum import assert_split_exact, assert_split_matches_dense, solve_in_one_dense_matrix  # noqa: E402

CFG3 = ChargeBasisConfig(n_max=3, num_eigenstates=16)
FLUXES = st.sampled_from([0.0, 0.15, 0.25])
REAL_FLUXES = st.sampled_from([0.0, 0.5])  # a real 2401-state product matrix keeps the full-basis check cheap
# no shrinking: each shrink step re-solves the 2401-state oracle, so a failure took minutes to report
SPECTRUM_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=10, phases=(Phase.explicit, Phase.reuse, Phase.generate))
HALF_PERIOD_FLUXES = st.sampled_from([0.0, 0.5, -0.5])  # where the operator is real
ALL_FLUXES = st.one_of(HALF_PERIOD_FLUXES, st.floats(-1.0, 1.0))


def _oracle_zeta(params, phi):
    """zeta of the charge-basis oracle; the example is discarded where the oracle cannot label."""
    try:
        return spectrum._zeta_from_spectrum(spectrum.charge_spectrum(params, phi, CFG3))
    except LabelingError:
        assume(False)


@SPECTRUM_SETTINGS
@given(PARAMETER_SETS, REAL_FLUXES)
def test_hierarchical_with_every_level_kept_matches_oracle(params, phi):
    oracle = _oracle_zeta(params, phi)
    spec = spectrum._product_solve(spectrum._product_blocks(params, phi, CFG3, np.inf), np.inf, phi, CFG3)[0]
    assert spec.kept_states == CFG3.dimension
    assert abs(spectrum._zeta_from_spectrum(spec) - oracle) < 0.1


@settings(SPECTRUM_SETTINGS, max_examples=20)
@given(PARAMETER_SETS, FLUXES, st.sampled_from([1.0, 0.1]))
def test_hierarchical_matches_oracle_or_refuses(params, phi, mutual_scale):
    # a scale of 0.1 shrinks the cross-block capacitances to 0-3 fF, where the cutoffs mostly settle
    mutuals = {name: mutual_scale * getattr(params, name) for name in ("c12", "c13", "c14", "c23", "c24")}
    params = replace(params, **mutuals)
    oracle = _oracle_zeta(params, phi)
    try:
        hierarchical = spectrum._zeta_from_spectrum(spectrum.product_spectrum(params, phi, CFG3))
    except TruncationError:
        return
    assert abs(hierarchical - oracle) < 0.1


def _real_form_basis(dim: int) -> sp.csr_matrix:
    """U with columns (e_i + e_Pi)/sqrt2, e_h, i (e_i - e_Pi)/sqrt2, P the reflection i -> dim - 1 - i."""
    h = dim // 2
    top = np.arange(h)
    rows = np.concatenate([top, top[::-1] + h + 1, [h], top, top[::-1] + h + 1])
    cols = np.concatenate([top, top, [h], top + h + 1, top + h + 1])
    vals = np.concatenate([np.ones(2 * h), [np.sqrt(2.0)], np.full(h, 1j), np.full(h, -1j)]) / np.sqrt(2.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


# the real form has the operator's eigenvalues (the test below proves it U^H H U); its dense 2401-state
# solve takes about a quarter of the complex one's time
@settings(SPECTRUM_SETTINGS, max_examples=6)
@given(PARAMETER_SETS, ALL_FLUXES)
def test_charge_basis_matches_dense_operator(params, phi):
    try:
        spec = spectrum.charge_spectrum(params, phi, CFG3)
    except LabelingError:
        assume(False)
    folded = real_form(assemble_hamiltonian(params, phi, CFG3)[1])
    dense = sla.eigvalsh(folded.toarray(), subset_by_index=[0, CFG3.num_eigenstates - 1])
    assert np.abs(spec.eigenfrequencies_ghz - (dense - dense[0])).max() <= 1e-9


@SPECTRUM_SETTINGS
@given(PARAMETER_SETS, ALL_FLUXES)
def test_real_form_is_the_operator_on_the_reflection_basis(params, phi):
    ham = assemble_hamiltonian(params, phi, CFG3)[1]
    basis = _real_form_basis(ham.shape[0])
    # sparse throughout: a failing example's traceback, kept while hypothesis shrinks, holds no dense 2401^2 array
    difference = real_form(ham) - basis.conj().T @ ham @ basis
    assert abs(difference).max() <= 1e-12 * abs(ham).max()


@SPECTRUM_SETTINGS
@given(PARAMETER_SETS, HALF_PERIOD_FLUXES)
def test_real_form_splits_into_parity_sectors_at_real_flux(params, phi):
    folded = real_form(assemble_hamiltonian(params, phi, CFG3)[1])
    h = folded.shape[0] // 2
    assert folded[: h + 1, h + 1 :].nnz == 0  # even sector and centre | odd sector


@PROPERTY_SETTINGS
@given(PARAMETER_SETS, HALF_PERIOD_FLUXES)
def test_parity_split_is_exact(params, phi):
    assert_split_exact(params, phi, CFG3)


@PROPERTY_SETTINGS
@given(PARAMETER_SETS)
def test_parity_split_matches_one_dense_solve(params):
    def outcome(solve):
        try:
            return solve(params, 0.0, CFG3)
        except (LabelingError, TruncationError) as exc:
            return type(exc)

    split = outcome(spectrum.product_spectrum)
    with pytest.MonkeyPatch.context() as patch:
        solve_in_one_dense_matrix(patch)
        dense = outcome(spectrum.product_spectrum)
    if isinstance(split, type):
        assert dense is split
    else:
        assert_split_matches_dense(split, dense)
