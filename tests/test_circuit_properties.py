"""The capacitance matrix of every admissible parameter set is positive definite.

Positive node and non-negative mutual capacitances make it strictly
diagonally dominant with a positive diagonal, which is why construction
checks only the signs.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402

from csdtc.circuit import build_capacitance_matrix  # noqa: E402
from strategies import PARAMETER_SETS, PROPERTY_SETTINGS  # noqa: E402


@PROPERTY_SETTINGS
@given(PARAMETER_SETS)
def test_admissible_capacitance_matrix_is_positive_definite(params):
    cmat = build_capacitance_matrix(params)
    np.linalg.cholesky(cmat)
    off_diagonal = np.abs(cmat).sum(axis=1) - np.diag(cmat)
    assert np.all(np.diag(cmat) > off_diagonal)
