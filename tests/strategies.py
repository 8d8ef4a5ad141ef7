"""Hypothesis strategies shared by the property tests.

Import this module after ``pytest.importorskip("hypothesis")`` so the tests
skip cleanly where hypothesis is not installed.
"""

from hypothesis import settings
from hypothesis import strategies as st

from csdtc.circuit import CircuitParams

_NODE_FF = st.floats(50.0, 150.0)
_MUTUAL_FF = st.floats(0.0, 30.0)
_CURRENT_NA = st.floats(10.0, 70.0)

PARAMETER_SETS = st.builds(
    CircuitParams,
    c11=_NODE_FF, c22=_NODE_FF, c33=_NODE_FF, c44=_NODE_FF,
    c12=_MUTUAL_FF, c13=_MUTUAL_FF, c14=_MUTUAL_FF, c23=_MUTUAL_FF, c24=_MUTUAL_FF, c34=_MUTUAL_FF,
    ic1=_CURRENT_NA, ic2=_CURRENT_NA, ic3=_CURRENT_NA, ic4=_CURRENT_NA, ic5=_CURRENT_NA,
)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
