import pytest

from csdtc import CircuitParams, reference_device


@pytest.fixture(scope="session")
def device():
    return reference_device()


@pytest.fixture(scope="session")
def decoupled():
    """All coupling paths removed; a tiny Ic5 stands in for the EJ5 -> 0 limit.

    Nodes 3 and 4 are deliberately detuned so no two single-mode levels are
    degenerate (degenerate pairs would make product labels ill-defined).
    """
    return CircuitParams(
        c11=108.0, c22=80.0, c33=90.0, c44=95.0,
        c12=0.0, c13=0.0, c14=0.0, c23=0.0, c24=0.0, c34=0.0,
        ic1=26.7, ic2=26.6, ic3=55.2, ic4=52.0, ic5=1e-9,
    )


@pytest.fixture(scope="session")
def mode_swap_circuit():
    """A circuit whose zero-coupling fixed point fails: the g12 polish lands where a block swaps its qubit mode."""
    return CircuitParams(
        c11=112.51, c22=139.72, c33=127.57, c44=72.52,
        c12=9.0, c13=26.21, c14=0.16, c23=24.64, c24=23.91, c34=14.04,
        ic1=28.18, ic2=26.71, ic3=25.29, ic4=36.7, ic5=40.27,
    )
