"""Decoupling-shunt design: the C34 fixed point checked against the exact |zeta| argmin.

Both entry points evaluate the parasitic-free circuit and return the same
four-key document, in a fixed key order: ``c34_star_fF``, ``g12_residual``,
``zeta_at_star_kHz`` and ``argmin_c34_exact_fF``. Entries a mode does not
compute are None.
"""

from __future__ import annotations

import math

from . import perturbative, spectrum
from .circuit import CircuitParams
from .errors import BracketError, ConfigError
from .hamiltonian import ChargeBasisConfig

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200


def golden_section_min(func, lo: float, hi: float, *, tol: float = 0.05):
    """Golden-section minimum of a unimodal function on [lo, hi], stopping below ``tol`` width.

    Raises BracketError when the minimizer lands on an endpoint, which means
    the bracket does not contain the interior minimum.
    """
    if not lo < hi:
        raise ConfigError(f"bracket must satisfy lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"bracket tolerance must be finite and positive, got {tol}")
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = func(x1), func(x2)
    iterations = 0
    while (b - a) > tol and iterations < _MAX_ITER:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = func(x2)
        iterations += 1
    x_min, f_min = (x1, f1) if f1 <= f2 else (x2, f2)
    edge = tol + (hi - lo) * 1e-3
    if x_min - lo < edge or hi - x_min < edge:
        raise BracketError(
            f"minimum sits at the bracket edge ({x_min:.3f} in [{lo}, {hi}]); widen the bracket"
        )
    return x_min, f_min


def closed_form_design(params: CircuitParams) -> dict:
    """Single closed-form 1/(L_J5 w1 w2) at the configured C34, no iteration."""
    return {
        "c34_star_fF": perturbative.two_mode_reduction(params).c34_closed_ff,
        "g12_residual": None,
        "zeta_at_star_kHz": None,
        "argmin_c34_exact_fF": None,
    }


def search_design(
    params: CircuitParams,
    bracket: tuple[float, float],
    cfg: ChargeBasisConfig,
    *,
    tol: float = 0.05,
    seed: int = 0,
) -> dict:
    """Zero-coupling fixed point, zeta there, and the C34 in ``bracket`` (fF) minimizing |zeta|.

    The exact zeta is taken at zero flux; the golden-section search stops once
    the bracket is narrower than ``tol`` fF.
    """
    bare = params.without_parasitics()
    fixed_point = perturbative.zero_coupling_c34(bare)

    def abs_zeta(c34_ff: float) -> float:
        return abs(spectrum.zz_interaction(bare.with_c34(c34_ff), 0.0, cfg, seed=seed))

    argmin, _ = golden_section_min(abs_zeta, *bracket, tol=tol)
    zeta_at_star = spectrum.zz_interaction(bare.with_c34(fixed_point.c34_star_ff), 0.0, cfg, seed=seed)
    return {
        "c34_star_fF": fixed_point.c34_star_ff,
        "g12_residual": fixed_point.g12_residual,
        "zeta_at_star_kHz": zeta_at_star,
        "argmin_c34_exact_fF": argmin,
    }
