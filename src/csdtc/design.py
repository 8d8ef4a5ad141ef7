"""Decoupling-shunt design: the C34 fixed point checked against the exact |zeta| argmin.

``search_design`` solves for the fixed point of the closed form 1/(L_J5 w1 w2)
and finds the C34 in a bracket that minimizes the exact zero-flux |zeta|, by
scipy's bounded Brent search; ``closed_form_design`` evaluates the closed form
once. Both evaluate the parasitic-free circuit and return the same four-key
document, in a fixed key order: ``c34_star_fF``, ``g12_residual``,
``zeta_at_star_kHz`` and ``argmin_c34_exact_fF``, None where not computed.
"""

from __future__ import annotations

import math

from scipy.optimize import minimize_scalar

from . import perturbative, spectrum
from .circuit import CircuitParams
from .errors import BracketError, ConfigError
from .hamiltonian import ChargeBasisConfig

ARGMIN_TOL_FF = 0.05  # default absolute tolerance (fF) of the |zeta| argmin


def _check_bracket(lo: float, hi: float, tol: float) -> None:
    """Raise ConfigError unless lo < hi are finite and the positive ``tol`` leaves ``bounded_argmin`` an interior."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"bracket must be finite with lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"bracket tolerance must be finite and positive, got {tol}")
    tol_limit = (hi - lo) / 2 - (hi - lo) * 1e-3
    if tol >= tol_limit:
        raise ConfigError(
            f"bracket tolerance {tol:g} leaves no interior in [{lo}, {hi}]: an argmin within tol + (hi - lo)/1000 "
            f"of either end is refused, so the tolerance must be below {tol_limit:.6g}"
        )


def bounded_argmin(func, lo: float, hi: float, *, tol: float = ARGMIN_TOL_FF) -> float:
    """Argmin of a unimodal function on finite bounds lo < hi by bounded Brent search, to ``tol`` absolute.

    Raises BracketError when the argmin lands within tol + (hi - lo)/1000 of an
    endpoint, which means the bracket does not contain the interior minimum,
    and ConfigError, before ``func`` is called, when those two edge zones
    leave no interior at all.
    """
    _check_bracket(lo, hi, tol)
    x_min = float(minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": tol}).x)
    edge = tol + (hi - lo) * 1e-3
    if x_min - lo < edge or hi - x_min < edge:
        raise BracketError(
            f"minimum sits at the bracket edge ({x_min:.3f} in [{lo}, {hi}]); widen the bracket"
        )
    return x_min


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
    tol: float = ARGMIN_TOL_FF,
) -> dict:
    """Zero-coupling fixed point, zeta there, and the C34 in ``bracket`` (fF) minimizing |zeta|.

    Every zeta is exact, at zero flux, on the parasitic-free circuit. ``tol``
    is the absolute tolerance on the argmin, in fF; the bracket and ``tol``
    are checked before the fixed point is sought.
    """
    _check_bracket(*bracket, tol)
    bare = params.without_parasitics()
    fixed_point = perturbative.zero_coupling_c34(bare)

    def abs_zeta(c34_ff: float) -> float:
        return abs(spectrum.zz_interaction(bare.with_c34(c34_ff), 0.0, cfg))

    argmin = bounded_argmin(abs_zeta, *bracket, tol=tol)
    zeta_at_star = spectrum.zz_interaction(bare.with_c34(fixed_point.c34_star_ff), 0.0, cfg)
    return {
        "c34_star_fF": fixed_point.c34_star_ff,
        "g12_residual": fixed_point.g12_residual,
        "zeta_at_star_kHz": zeta_at_star,
        "argmin_c34_exact_fF": argmin,
    }
