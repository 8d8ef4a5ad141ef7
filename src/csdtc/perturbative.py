"""Two-mode normal-form reduction of the coupler circuit.

Blockwise (nodes 1-3 and 2-4) transforms diagonalize the junction-normalized
capacitance matrices. The resulting qubit modes couple through an effective
shunt capacitance and the JJ5 Josephson energy; this module carries the
closed forms for the qubit frequencies, the transverse coupling rate g12,
the shunt value that cancels it, and the cross-Kerr shift.

All derivations assume zero external flux and drop the parasitic couplings
C12, C14, C23; inputs are used accordingly regardless of their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .circuit import CircuitParams, JunctionEnergies, derive_junction_energies
from .constants import E_CHARGE, FF, GHZ, HBAR, NH
from .errors import ModelError

_TWO_PI = 2.0 * math.pi
_G12_RESIDUAL_FACTOR = 1e-5
_C34_XTOL_FF = 1e-6  # brentq's absolute tolerance on the fixed point and on the g12 zero
_MODE_SWAP_PROBE_FF = 1e-3  # a failed polish root is probed this far on either side for a sign flip of k_Ur


@dataclass(frozen=True)
class BlockModes:
    """Normal modes of one capacitive block (13 or 24).

    ``u`` is orthogonal with column 0 the qubit-like eigenvector (dominant
    node-1/node-2 component, positive diagonal); eigen-capacitances in F.
    """

    c_qubit: float
    c_coupler: float
    u: np.ndarray
    r_qubit: float
    r_coupler: float


@dataclass(frozen=True)
class EffectiveParams:
    """Transform-weighted couplings: k_Ur, C'34 (F), E'J5, E''J5, E''J1, E''J2 (GHz)."""

    k_ur: float
    c34_eff: float
    ej5_eff: float
    ej5_kerr: float
    ej1_kerr: float
    ej2_kerr: float


@dataclass(frozen=True)
class ModeSystem:
    """Charging matrix W (rad/s), mode frequencies and coupling rate (rad/s)."""

    w: np.ndarray
    omega1: float
    omega2: float
    g12: float


@dataclass(frozen=True)
class PerturbativeResult:
    """Everything the two-mode reduction produces for one parameter set.

    ``c34_closed_ff`` is the closed-form decoupling shunt 1/(L_J5 w1 w2) at
    this set's mode frequencies, in fF.
    """

    eff: EffectiveParams
    system: ModeSystem
    u12: np.ndarray
    zeta_pert_khz: float
    c34_closed_ff: float


@dataclass(frozen=True)
class ZeroCouplingResult:
    """Fixed point of C34 = 1/(L_J5 w1 w2), the residual coupling there and brentq's iteration count."""

    c34_star_ff: float
    g12_residual: float
    omega1: float
    omega2: float
    iterations: int


def block_normal_modes(
    params: CircuitParams, ej: JunctionEnergies, e_norm_ghz: float
) -> tuple[BlockModes, BlockModes]:
    """Diagonalize both blocks (13, 24) of the junction-normalized capacitance matrix.

    Each block matrix is [[Cqq + Cm, -Cm], [-Cm, Ccc + Cm + C34]] scaled by
    1/(r_i r_j) with r_qubit = sqrt(EJq/EJ) and r_coupler =
    sqrt((EJc + EJ5)/EJ); EJ is an arbitrary normalization energy that
    cancels in every observable.
    """
    if not 0 < e_norm_ghz < math.inf:  # NaN fails the comparison too
        raise ModelError(f"normalization energy must be finite and positive, got {e_norm_ghz}")
    blocks = []
    for block, c_node_q, c_node_c, c_m, ej_q, ej_c in (
        (13, params.c11, params.c33, params.c13, ej.ej1, ej.ej3),
        (24, params.c22, params.c44, params.c24, ej.ej2, ej.ej4),
    ):
        r_q = math.sqrt(ej_q / e_norm_ghz)
        r_c = math.sqrt((ej_c + ej.ej5) / e_norm_ghz)
        mat = np.array(
            [
                [(c_node_q + c_m) * FF, -c_m * FF],
                [-c_m * FF, (c_node_c + c_m + params.c34) * FF],
            ]
        )
        scale = np.array([r_q, r_c])
        normalized = mat / np.outer(scale, scale)

        vals, vecs = np.linalg.eigh(normalized)
        qubit_col = int(np.argmax(np.abs(vecs[0, :])))
        coupler_col = 1 - qubit_col
        u = np.column_stack([vecs[:, qubit_col], vecs[:, coupler_col]])
        if u[0, 0] < 0:
            u[:, 0] = -u[:, 0]
        if u[1, 1] < 0:
            u[:, 1] = -u[:, 1]
        c_qubit = float(vals[qubit_col])
        c_coupler = float(vals[coupler_col])
        if c_qubit <= 0 or c_coupler <= 0:
            raise ModelError(f"block {block} produced a non-positive eigen-capacitance")
        blocks.append(BlockModes(c_qubit, c_coupler, u, r_q, r_c))
    return blocks[0], blocks[1]


def effective_parameters(b13: BlockModes, b24: BlockModes, c34_ff: float, ej: JunctionEnergies) -> EffectiveParams:
    """k_Ur-weighted effective couplings and quartic (Kerr) energies."""
    k_ur = b13.u[1, 0] * b24.u[1, 0] / (b13.r_coupler * b24.r_coupler)
    return EffectiveParams(
        k_ur=k_ur,
        c34_eff=k_ur * c34_ff * FF,
        ej5_eff=k_ur * ej.ej5,
        ej5_kerr=k_ur**2 * ej.ej5,
        ej1_kerr=ej.ej1 * (b13.u[0, 0] / b13.r_qubit) ** 4,
        ej2_kerr=ej.ej2 * (b24.u[0, 0] / b24.r_qubit) ** 4,
    )


def mode_frequencies_and_g12(
    b13: BlockModes,
    b24: BlockModes,
    eff: EffectiveParams,
    e_norm_ghz: float,
) -> ModeSystem:
    """Qubit-mode frequencies and the transverse coupling rate.

    W comes from the exact 2x2 inverse of M_c = [[C1, -C'34], [-C'34, C2]];
    omega_i = sqrt(8 W_ii wJ) with wJ the normalization energy over hbar.
    A determinant, mode frequency or g12 that overflows raises ``ModelError``.
    """
    mc = np.array(
        [
            [b13.c_qubit, -eff.c34_eff],
            [-eff.c34_eff, b24.c_qubit],
        ]
    )
    with np.errstate(over="ignore"):  # an overflow is refused just below, not warned about
        det = mc[0, 0] * mc[1, 1] - mc[0, 1] * mc[1, 0]
    if not math.isfinite(det):
        raise ModelError(f"two-mode capacitance matrix overflows: its determinant is {det}")
    if det <= 0 or mc[0, 0] <= 0:
        raise ModelError("two-mode capacitance matrix is not positive definite")
    w = (E_CHARGE**2 / (2.0 * HBAR)) * np.linalg.inv(mc)
    omega_j = float(e_norm_ghz) * GHZ * _TWO_PI
    omega1 = math.sqrt(8.0 * w[0, 0] * omega_j)
    omega2 = math.sqrt(8.0 * w[1, 1] * omega_j)
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise ModelError(f"mode frequencies overflow: omega1 = {omega1}, omega2 = {omega2} rad/s")
    ej5_eff_rad = eff.ej5_eff * GHZ * _TWO_PI
    g12 = 0.5 * math.sqrt(omega1 * omega2 / (w[0, 0] * w[1, 1])) * (
        w[0, 1] - 8.0 * ej5_eff_rad * w[0, 0] * w[1, 1] / (omega1 * omega2)
    )
    if not math.isfinite(g12):
        raise ModelError(f"coupling rate g12 is not finite: {g12} rad/s")
    return ModeSystem(w=w, omega1=omega1, omega2=omega2, g12=g12)


def _diagonalizing_rotation(omega1: float, omega2: float, g12: float) -> np.ndarray:
    """Jacobi rotation diagonalizing [[w1, g], [g, w2]].

    The angle stays in (-pi/4, pi/4] so column 1 remains the mode-1-like
    eigenvector; g = 0 (including the degenerate case) gives the identity.
    """
    if g12 == 0.0:
        theta = 0.0
    elif omega1 == omega2:
        theta = math.copysign(math.pi / 4.0, g12)
    else:
        theta = 0.5 * math.atan(2.0 * g12 / (omega1 - omega2))
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def zz_perturbative(system: ModeSystem, eff: EffectiveParams) -> tuple[float, np.ndarray]:
    """Cross-Kerr coefficient of the dressed modes, as zeta/2pi in kHz.

    zeta is the coefficient of n1 n2 after rotating into the eigenmodes of
    [[w1, g12], [g12, w2]]; each quartic energy enters with the squared
    participations of the rotation matrix.
    """
    u12 = _diagonalizing_rotation(system.omega1, system.omega2, system.g12)
    wj1 = eff.ej1_kerr * GHZ * _TWO_PI
    wj2 = eff.ej2_kerr * GHZ * _TWO_PI
    wj5 = eff.ej5_kerr * GHZ * _TWO_PI
    x1 = 8.0 * system.w[0, 0] / system.omega1
    x2 = 8.0 * system.w[1, 1] / system.omega2
    zeta = (
        -(wj1 / 4.0) * x1**2 * u12[0, 0] ** 2 * u12[0, 1] ** 2
        - (wj2 / 4.0) * x2**2 * u12[1, 0] ** 2 * u12[1, 1] ** 2
        - (wj5 / 4.0) * x1 * x2 * u12[0, 0] ** 2 * u12[1, 1] ** 2
    )
    return zeta / (_TWO_PI * 1e3), u12


def two_mode_reduction(params: CircuitParams, e_norm_ghz: float | None = None) -> PerturbativeResult:
    """Run the whole block-transform pipeline for one parameter set."""
    ej = derive_junction_energies(params)
    e_norm = ej.ej1 if e_norm_ghz is None else float(e_norm_ghz)
    b13, b24 = block_normal_modes(params, ej, e_norm)
    eff = effective_parameters(b13, b24, params.c34, ej)
    system = mode_frequencies_and_g12(b13, b24, eff, e_norm)
    zeta_khz, u12 = zz_perturbative(system, eff)
    c34_closed = shunt_capacitance_for(ej.lj5_nh * NH, system.omega1, system.omega2) / FF
    return PerturbativeResult(eff, system, u12, zeta_khz, c34_closed)


def shunt_capacitance_for(lj5_h: float, omega1: float, omega2: float) -> float:
    """Closed-form decoupling shunt 1/(L_J5 w1 w2), in farads."""
    return 1.0 / (lj5_h * omega1 * omega2)


def _residual_tolerance(system: ModeSystem) -> float:
    """The largest |g12| (rad/s) a decoupling shunt may leave: 1e-5 sqrt(w1 w2)."""
    return _G12_RESIDUAL_FACTOR * math.sqrt(system.omega1 * system.omega2)


def zero_coupling_c34(params: CircuitParams) -> ZeroCouplingResult:
    """Self-consistent decoupling shunt capacitance.

    The mode frequencies depend on C34 through the block matrices, so the
    fixed point of closed(C) = 1/(L_J5 w1(C) w2(C)) is found by brentq on
    [0, 2 closed(params.c34)]; closed(0) > 0, and a closed form not below C at
    the upper bound raises ModelError. The residual |g12| at the fixed point
    is checked against 1e-5 sqrt(w1 w2); the closed form carries a
    weak-coupling shorthand, so for strongly coupled circuits the result is
    polished against the exact g12 zero before the check. Where
    ``block_normal_modes`` swaps a block's qubit-like column, k_Ur and g12
    jump sign; a polish that fails the check there raises ``ModelError``
    naming that C34 and the values on either side.
    """
    def reduce(c34_ff: float) -> PerturbativeResult:
        return two_mode_reduction(params.with_c34(c34_ff))

    upper = 2.0 * reduce(params.c34).c34_closed_ff
    if not reduce(upper).c34_closed_ff < upper:
        raise ModelError(
            f"no zero-coupling fixed point in [0, {upper:.3f}] fF: 1/(L_J5 w1 w2) is not below C34 at the upper bound"
        )
    c34, root = brentq(lambda c: reduce(c).c34_closed_ff - c, 0.0, upper, xtol=_C34_XTOL_FF, full_output=True)

    final = reduce(c34).system
    if abs(final.g12) >= _residual_tolerance(final):
        lo, hi = 0.5 * c34, 2.0 * c34
        for _ in range(9):  # the first bracket and up to eight widenings
            if reduce(lo).system.g12 * reduce(hi).system.g12 <= 0:
                break
            lo, hi = 0.5 * lo, 1.5 * hi
        else:
            raise ModelError(f"cannot bracket the g12 zero around the fixed point {c34:.3f} fF")
        c34 = float(brentq(lambda c: reduce(c).system.g12, lo, hi, xtol=_C34_XTOL_FF))
        final = reduce(c34).system
        if abs(final.g12) >= _residual_tolerance(final):
            below, above = reduce(max(c34 - _MODE_SWAP_PROBE_FF, 0.0)), reduce(c34 + _MODE_SWAP_PROBE_FF)
            if below.eff.k_ur * above.eff.k_ur < 0:
                raise ModelError(
                    f"the g12 polish converged onto C34 = {c34:.3f} fF, where a block swaps its qubit-like mode: "
                    f"across it k_Ur goes {below.eff.k_ur:+.4f} -> {above.eff.k_ur:+.4f} and g12 "
                    f"{below.system.g12:+.3e} -> {above.system.g12:+.3e} rad/s, a jump and not a zero"
                )
            raise ModelError(
                f"residual coupling |g12|={abs(final.g12):.3e} rad/s remains above "
                f"tolerance {_residual_tolerance(final):.3e} after polishing"
            )
    return ZeroCouplingResult(
        c34_star_ff=c34,
        g12_residual=final.g12,
        omega1=final.omega1,
        omega2=final.omega2,
        iterations=root.iterations,
    )
