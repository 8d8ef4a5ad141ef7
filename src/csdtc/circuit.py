"""Four-node coupler circuit: parameters, junction energies, capacitance matrices.

Nodes 1 and 2 are the data transmons; nodes 3 and 4 are the coupler
transmons, joined by junction JJ5 and the shunt capacitance C34. Parameters
carry bench units (fF, nA); derived matrices use SI farads, and energies are
reported as frequencies E/h in GHz.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .constants import E_CHARGE, FF, GHZ, NA, NH, PHI0_REDUCED, PLANCK_H
from .errors import NumericsError, ParameterError

_NODE_FIELDS = ("c11", "c22", "c33", "c44")
_MUTUAL_FIELDS = ("c12", "c13", "c14", "c23", "c24", "c34")  # cij joins nodes i and j; its JSON key is Cij
_CURRENT_FIELDS = ("ic1", "ic2", "ic3", "ic4", "ic5")

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class CircuitParams:
    """Node capacitances and mutual capacitances in fF, critical currents in nA.

    Construction raises ``ParameterError`` naming each violated invariant.
    """

    c11: float
    c22: float
    c33: float
    c44: float
    c12: float
    c13: float
    c14: float
    c23: float
    c24: float
    c34: float
    ic1: float
    ic2: float
    ic3: float
    ic4: float
    ic5: float

    def __post_init__(self):
        require_valid(self)

    def with_c34(self, c34_ff: float) -> "CircuitParams":
        return replace(self, c34=c34_ff)

    def without_parasitics(self) -> "CircuitParams":
        """Zero the small cross couplings C12, C14, C23."""
        return replace(self, c12=0.0, c14=0.0, c23=0.0)


@dataclass(frozen=True)
class JunctionEnergies:
    """Josephson energies E_J/h in GHz and the JJ5 inductance in nH."""

    ej1: float
    ej2: float
    ej3: float
    ej4: float
    ej5: float
    lj5_nh: float


def _display(field: str) -> str:
    return field.capitalize() if field.startswith("c") else "Ic" + field[2:]


def require_valid(params: CircuitParams) -> None:
    """Raise ``ParameterError`` with one message per violated invariant, joined by "; ".

    Positive node and non-negative mutual capacitances make the capacitance
    matrix strictly diagonally dominant with a positive diagonal, so every
    admissible set has a positive-definite one; a numerically singular
    matrix is refused by ``charging_matrix``.
    """
    report = []
    for name in _NODE_FIELDS:
        value = getattr(params, name)
        if not np.isfinite(value) or value <= 0:
            report.append(f"node capacitance {_display(name)} must be strictly positive, got {value}")
    for name in _MUTUAL_FIELDS:
        value = getattr(params, name)
        if not np.isfinite(value) or value < 0:
            report.append(f"mutual capacitance {_display(name)} must be non-negative, got {value}")
    for name in _CURRENT_FIELDS:
        value = getattr(params, name)
        if not np.isfinite(value) or value <= 0:
            report.append(f"critical current {_display(name)} must be strictly positive, got {value}")
    if report:
        raise ParameterError("; ".join(report))


def derive_junction_energies(params: CircuitParams) -> JunctionEnergies:
    """Josephson energies E_Ji/h = Phi0 Ic_i / (2 pi h) and L_J5 = (Phi0/2pi)/Ic5.

    A finite current whose energy or inductance overflows raises
    ``NumericsError`` naming the junction, as ``charging_matrix`` refuses a
    singular capacitance matrix.
    """
    ej = [PHI0_REDUCED * (getattr(params, name) * NA) / PLANCK_H / GHZ for name in _CURRENT_FIELDS]
    ic5 = params.ic5 * NA  # a subnormal current in nA rounds to 0 A
    lj5 = PHI0_REDUCED / ic5 / NH if ic5 > 0 else np.inf
    for label, name, value in zip(("EJ1", "EJ2", "EJ3", "EJ4", "EJ5", "L_J5"), (*_CURRENT_FIELDS, "ic5"), (*ej, lj5)):
        if not np.isfinite(value):
            current = getattr(params, name)
            raise NumericsError(f"{label} of critical current {_display(name)} = {current} nA overflows to {value}")
    return JunctionEnergies(*ej, lj5_nh=lj5)


def build_capacitance_matrix(params: CircuitParams) -> np.ndarray:
    """Node capacitance matrix (F) of the parameter set."""
    mat = np.zeros((4, 4))
    for name in _MUTUAL_FIELDS:
        i, j = int(name[1]) - 1, int(name[2]) - 1
        value = getattr(params, name) * FF
        mat[i, j] = -value
        mat[j, i] = -value
    for i, name in enumerate(_NODE_FIELDS):
        # diagonal = own node capacitance plus every mutual touching the node
        mat[i, i] = getattr(params, name) * FF - (mat[i].sum() - mat[i, i])
    return mat


def charging_matrix(cmat: np.ndarray) -> np.ndarray:
    """Invert the capacitance matrix into the charging-energy matrix (GHz).

    Entry (i, j) is the coefficient of n_i n_j in H/h, i.e. (4e^2/2) C^-1 / h.
    A well-conditioned matrix whose inverse still overflows (subnormal
    capacitances) raises ``NumericsError`` naming the charging matrix.
    """
    c = np.asarray(cmat, dtype=float)
    cond = np.linalg.cond(c)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericsError(f"capacitance matrix is numerically singular (condition number {cond:.3e})")
    ec = (2.0 * E_CHARGE**2 / PLANCK_H) * np.linalg.inv(c) / GHZ
    if not np.isfinite(ec).all():
        raise NumericsError(
            f"charging matrix overflows: the capacitance matrix, largest entry {np.abs(c).max():.3e} F, "
            "is too small to invert"
        )
    return (ec + ec.T) / 2.0


def reference_device() -> CircuitParams:
    """Parameter set of the device this package was validated against."""
    return CircuitParams(
        c11=108.0, c22=80.0, c33=90.0, c44=90.0,
        c12=0.002, c13=12.6, c14=0.06, c23=0.06, c24=12.6, c34=30.3,
        ic1=26.7, ic2=26.6, ic3=55.2, ic4=55.2, ic5=11.9,
    )


# --- JSON parameter documents -------------------------------------------------

_JSON_KEYS = {"node_caps_fF", "mutual_caps_fF", "critical_currents_nA"}


def _require_keys(found, expected, where: str) -> None:
    """Reject unknown keys, then missing ones, naming ``where`` they were looked for."""
    for problem, keys in (("unknown", set(found) - set(expected)), ("missing", set(expected) - set(found))):
        if keys:
            raise ParameterError(f"{problem} keys in {where}: {sorted(keys)}")


def params_from_dict(doc: dict) -> CircuitParams:
    """Parse the JSON parameter document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ParameterError("parameter document must be a JSON object")
    _require_keys(doc, _JSON_KEYS, "parameter document")
    node = doc["node_caps_fF"]
    if not isinstance(node, (list, tuple)) or len(node) != 4:
        raise ParameterError("node_caps_fF must be a list of 4 values")
    currents = doc["critical_currents_nA"]
    if not isinstance(currents, (list, tuple)) or len(currents) != 5:
        raise ParameterError("critical_currents_nA must be a list of 5 values")
    mutual = doc["mutual_caps_fF"]
    if not isinstance(mutual, dict):
        raise ParameterError("mutual_caps_fF must be an object")
    _require_keys(mutual, [_display(field) for field in _MUTUAL_FIELDS], "mutual_caps_fF")
    entries = [(f"node_caps_fF[{i}]", field, node[i]) for i, field in enumerate(_NODE_FIELDS)]
    entries += [(f"mutual_caps_fF.{_display(field)}", field, mutual[_display(field)]) for field in _MUTUAL_FIELDS]
    entries += [(f"critical_currents_nA[{i}]", field, currents[i]) for i, field in enumerate(_CURRENT_FIELDS)]
    kwargs = {}
    for key, field, value in entries:
        # a JSON number only: bool is an int subclass, and float() would also take "108"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"{key} must be a number, got {value!r}")
        try:
            kwargs[field] = float(value)
        except OverflowError:  # a JSON integer has no size limit, a float does
            digits = len(str(abs(value)))
            raise ParameterError(f"{key} must fit in a float, got an integer of {digits} digits") from None
    return CircuitParams(**kwargs)


def params_to_dict(params: CircuitParams) -> dict:
    values = asdict(params)
    return {
        "node_caps_fF": [values[name] for name in _NODE_FIELDS],
        "mutual_caps_fF": {_display(field): values[field] for field in _MUTUAL_FIELDS},
        "critical_currents_nA": [values[name] for name in _CURRENT_FIELDS],
    }


def load_params(path: str | Path) -> CircuitParams:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return params_from_dict(json.load(handle))
        except ValueError as exc:  # malformed JSON, bytes that are not UTF-8, or a ParameterError
            raise ParameterError(f"parameter file {path}: {exc}") from exc


def save_params(params: CircuitParams, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(params_to_dict(params), handle, indent=2)
        handle.write("\n")
