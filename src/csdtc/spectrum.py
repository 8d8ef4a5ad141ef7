"""Eigenspectrum, dressed-state labels, and the ZZ interaction.

Dressed states are labeled |Q1, Q2, c> against the three blocks of
``SparseHamiltonian.modes``: Q1 and Q2 are the qubit-node occupations and c
is the level index of the coupler block (nodes 3 and 4 with JJ5 at the flux).
Each eigenstate gets one product of block eigenstates, by the unique
assignment that maximizes the summed overlap. The ZZ interaction is the
cross-Kerr combination E(110) - E(100) - E(010) + E(000) of labeled
eigenenergies, reported as zeta/2pi in kHz.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from . import perturbative
from .circuit import CircuitParams
from .errors import LabelingError, SolverError
from .hamiltonian import ChargeBasisConfig, SparseHamiltonian, assemble_hamiltonian

AMBIGUITY_THRESHOLD = 0.5
_QUBIT_LEVELS = 3  # occupations 0..2 per qubit block
_COUPLER_LEVELS = 6  # ground, the two single- and the three double-excitation levels
_DENSE_CUTOFF = 600
_RESIDUAL_FACTOR = 1e-8

COMPUTATIONAL_OCCUPATIONS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


@dataclass(frozen=True)
class DressedLabel:
    """(q1, q2, coupler level) label for one eigenstate with its assignment overlap."""

    occupations: tuple[int, int, int]
    overlap: float
    ambiguous: bool


@dataclass(frozen=True)
class SpectrumResult:
    """Labeled eigenfrequencies (GHz, relative to the ground state) at one flux."""

    flux: float
    n_max: int
    eigenfrequencies_ghz: np.ndarray
    labels: tuple[DressedLabel, ...]

    def level(self, occupations) -> tuple[float, DressedLabel]:
        """Frequency and label of the eigenstate carrying the given occupations."""
        occ = tuple(int(v) for v in occupations)
        for freq, label in zip(self.eigenfrequencies_ghz, self.labels):
            if label.occupations == occ:
                return float(freq), label
        raise LabelingError(f"no eigenstate labeled {occ}", spectrum=self)


@dataclass(frozen=True)
class ZZResult:
    """zeta/2pi in kHz at one flux point."""

    zeta_khz: float
    flux: float
    convergence_delta_khz: float | None = None


@dataclass(frozen=True)
class FluxSweepPoint:
    phi_ex: float
    zeta_khz: float | None
    spectrum: "SpectrumResult | None"
    error: str | None


@dataclass(frozen=True)
class C34SweepPoint:
    c34_ff: float
    zeta_khz: float | None
    zeta_pert_khz: float
    g12_rad_s: float
    error: str | None


@dataclass(frozen=True)
class ConvergenceStudy:
    n_max_values: tuple[int, ...]
    zeta_khz_values: tuple[float, ...]
    deltas_khz: tuple[float, ...]
    converged: bool


def solve_lowest(operator, k: int, *, seed: int = 0):
    """Lowest-k eigenpairs of a Hermitian operator, ascending.

    Dense below a small cutoff, ARPACK Lanczos above it; the Lanczos start
    vector is seeded so repeated runs are bit-identical. Residuals are
    checked against 1e-8 * ||H||_1 per pair.
    """
    if isinstance(operator, SparseHamiltonian):
        mat = operator.matrix
    elif sp.issparse(operator):
        mat = operator.tocsr()
    else:
        mat = sp.csr_matrix(np.asarray(operator))
    n = mat.shape[0]
    if not (0 < k < n):
        raise ValueError(f"need 0 < k < dimension, got k={k}, dimension={n}")

    if n <= _DENSE_CUTOFF:
        vals, vecs = np.linalg.eigh(mat.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n).astype(mat.dtype)
        try:
            vals, vecs = spla.eigsh(mat, k=k, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver did not converge ({len(exc.eigenvalues)} of {k} pairs)"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    scale = np.abs(mat).sum(axis=0).max()
    residuals = np.linalg.norm(mat @ vecs - vecs * vals[np.newaxis, :], axis=0)
    tol = _RESIDUAL_FACTOR * scale
    if np.any(residuals > tol):
        raise SolverError(
            f"eigenpair residuals exceed contract: max {residuals.max():.3e} > {tol:.3e}"
        )
    return vals, vecs


def _product_overlaps(vecs: np.ndarray, bases) -> np.ndarray:
    """|<product state | eigenstate>|^2, shape (k, levels of each block)."""
    k = vecs.shape[1]
    tensor = np.ascontiguousarray(vecs.T).reshape(k, *(basis.shape[0] for basis in bases))
    for basis in bases:
        tensor = np.tensordot(tensor, basis.conj(), axes=([1], [0]))
    return np.abs(tensor) ** 2


def label_states(eigvecs, ham: SparseHamiltonian):
    """Label eigenstates by the overlap-maximizing unique assignment to block eigenstate products."""
    levels = (_QUBIT_LEVELS, _QUBIT_LEVELS, _COUPLER_LEVELS)
    bases = [np.linalg.eigh(h)[1][:, :n] for h, n in zip(ham.modes, levels)]
    overlaps = _product_overlaps(eigvecs, bases)
    k = overlaps.shape[0]
    shape = overlaps.shape[1:]
    flat = overlaps.reshape(k, -1)
    if flat.shape[1] < k:
        raise LabelingError(
            f"label space holds qubit occupations 0..{_QUBIT_LEVELS - 1} and coupler levels "
            f"0..{_COUPLER_LEVELS - 1} ({flat.shape[1]} products) and cannot uniquely label {k} eigenstates"
        )
    _, products = linear_sum_assignment(flat, maximize=True)
    labels = []
    for state, product in enumerate(products):
        overlap = float(flat[state, product])
        occ = tuple(int(v) for v in np.unravel_index(product, shape))
        labels.append(DressedLabel(occ, overlap, bool(overlap < AMBIGUITY_THRESHOLD)))

    assigned = {label.occupations for label in labels}
    missing = [occ for occ in COMPUTATIONAL_OCCUPATIONS if occ not in assigned]
    if missing:
        candidates = {}
        for occ in missing:
            product = int(np.ravel_multi_index(occ, shape))
            best = np.argsort(flat[:, product])[::-1][:3]
            candidates[occ] = [(int(s), float(flat[s, product])) for s in best]
        raise LabelingError(
            f"required computational labels unassigned: {missing}; "
            f"best candidate states (index, overlap): {candidates}",
            candidates=candidates,
        )
    return tuple(labels)


def spectrum_at(params: CircuitParams, flux, cfg: ChargeBasisConfig, *, seed: int = 0) -> SpectrumResult:
    """Solve, reference-label and ground-reference the spectrum at one flux."""
    ham = assemble_hamiltonian(params, flux, cfg)
    vals, vecs = solve_lowest(ham, cfg.num_eigenstates, seed=seed)
    labels = label_states(vecs, ham)
    rel = vals - vals[0]
    return SpectrumResult(
        flux=float(flux),
        n_max=int(cfg.n_max),
        eigenfrequencies_ghz=rel,
        labels=labels,
    )


def _zeta_from_spectrum(spec: SpectrumResult) -> float:
    energies = {}
    for occ in COMPUTATIONAL_OCCUPATIONS:
        freq, label = spec.level(occ)
        if label.ambiguous:
            raise LabelingError(
                f"label {occ} is ambiguous (overlap {label.overlap:.3f} < {AMBIGUITY_THRESHOLD})",
                spectrum=spec,
            )
        energies[occ] = freq
    zeta_ghz = energies[(1, 1, 0)] - energies[(1, 0, 0)] - energies[(0, 1, 0)] + energies[(0, 0, 0)]
    return zeta_ghz * 1e6  # GHz -> kHz


def zz_interaction(
    params: CircuitParams,
    flux,
    cfg: ChargeBasisConfig,
    *,
    seed: int = 0,
    certify: bool = False,
) -> ZZResult:
    """ZZ interaction zeta/2pi (kHz) from labeled eigenenergies.

    With ``certify=True`` the value is recomputed at n_max + 2 and the
    absolute difference is reported as the convergence delta.
    """
    spec = spectrum_at(params, flux, cfg, seed=seed)
    zeta = _zeta_from_spectrum(spec)
    delta = None
    if certify:
        bigger = replace(cfg, n_max=cfg.n_max + 2)
        zeta_big = _zeta_from_spectrum(spectrum_at(params, flux, bigger, seed=seed))
        delta = abs(zeta_big - zeta)
    return ZZResult(zeta_khz=zeta, flux=float(flux), convergence_delta_khz=delta)


def sweep_flux(params: CircuitParams, grid, cfg: ChargeBasisConfig, *, seed: int = 0):
    """Independent per-point spectra and zeta over a flux grid in [-0.5, 0.5].

    Per-point failures are recorded in the row and the sweep continues.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("flux grid must be non-empty")
    if np.any(np.abs(grid) > 0.5 + 1e-12):
        raise ValueError("flux grid must lie within [-0.5, 0.5]")
    points = []
    for phi in grid:
        try:
            spec = spectrum_at(params, phi, cfg, seed=seed)
            zeta = _zeta_from_spectrum(spec)
            points.append(FluxSweepPoint(float(phi), zeta, spec, None))
        except (LabelingError, SolverError) as exc:
            points.append(FluxSweepPoint(float(phi), None, None, str(exc)))
    return points


def sweep_c34(
    params: CircuitParams,
    c34_grid_ff,
    flux,
    cfg: ChargeBasisConfig,
    *,
    zero_parasitics: bool = False,
    seed: int = 0,
):
    """zeta versus the shunt capacitance, with the two-mode prediction alongside."""
    grid = np.asarray(c34_grid_ff, dtype=float)
    if grid.size == 0:
        raise ValueError("C34 grid must be non-empty")
    if np.any(grid <= 0):
        raise ValueError("C34 grid must be strictly positive")
    base = params.without_parasitics() if zero_parasitics else params
    points = []
    for c34 in grid:
        trial = base.with_c34(float(c34))
        pert = perturbative.two_mode_reduction(trial)
        try:
            zeta = _zeta_from_spectrum(spectrum_at(trial, flux, cfg, seed=seed))
            points.append(C34SweepPoint(float(c34), zeta, pert.zeta_pert_khz, pert.system.g12, None))
        except (LabelingError, SolverError) as exc:
            points.append(C34SweepPoint(float(c34), None, pert.zeta_pert_khz, pert.system.g12, str(exc)))
    return points


def convergence_study(params: CircuitParams, flux, n_max_values, *, num_eigenstates: int = 16, seed: int = 0):
    """zeta at each basis size with successive deltas; converged below 1 kHz."""
    values = [int(n) for n in n_max_values]
    if len(values) < 2:
        raise ValueError("need at least two n_max values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("n_max values must be strictly ascending")
    zetas = []
    for n_max in values:
        cfg = ChargeBasisConfig(n_max=n_max, num_eigenstates=num_eigenstates)
        zetas.append(zz_interaction(params, flux, cfg, seed=seed).zeta_khz)
    deltas = tuple(abs(b - a) for a, b in zip(zetas, zetas[1:]))
    return ConvergenceStudy(tuple(values), tuple(zetas), deltas, converged=bool(deltas[-1] < 1.0))


# --- CSV artifacts --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_spectrum_csv(points, path) -> None:
    """Flux sweep of the four computational levels with label overlaps."""
    tags = ["0000", "1000", "0100", "1100"]  # q1, q2, then "00" for the coupler ground state
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["phi_ex"]
            + [f"E_{tag}_GHz" for tag in tags]
            + [f"overlap_{tag}" for tag in tags]
        )
        for point in points:
            row = [_fmt(point.phi_ex)]
            if point.spectrum is None:
                row += [""] * 8
            else:
                freqs, overlaps = [], []
                for occ in COMPUTATIONAL_OCCUPATIONS:
                    freq, label = point.spectrum.level(occ)
                    freqs.append(_fmt(freq))
                    overlaps.append(_fmt(label.overlap))
                row += freqs + overlaps
            writer.writerow(row)


def write_flux_zz_csv(points, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["phi_ex", "zeta_kHz", "ambiguous_flag"])
        for point in points:
            flag = 1 if point.zeta_khz is None else 0
            writer.writerow([_fmt(point.phi_ex), _fmt(point.zeta_khz), flag])


def write_c34_zz_csv(points, path) -> None:
    """Shunt-capacitance sweep with both exact and two-mode zeta columns."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["C34_fF", "zeta_exact_kHz", "zeta_pert_kHz", "g12_MHz", "ambiguous_flag"])
        for point in points:
            flag = 1 if point.zeta_khz is None else 0
            g12_mhz = point.g12_rad_s / (2.0 * np.pi * 1e6)
            writer.writerow(
                [_fmt(point.c34_ff), _fmt(point.zeta_khz), _fmt(point.zeta_pert_khz), _fmt(g12_mhz), flag]
            )
