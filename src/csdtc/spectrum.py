"""Eigenspectrum, dressed-state labels, and the ZZ interaction.

Two backends solve for the lowest eigenpairs, chosen by basis size:

- the charge basis (n_max 3 and 4, and the oracle everywhere): the four-node
  operator on (2 n_max + 1)^4 states, solved by seeded ARPACK Lanczos;
- hierarchical (n_max >= 5): node 1, node 2 and the coupler block are
  diagonalized exactly and truncated to 6, 6 and 30 levels, and the
  cross-block charge terms 2 Ec_ij n_i n_j couple them in the resulting
  1080-state product basis, solved densely. The four-node operator is never
  built, and ``seed`` has no effect. The levels left out are estimated at
  second order in the cross-block terms; where they would move zeta by more
  than 0.01 kHz or a computational frequency by more than 1e-5 GHz, the
  circuit is solved on the charge basis instead. On the reference device
  zeta agrees with the charge basis at the same n_max to within 0.004 kHz.

Every eigensolve is real. The charge reflection n -> -n conjugates every
operator here (P H P = H*), so each has a real symmetric form on a fixed
basis (``hamiltonian.real_form``) with exactly its eigenvalues. The charge
basis solves that form wherever H is complex (flux off 0 and 1/2) and maps
the eigenvectors back; where H is real it is solved as it is. The
hierarchical backend diagonalizes each block in its real form at every flux.
There each node charge, odd under the reflection, becomes i N with N real,
so the cross terms 2 Ec_ij n_i n_j become -2 Ec_ij N_i N_j and the product
matrix is real as well.

Dressed states are labeled |Q1, Q2, c> against the three blocks of
``BlockHamiltonians.modes``: Q1 and Q2 are the qubit-node occupations and c
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
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from . import perturbative
from .circuit import CircuitParams
from .errors import LabelingError, SolverError, TruncationError
from .hamiltonian import (
    LABEL_LEVELS,
    BlockHamiltonians,
    ChargeBasisConfig,
    SparseHamiltonian,
    assemble_blocks,
    assemble_hamiltonian,
    from_real_form,
    real_form,
)

AMBIGUITY_THRESHOLD = 0.5
_RESIDUAL_FACTOR = 1e-8
# hierarchical backend: block levels kept in the product basis (6 * 6 * 30 = 1080 states)
_KEPT_QUBIT_LEVELS = 6
_KEPT_COUPLER_LEVELS = 30
_BLOCK_NAMES = ("qubit 1", "qubit 2", "coupler")
# hierarchical results whose estimated truncation error exceeds these are refused
_TRUNCATION_ZETA_TOL_KHZ = 0.01
_TRUNCATION_LEVEL_TOL_GHZ = 1e-5
# backend crossover, median seconds per 16-pair solve on the reference device, one BLAS thread on a
# 2-core x86-64 machine (charge / hierarchical):
# n_max=4: 0.16 / 0.17 at phi=0, 0.20 / 0.18 at phi=0.15; n_max=5: 0.55 / 0.19 and 0.59 / 0.19;
# n_max=7: 2.33 / 0.19 and 2.60 / 0.18
_HIERARCHICAL_MIN_N_MAX = 5

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
    backend: str  # "charge" or "hierarchical"

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

    A dense array is solved by LAPACK for its lowest k pairs only, a sparse
    operator by ARPACK Lanczos from a seeded start vector, so repeated runs
    are bit-identical. Residuals are checked against 1e-8 * ||H||_1 per pair.
    """
    if isinstance(operator, SparseHamiltonian):
        mat = operator.matrix
    elif sp.issparse(operator):
        mat = operator.tocsr()
    else:
        mat = np.asarray(operator)
    n = mat.shape[0]
    if not (0 < k < n):
        raise ValueError(f"need 0 < k < dimension, got k={k}, dimension={n}")

    if not sp.issparse(mat):
        vals, vecs = sla.eigh(mat, subset_by_index=[0, k - 1])
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


def _assign_labels(overlaps: np.ndarray):
    """Labels from |<product|eigenstate>|^2 of shape (k, 3, 3, 6) by the overlap-maximizing unique assignment."""
    k = overlaps.shape[0]
    shape = overlaps.shape[1:]
    flat = overlaps.reshape(k, -1)
    if flat.shape[1] < k:
        raise LabelingError(
            f"label space holds qubit occupations 0..{LABEL_LEVELS[0] - 1} and coupler levels "
            f"0..{LABEL_LEVELS[2] - 1} ({flat.shape[1]} products) and cannot uniquely label {k} eigenstates"
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


def _lowest_block_states(mode: np.ndarray, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvectors of a block; a complex block is solved in its real form."""
    if np.iscomplexobj(mode):
        return from_real_form(np.linalg.eigh(real_form(mode))[1][:, :count])
    return np.linalg.eigh(mode)[1][:, :count]


def label_states(eigvecs, ham: BlockHamiltonians):
    """Label charge-basis eigenstates by the overlap-maximizing unique assignment to block eigenstate products."""
    bases = [_lowest_block_states(h, n) for h, n in zip(ham.modes, LABEL_LEVELS)]
    return _assign_labels(_product_overlaps(eigvecs, bases))


def _spectrum_result(flux, cfg: ChargeBasisConfig, vals: np.ndarray, labels, backend: str) -> SpectrumResult:
    return SpectrumResult(
        flux=float(flux),
        n_max=int(cfg.n_max),
        eigenfrequencies_ghz=vals - vals[0],
        labels=labels,
        backend=backend,
    )


def charge_spectrum(params: CircuitParams, flux, cfg: ChargeBasisConfig, *, seed: int = 0) -> SpectrumResult:
    """The oracle: solve the four-node charge-basis operator and label against its blocks.

    A complex operator is solved in its real form and its eigenvectors mapped back.
    """
    ham = assemble_hamiltonian(params, flux, cfg)
    blocks = BlockHamiltonians(ec=ham.ec, n_max=ham.n_max, phi_ex=ham.phi_ex, modes=ham.modes)
    if np.iscomplexobj(ham.matrix):
        folded = real_form(ham.matrix)
        del ham  # labels need only the blocks: free the complex operator before the solve
        vals, vecs = solve_lowest(folded, cfg.num_eigenstates, seed=seed)
        del folded
        vecs = from_real_form(vecs)
    else:
        vals, vecs = solve_lowest(ham, cfg.num_eigenstates, seed=seed)
    return _spectrum_result(flux, cfg, vals, label_states(vecs, blocks), "charge")


def _block_eigenbasis(name: str, mode: np.ndarray, kept: int):
    """All eigenpairs of one block in its real form; refuses a cut at ``kept`` levels through a near-degenerate pair."""
    vals, vecs = np.linalg.eigh(real_form(mode))
    gap = vals[kept] - vals[kept - 1] if kept < vals.size else np.inf
    tol = _RESIDUAL_FACTOR * np.abs(mode).sum(axis=0).max()
    if gap < tol:
        raise SolverError(
            f"{name} block truncated at {kept} levels cuts a near-degenerate pair "
            f"(gap {gap:.3e} GHz < {tol:.3e}); the result would depend on the basis"
        )
    return vals, vecs


def _real_charge(vecs: np.ndarray, charges: np.ndarray, kept: int) -> np.ndarray:
    """N with n = i N for a node charge, from the first ``kept`` real-form eigenvectors of a block to all of them.

    On the real-form basis a charge diagonal ``charges``, odd under the
    reflection, is i [[0, 0, D], [0, 0, 0], [-D, 0, 0]] with D its first
    dim // 2 entries.
    """
    h = vecs.shape[0] // 2
    top = charges[:h, None]
    even, odd = vecs[:h], vecs[h + 1 :]
    return even.T @ (top * odd[:, :kept]) - odd.T @ (top * even[:, :kept])


def _truncation_shifts(states, energies, block_energies, n1, n2, x, y, ec12: float) -> np.ndarray:
    """Second-order energy shifts (GHz) of product-basis eigenstates from the block levels left out.

    ``states`` holds eigenvectors as (count, m1, m2, mc) coefficient tensors
    and ``energies`` their eigenvalues. The cross-block terms couple them to
    the products outside the kept corner, whose unperturbed energies are sums
    of block energies; each state shifts by -sum |<out|V|psi>|^2 / (E_out - E).
    The operators map the kept levels of a block to all of its levels: the
    real node charges ``n1`` and ``n2`` (N with n = i N), and the coupler
    factors ``x`` of node 1 and ``y`` of node 2; ``ec12`` is Ec_12. The
    cross terms are minus the sum formed here, a sign that drops out of
    |<out|V|psi>|^2.
    """
    m1, m2, mc = states.shape[1:]
    e1, e2, e34 = block_energies
    amp = np.zeros((len(states), e1.size, e2.size, e34.size))
    amp[:, :, :, :mc] += 2.0 * ec12 * np.einsum("Aa,Bb,sabc->sABc", n1, n2, states, optimize=True)
    amp[:, :, :m2, :] += np.einsum("Aa,Cc,sabc->sAbC", n1, x, states, optimize=True)
    amp[:, :m1, :, :] += np.einsum("Bb,Cc,sabc->saBC", n2, y, states, optimize=True)
    amp[:, :m1, :m2, :mc] = 0.0
    unperturbed = e1[:, None, None] + e2[None, :, None] + e34[None, None, :]
    shifts = []
    for weights, energy in zip(np.abs(amp) ** 2, energies):
        coupled = weights > 0
        gaps = unperturbed[coupled] - energy
        if np.any(gaps <= 0):
            raise TruncationError(
                f"a left-out product state ({unperturbed[coupled][gaps <= 0].min():.4f} GHz) couples to "
                f"a kept eigenstate above it ({energy:.4f} GHz)"
            )
        shifts.append(-np.sum(weights[coupled] / gaps))
    return np.array(shifts)


def hierarchical_spectrum(params: CircuitParams, flux, cfg: ChargeBasisConfig) -> SpectrumResult:
    """Spectrum in the product basis of the lowest block eigenstates, without the four-node operator.

    Node 1, node 2 and the coupler block (which holds all the flux dependence
    and JJ5) are diagonalized exactly in their real forms and truncated to 6,
    6 and 30 levels. In that 1080-state product basis the Hamiltonian is the
    sum of the block energies and the cross-block charge terms
    2 Ec_ij n_i n_j = -2 Ec_ij N_i N_j, all real; its lowest pairs are taken
    densely. Labels are the squared product coefficients of the label
    corner, assigned as for the charge basis.

    The levels left out shift the computational levels at second order in
    the cross-block terms. Where that estimate moves zeta by more than
    0.01 kHz or a computational frequency by more than 1e-5 GHz, the
    truncation is too coarse for the circuit and ``TruncationError`` is raised.
    """
    blocks, _ = assemble_blocks(params, flux, cfg)
    kept = (_KEPT_QUBIT_LEVELS, _KEPT_QUBIT_LEVELS, _KEPT_COUPLER_LEVELS)
    (e1, v1), (e2, v2), (e34, v34) = (
        _block_eigenbasis(name, mode, m) for name, mode, m in zip(_BLOCK_NAMES, blocks.modes, kept)
    )
    m1, m2, mc = kept

    # real node charges N (n = i N) from the kept to all levels of each block; v34 rows run over (n3, n4)
    charges = np.arange(-blocks.n_max, blocks.n_max + 1, dtype=float)
    ec = blocks.ec
    n1 = _real_charge(v1, charges, m1)
    n2 = _real_charge(v2, charges, m2)
    n3 = _real_charge(v34, np.repeat(charges, charges.size), mc)
    n4 = _real_charge(v34, np.tile(charges, charges.size), mc)
    x = 2.0 * (ec[0, 2] * n3 + ec[0, 3] * n4)
    y = 2.0 * (ec[1, 2] * n3 + ec[1, 3] * n4)

    ham = np.zeros((m1 * m2 * mc,) * 2)
    ham.flat[:: ham.shape[0] + 1] = (e1[:m1, None, None] + e2[None, :m2, None] + e34[None, None, :mc]).ravel()
    # each cross term (-2 Ec_ij N_i N_j) is subtracted through a 6-index view of ham, one block-diagonal slice at a time
    view = ham.reshape(m1, m2, mc, m1, m2, mc)
    term = 2.0 * ec[0, 1] * n1[:m1, None, :, None] * n2[None, :m2, None, :]
    for c in range(mc):
        view[:, :, c, :, :, c] -= term
    term = n1[:m1, None, :, None] * x[None, :mc, None, :]
    for b in range(m2):
        view[:, b, :, :, b, :] -= term
    term = n2[:m2, None, :, None] * y[None, :mc, None, :]
    for a in range(m1):
        view[a, :, :, a, :, :] -= term

    k = cfg.num_eigenstates
    vals, vecs = solve_lowest(ham, k)
    coefficients = vecs.T.reshape(k, m1, m2, mc)
    corner = coefficients[:, : LABEL_LEVELS[0], : LABEL_LEVELS[1], : LABEL_LEVELS[2]]
    labels = _assign_labels(np.abs(corner) ** 2)
    spec = _spectrum_result(flux, cfg, vals, labels, "hierarchical")

    computational = [[label.occupations for label in labels].index(occ) for occ in COMPUTATIONAL_OCCUPATIONS]
    shifts = _truncation_shifts(
        coefficients[computational], vals[computational], (e1, e2, e34), n1, n2, x, y, ec[0, 1]
    )
    level_shifts = shifts[1:] - shifts[0]
    zeta_shift_khz = (shifts[3] - shifts[1] - shifts[2] + shifts[0]) * 1e6
    if abs(zeta_shift_khz) > _TRUNCATION_ZETA_TOL_KHZ or np.abs(level_shifts).max() > _TRUNCATION_LEVEL_TOL_GHZ:
        raise TruncationError(
            f"levels left out of the {m1}x{m2}x{mc} product basis shift zeta by about {zeta_shift_khz:.3g} kHz "
            f"and the computational levels by up to {np.abs(level_shifts).max():.3g} GHz",
            spectrum=spec,
            zeta_shift_khz=zeta_shift_khz,
        )
    return spec


def spectrum_at(params: CircuitParams, flux, cfg: ChargeBasisConfig, *, seed: int = 0) -> SpectrumResult:
    """Solve, label and ground-reference the spectrum at one flux.

    n_max >= 5 takes the hierarchical backend, which ignores ``seed``, unless
    it refuses the circuit with ``TruncationError``; smaller bases and refused
    circuits take the charge-basis oracle.
    """
    if cfg.n_max >= _HIERARCHICAL_MIN_N_MAX:
        try:
            return hierarchical_spectrum(params, flux, cfg)
        except TruncationError:
            pass
    return charge_spectrum(params, flux, cfg, seed=seed)


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

    With ``certify=True`` the value is recomputed on the charge-basis oracle
    at n_max + 2 and the absolute difference is reported as the convergence
    delta.
    """
    spec = spectrum_at(params, flux, cfg, seed=seed)
    zeta = _zeta_from_spectrum(spec)
    delta = None
    if certify:
        bigger = replace(cfg, n_max=cfg.n_max + 2)
        zeta_big = _zeta_from_spectrum(charge_spectrum(params, flux, bigger, seed=seed))
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


def sweep_c34(params: CircuitParams, c34_grid_ff, flux, cfg: ChargeBasisConfig, *, seed: int = 0):
    """zeta versus the shunt capacitance, with the two-mode prediction alongside."""
    grid = np.asarray(c34_grid_ff, dtype=float)
    if grid.size == 0:
        raise ValueError("C34 grid must be non-empty")
    if np.any(grid <= 0):
        raise ValueError("C34 grid must be strictly positive")
    points = []
    for c34 in grid:
        trial = params.with_c34(float(c34))
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
