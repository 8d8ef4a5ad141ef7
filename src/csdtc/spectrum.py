"""Eigenspectrum, dressed-state labels, and the ZZ interaction.

One backend answers at every n_max, with the charge basis as its oracle:

- product (``spectrum_at``): node 1, node 2 and the coupler block are
  diagonalized fully, and the Hamiltonian is written on the products of
  their eigenstates whose summed excitation energy
  (e1[a] - e1[0]) + (e2[b] - e2[0]) + (e34[c] - e34[0]) is at most a cutoff
  E_cut: block energies on the diagonal, minus the cross-block charge terms
  2 Ec_ij N_i N_j. Each sector is solved densely (below). Each
  computational level then gets its second-order shift from every product
  left out (hierarchical diagonalization with a Loewdin-partitioning
  correction). The solve and the corrections read the cross terms from one
  table, ``_ProductBlocks.couplings``.
  E_cut is tried at each cutoff of ``_E_CUT_LADDER`` in turn, and the first
  is accepted on its own corrections (``product_spectrum`` gives the rule):
  on the second-order correction, or else on the third-order term of the
  same partitioning, which estimates what that correction leaves out. The
  bounds, and the measurements behind them, stand beside the constants. The
  levels stay second-order values. The four-node operator is never
  built. Where every block is real (flux 0 or 1/2) the kept products
  split into two parity sectors, solved apart (below); elsewhere they are
  one sector.
- charge basis (the oracle, and the fall-back where no cutoff is
  accepted): the four-node operator on (2 n_max + 1)^4 states, folded to
  its real form where complex and solved by ``solve_lowest``. It is never
  split by parity, so it stays an independent check of the split.

Every lowest-k solve is of a real symmetric operator. ``_solve_by_sector``
sends a product sector of up to ``_SPARSE_MIN_PRODUCTS`` states to dense
LAPACK (``solve_lowest``) and a larger one to block Davidson
(``_davidson_lowest``) on the dense matrix that is built for it anyway:
written on the block eigenbases, its diagonal dominates, and the search
starts from the unit vectors on its lowest diagonal entries, whose H-products
are the matching columns of H, gathered. Each new direction adds its own rows
to the Rayleigh matrix B^T H B, kept in arrays sized for the largest space,
so that matrix is never formed anew. The charge
basis, too large to hold densely, stays CSR, and ``solve_lowest`` gives a
CSR operator to ARPACK Lanczos from one fixed start vector. Every route
checks the same residual contract on H. The product matrices are real by
construction and the oracle folds its own operator, so every eigensolve is
real and every output depends on the config alone.

Real form. The charge reflection n -> -n is the index reflection
P: i -> dim - 1 - i in kron order, and P H P = H* for every operator here,
bit for bit (``hamiltonian``). So the antiunitary P K (K complex
conjugation), which squares to one, fixes a real basis on which H is real
symmetric with exactly its eigenvalues: (e_i + e_Pi)/sqrt2 for
i < h = dim // 2, the centre e_h (all charges zero) and i (e_i - e_Pi)/sqrt2.
``real_form`` writes H on it from the top h + 1 rows, ``from_real_form`` maps
eigenvectors back, and ``_real_charge`` and ``_block_eigh`` slice the same
layout. Where H is real (flux 0 or 1/2) the real form is block-diagonal: the
first h + 1 states span the parity-even sector, the last h the odd one.

The product backend diagonalizes each block in its real form at every flux:
each node charge, odd under the reflection, becomes i N with N real, so the
cross terms 2 Ec_ij n_i n_j become -2 Ec_ij N_i N_j and the product matrix
is real too. Where every block is real, each block's two sectors are solved
apart, so each block level has a parity p = +-1 and N is exactly 0 between
levels of equal parity. Every cross term then flips two block parities, so
H conserves p1 p2 p34: the kept products split exactly into an even and an
odd sector, and the lowest k of each, solved apart, are merged.
``SpectrumResult.sector_states`` holds the two sizes.

Dressed states are labeled |Q1, Q2, c> against the three blocks of
``BlockHamiltonians.modes``: Q1 and Q2 are the qubit-node occupations and c
is the level index of the coupler block (nodes 3 and 4 with JJ5 at the flux).
Each eigenstate gets one product of block eigenstates, by the unique
assignment that maximizes the summed overlap. Where every state's largest
overlap lies on a different product, that is already the assignment, and
no matching is solved (every label call of the benchmark workloads, and 39
of the 51 solves of the Fig. 2 sweep at n_max 7); otherwise it is a
maximum-weight full bipartite matching (``scipy.sparse.csgraph``), so no
eigensolver command imports ``scipy.optimize``. The ZZ interaction is the
cross-Kerr combination E(110) - E(100) - E(010) + E(000) of labeled
eigenenergies, reported as zeta/2pi in kHz by ``zz_interaction``.
``convergence_study`` judges the basis size against ``ZETA_GATE_KHZ``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from . import perturbative
from .circuit import CircuitParams
from .errors import LabelingError, SolverError, TruncationError
from .hamiltonian import (
    LABEL_LEVELS,
    BlockHamiltonians,
    ChargeBasisConfig,
    assemble_blocks,
    assemble_hamiltonian,
    charge_grid,
)

AMBIGUITY_THRESHOLD = 0.5
_RESIDUAL_FACTOR = 1e-8
_SQRT2 = np.sqrt(2.0)
# product backend: each cutoff (GHz) on the summed block excitation energy of a kept product, tried in order,
# with the largest second-order correction to zeta (kHz) it accepts, and the largest third-order estimate of
# what that correction leaves out (kHz) on which it is accepted all the same (None: no estimate is taken).
# The first correction bound is stricter because at 45 GHz the correction can understate what is left out (at
# n_max 5 a 0.098 kHz correction left 0.0115 kHz). The estimate sums over the left-out products inside the
# reach of the blocks, which are built for the largest cutoff, so it is taken only at 45 GHz, 15 GHz below it:
# nearer, it misses the products just above the cutoff, and on random circuits at n_max 5 the remainder
# reached 3.8 times the estimate at 50 GHz and 31 times at 55 and 60
_E_CUT_LADDER = ((45.0, 0.05, 0.008), (50.0, 0.5, None), (55.0, 0.5, None), (60.0, 0.5, None))
# and the largest second-order correction to a computational frequency (GHz) that any cutoff accepts
_MAX_LEVEL_CORRECTION_GHZ = 1e-5
# the estimate is taken only where the zeta correction is at most this (kHz): above it the third-order terms can
# cancel (at n_max 7 a 2.02 kHz correction had a 0.0006 kHz estimate and left 0.061 kHz). It estimates, it does
# not bound: below the cap the remainder was 1.07-1.16 times the estimate on the device at n_max 5 and 1.18-1.41
# times on the C34 scan, but up to 2.9 times on random circuits at n_max 7 and 12 times at n_max 5 where the
# estimate was small; every point so accepted there was within 0.013 kHz of the oracle
_MAX_ESTIMATED_CORRECTION_KHZ = 1.0
# ``_solve_by_sector`` solves a product sector of more states than this by block Davidson, a smaller one by dense
# LAPACK. Davidson is now no slower below it (on the 373-375-product sectors of the device at zero flux and n_max 7,
# block Davidson takes 5.9-6.5 ms, LAPACK 6.8-7.1), but the value stays at 500: lowering it would change the bits of
# ``design`` and of the zero-flux outputs at n_max 7
_SPARSE_MIN_PRODUCTS = 500
# block Davidson: the search starts from k + _DAVIDSON_EXTRA unit vectors, restarts from as many Ritz vectors once it
# would pass _DAVIDSON_RESTART times that, and stops after _DAVIDSON_MAX_ITERATIONS (the device's sectors at n_max 7
# take 7-11 at every cutoff); a correction is kept only where at least _DAVIDSON_MIN_NEW of its unit norm lies outside
# the space
_DAVIDSON_EXTRA = 8
_DAVIDSON_RESTART = 4
_DAVIDSON_MAX_ITERATIONS = 60
_DAVIDSON_MIN_NEW = 1e-8

COMPUTATIONAL_OCCUPATIONS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
# the oracle gate: successive basis sizes whose zetas differ by less than this count as converged
ZETA_GATE_KHZ = 0.1
# ``sweep_flux`` folds fluxes whose |phi| agree to this many decimals, since a linspace mirror is often not bit-exact
FLUX_KEY_DECIMALS = 12


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
    backend: str  # "product" or "charge"
    e_cut_ghz: float | None = None  # product backend: the accepted cutoff,
    kept_states: int | None = None  # the number of products kept below it,
    truncation_khz: float | None = None  # and the |second-order correction| to zeta at it,
    remainder_khz: float | None = None  # and |third-order estimate| on zeta where it was taken
    sector_states: tuple[int, int] | None = None  # at flux 0 or 1/2: the kept products of even and odd parity
    fallback: str | None = None  # charge backend: why the product backend refused the point

    def level(self, occupations) -> tuple[float, DressedLabel]:
        """Frequency and label of the eigenstate carrying the given occupations."""
        occ = tuple(int(v) for v in occupations)
        for freq, label in zip(self.eigenfrequencies_ghz, self.labels):
            if label.occupations == occ:
                return float(freq), label
        raise LabelingError(f"no eigenstate labeled {occ}", spectrum=self)


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


def solve_lowest(operator, k: int):
    """Lowest-k eigenpairs of a real symmetric operator, dense or CSR, ascending, by the solver of its kind.

    LAPACK solves a dense operator for its lowest k pairs only, and ARPACK
    Lanczos a CSR one, always from the start vector
    ``default_rng(0).standard_normal(n)``, so repeated runs are
    bit-identical. Residuals are checked against 1e-8 * ||H||_1 per pair. A
    complex operator is refused: fold it with ``real_form`` first. The
    charge basis comes here in CSR, and the product sectors that
    ``_solve_by_sector`` does not give to ``_davidson_lowest`` come dense.
    """
    if np.iscomplexobj(operator):
        raise ValueError("solve_lowest takes a real symmetric operator: fold a complex one with real_form first")
    n = np.shape(operator)[0]
    if not (0 < k < n):
        raise ValueError(f"need 0 < k < dimension, got k={k}, dimension={n}")

    if sp.issparse(operator):
        try:
            vals, vecs = spla.eigsh(operator, k=k, which="SA", v0=np.random.default_rng(0).standard_normal(n))
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"eigensolver did not converge ({len(exc.eigenvalues)} of {k} pairs)") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        scale = spla.norm(operator, 1)
    else:
        vals, vecs = sla.eigh(operator, subset_by_index=[0, k - 1])
        scale = sla.norm(operator, 1)  # LAPACK's norm copies no dense matrix
    _require_residuals(operator, vals, vecs, _RESIDUAL_FACTOR * scale)
    return vals, vecs


def _require_residuals(operator, vals: np.ndarray, vecs: np.ndarray, tol: float, where: str = "") -> None:
    """The contract of every solve: ||H x - theta x|| is at most ``tol`` for each pair, checked on H itself.

    ``where`` is appended to "exceed contract" in the ``SolverError`` message.
    """
    residuals = np.linalg.norm(operator @ vecs - vecs * vals[np.newaxis, :], axis=0)
    if not np.all(residuals <= tol):  # a NaN residual fails too
        raise SolverError(
            f"eigenpair residuals exceed contract{where}: max {residuals.max():.3e} > {tol:.3e}"
        )


def _davidson_lowest(ham: np.ndarray, k: int):
    """Lowest-k eigenpairs of a dense real symmetric product sector by block Davidson, ascending.

    The sector is written on the block eigenbases, so its diagonal dominates.
    The search space starts from the unit vectors on the k + ``_DAVIDSON_EXTRA``
    lowest diagonal entries, so the result depends on H alone; their H-products
    are the matching columns of H, gathered, not multiplied. The space, its
    H-products and the Rayleigh matrix B^T H B live in arrays sized for
    ``_DAVIDSON_RESTART`` times the start block, and each new direction adds
    its own rows to that matrix, so it is never formed anew. Each iteration
    solves H on the space (Rayleigh-Ritz), forms the lowest k Ritz vectors and
    adds the corrections r / (theta - diag H) of those not yet within the
    contract of ``solve_lowest``, 1e-8 * ||H||_1, each projected out of the
    space twice and the set orthonormalized by a rank-revealing QR that drops
    any correction left almost inside the space; a space that would outgrow
    its arrays restarts from the lowest k + ``_DAVIDSON_EXTRA`` Ritz vectors,
    whose Rayleigh matrix is the diagonal of their Ritz values. It stops once
    every residual is within the contract, or after
    ``_DAVIDSON_MAX_ITERATIONS``, and the contract is then checked on H:
    ``SolverError`` names the iterations.
    """
    block, diagonal = k + _DAVIDSON_EXTRA, np.diag(ham)
    tol = _RESIDUAL_FACTOR * sla.norm(ham, 1)
    dim, width = ham.shape[0], _DAVIDSON_RESTART * block
    basis, applied, rayleigh = np.zeros((dim, width)), np.empty((dim, width)), np.zeros((width, width))
    start = np.argsort(diagonal, kind="stable")[:block]
    basis[start, np.arange(block)] = 1.0
    applied[:, :block] = ham[:, start]
    rayleigh[:block, :block] = applied[start, :block]
    size = block
    for iteration in range(1, _DAVIDSON_MAX_ITERATIONS + 1):
        # eigh reads the lower triangle: row i holds direction i's products with itself and every earlier direction
        theta, coeffs = np.linalg.eigh(rayleigh[:size, :size])
        theta, coeffs = theta[:block], coeffs[:, :block]
        ritz = basis[:, :size] @ coeffs[:, :k]
        residuals = applied[:, :size] @ coeffs[:, :k] - ritz * theta[:k]
        pending = np.linalg.norm(residuals, axis=0) > tol
        if not pending.any() or iteration == _DAVIDSON_MAX_ITERATIONS:
            break
        gaps = theta[:k][pending] - diagonal[:, None]
        gaps[np.abs(gaps) < tol] = tol  # a diagonal entry at a Ritz value would divide by zero
        corrections = residuals[:, pending] / gaps
        corrections /= np.linalg.norm(corrections, axis=0)
        if size + corrections.shape[1] > width:
            basis[:, :block], applied[:, :block] = basis[:, :size] @ coeffs, applied[:, :size] @ coeffs
            rayleigh[:block, :block] = np.diag(theta)
            size = block
        space = basis[:, :size]
        for _ in range(2):
            corrections -= space @ (space.T @ corrections)
        # a correction almost inside the space and the others (a degenerate pair gives two parallel ones) would add
        # a direction of rounding only, not orthogonal to the space
        corrections, r, _ = sla.qr(corrections, mode="economic", pivoting=True)
        corrections = corrections[:, np.abs(np.diag(r)) > _DAVIDSON_MIN_NEW]
        grown = size + corrections.shape[1]
        basis[:, size:grown], applied[:, size:grown] = corrections, ham @ corrections
        rayleigh[size:grown, :grown] = corrections.T @ applied[:, :grown]
        size = grown
    vals, vecs = theta[:k], ritz
    _require_residuals(ham, vals, vecs, tol, f" at block Davidson iteration {iteration} of {_DAVIDSON_MAX_ITERATIONS}")
    return vals, vecs


def _assign_labels(overlaps: np.ndarray):
    """Labels from |<product|eigenstate>|^2 of shape (k, 3, 3, 6) by the overlap-maximizing unique assignment.

    ``ChargeBasisConfig`` bounds k to the 54 products, so every eigenstate gets its own label.
    Where each state's largest overlap lies on a different product, those
    products are the assignment, since they reach the bound, the sum of the
    row maxima; only where two states share one is a matching solved.
    """
    k = overlaps.shape[0]
    shape = overlaps.shape[1:]
    flat = overlaps.reshape(k, -1)
    products = flat.argmax(axis=1)
    if np.unique(products).size < k:
        # the maximum-weight full matching: CSR drops exact zeros (parity makes many overlaps 0), and csgraph
        # takes each stored entry as an edge, so the overlaps are shifted by 1, which adds k to every full matching
        _, products = min_weight_full_bipartite_matching(sp.csr_array(1.0 + flat), maximize=True)
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
        # overlaps shown at three decimals, so a last-digit change leaves the message alone
        shown = ", ".join(
            f"{occ}: [" + ", ".join(f"({s}, {o:.3f})" for s, o in best) + "]" for occ, best in candidates.items()
        )
        raise LabelingError(
            f"required computational labels unassigned: {missing}; "
            f"best candidate states (index, overlap): {{{shown}}}",
            candidates=candidates,
        )
    return tuple(labels)


def label_states(eigvecs, blocks: BlockHamiltonians):
    """Label charge-basis eigenstates by the overlap-maximizing unique assignment to block eigenstate products.

    The block eigenstates come from the product backend's ``_block_eigh``,
    mapped back from the real form; the overlaps are |<product|eigenstate>|^2
    on the first ``LABEL_LEVELS`` of each block.
    """
    k = eigvecs.shape[1]
    tensor = np.ascontiguousarray(eigvecs.T).reshape(k, *(mode.shape[0] for mode in blocks.modes))
    for mode, n in zip(blocks.modes, LABEL_LEVELS):
        basis = from_real_form(_block_eigh(mode, False)[1][:, :n])
        tensor = np.tensordot(tensor, basis.conj(), axes=([1], [0]))
    return _assign_labels(np.abs(tensor) ** 2)


def charge_spectrum(params: CircuitParams, flux, cfg: ChargeBasisConfig) -> SpectrumResult:
    """The oracle: solve the four-node charge-basis operator in its real form and label it.

    A complex operator is folded by ``real_form``, and the eigenvectors are
    mapped back by ``from_real_form``. The lowest k + 2 states are solved and
    the lowest k kept, so a k-th state that cuts a near-degenerate multiplet
    shows: ``SolverError`` when E_k - E_{k-1} is at most the residual
    tolerance 1e-8 * ||H||_1 of the solved real operator, since which states
    of the multiplet are kept would then follow the start vector.
    """
    blocks, operator = assemble_hamiltonian(params, flux, cfg)
    folded = np.iscomplexobj(operator)
    if folded:
        operator = real_form(operator)  # rebinding frees the complex operator before Lanczos
    k = cfg.num_eigenstates
    vals, vecs = solve_lowest(operator, k + 2)
    gap, tol = vals[k] - vals[k - 1], _RESIDUAL_FACTOR * spla.norm(operator, 1)
    if gap <= tol:
        raise SolverError(
            f"the lowest {k} charge-basis states cut a near-degenerate multiplet: "
            f"E_{k} - E_{k - 1} = {gap:.3e} GHz, within the residual tolerance {tol:.3e} GHz"
        )
    vals, vecs = vals[:k], vecs[:, :k]
    if folded:
        vecs = from_real_form(vecs)
    return SpectrumResult(
        flux=float(flux),
        n_max=cfg.n_max,
        eigenfrequencies_ghz=vals - vals[0],
        labels=label_states(vecs, blocks),
        backend="charge",
    )


@dataclass(frozen=True)
class _ProductBlocks:
    """The three blocks fully diagonalized, with the cross-block couplings on their eigenbases.

    ``energies`` holds every eigenvalue of node 1, node 2 and the coupler
    block, and ``reach`` how many levels of each a product up to the largest
    cutoff can hold. Each entry (i, j, scale, left, right) of ``couplings``
    is a cross term scale * left (x) right that H subtracts, on blocks i < j
    and diagonal in the third; each factor maps the reach of its block (the
    columns) to all its levels. ``gap_tol`` is the residual tolerance of the
    largest block. Where every block is real, ``parities`` holds each level's
    charge-reflection parity (+1 even, -1 odd) per block, and None elsewhere.
    """

    energies: tuple[np.ndarray, np.ndarray, np.ndarray]
    reach: tuple[int, int, int]
    couplings: tuple[tuple[int, int, float, np.ndarray, np.ndarray], ...]
    gap_tol: float
    parities: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def real_form(mat):
    """The real symmetric matrix of a dense or CSR operator H with P H P = H* on the basis of the module docstring.

    With h = dim // 2, A = H[:h, :h], B = H[:h, h+1:] with its columns
    reversed and c = H[:h, h], the result is

        [[Re A + Re B,    sqrt2 Re c,  Im B - Im A ],
         [sqrt2 Re c^T,   H_hh,        sqrt2 Im c^T],
         [(Im B - Im A)^T, sqrt2 Im c, Re A - Re B ]],

    in the operator's own kind (CSR or dense). Only the top h + 1 rows are
    read, so the result represents H only where P H P = H* holds, which
    ``hamiltonian`` makes exact for every operator and block it builds. A CSR
    result holds no explicit zero and sorted column indices.
    """
    h = mat.shape[0] // 2
    a, b, c = mat[:h, :h], mat[:h, h + 1 :][:, ::-1], mat[:h, h : h + 1]
    mixed = b.imag - a.imag
    even, odd = _SQRT2 * c.real, _SQRT2 * c.imag
    blocks = [
        [a.real + b.real, even, mixed],
        [even.T, mat[h : h + 1, h : h + 1].real, odd.T],
        [mixed.T, odd, a.real - b.real],
    ]
    if sp.issparse(mat):
        folded = sp.bmat(blocks, format="csr")
        folded.eliminate_zeros()
        return folded
    folded, edges = np.empty(mat.shape), (0, h, h + 1, mat.shape[0])
    for row, line in enumerate(blocks):
        for col, block in enumerate(line):
            folded[edges[row] : edges[row + 1], edges[col] : edges[col + 1]] = block
    return folded


def from_real_form(vectors: np.ndarray) -> np.ndarray:
    """Map column vectors on the real-form basis back to the charge basis."""
    h = vectors.shape[0] // 2
    out = np.empty(vectors.shape, dtype=np.complex128)
    top = out[:h]
    top.real = vectors[:h]
    top.imag = vectors[h + 1 :]
    top /= _SQRT2
    out[h] = vectors[h]
    np.conjugate(top[::-1], out=out[h + 1 :])
    return out


def _real_charge(vecs: np.ndarray, charges: np.ndarray, count: int) -> np.ndarray:
    """N with n = i N for a node charge, from the first ``count`` real-form eigenvectors of a block to all of them.

    On the real-form basis a charge diagonal ``charges``, odd under the
    reflection, is i [[0, 0, D], [0, 0, 0], [-D, 0, 0]] with D its first
    dim // 2 entries.
    """
    h = vecs.shape[0] // 2
    top = charges[:h, None]
    even, odd = vecs[:h], vecs[h + 1 :]
    return even.T @ (top * odd[:, :count]) - odd.T @ (top * even[:, :count])


def _block_eigh(mode: np.ndarray, split: bool):
    """All eigenpairs of a block's real form, ascending, and with ``split`` each level's parity.

    A real block's real form is block-diagonal in its two parity sectors.
    Split, each sector is solved apart, so every eigenvector is exactly zero
    outside its sector and is tagged +1 (even) or -1 (odd).
    """
    folded = real_form(mode)
    if not split:
        return (*np.linalg.eigh(folded), None)
    h1 = folded.shape[0] // 2 + 1
    (even_vals, even_vecs), (odd_vals, odd_vecs) = np.linalg.eigh(folded[:h1, :h1]), np.linalg.eigh(folded[h1:, h1:])
    vals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(vals, kind="stable")
    parity = np.repeat([1, -1], [even_vals.size, odd_vals.size])
    # each sector's eigenvectors go straight to their sorted columns of one zero array
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vecs = np.zeros(folded.shape)
    vecs[:h1, column[: even_vals.size]], vecs[h1:, column[even_vals.size :]] = even_vecs, odd_vecs
    return vals[order], vecs, parity[order]


def _product_blocks(params: CircuitParams, flux, cfg: ChargeBasisConfig, e_max: float) -> _ProductBlocks:
    """Diagonalize the blocks for products up to ``e_max`` GHz of summed excitation.

    Where every block is real (flux 0 or 1/2) each is solved by parity
    sector, so the cross factors are exactly 0 between levels of equal parity.
    """
    blocks, _ = assemble_blocks(params, flux, cfg)
    split = not any(np.iscomplexobj(mode) for mode in blocks.modes)
    (e1, v1, p1), (e2, v2, p2), (e34, v34, p34) = (_block_eigh(mode, split) for mode in blocks.modes)
    m1, m2, mc = (
        max(int(np.searchsorted(e - e[0], e_max, side="right")), levels)
        for e, levels in zip((e1, e2, e34), LABEL_LEVELS)
    )
    # the node charges, and the coupler's (n3, n4) on the rows of v34, in the builder's basis order
    charges, (q3, q4) = charge_grid(cfg.n_max, 1)[:, 0], charge_grid(cfg.n_max, 2).T
    n3, n4 = _real_charge(v34, q3, mc), _real_charge(v34, q4, mc)
    ec = blocks.ec
    n1, n2 = _real_charge(v1, charges, m1), _real_charge(v2, charges, m2)
    # the cross terms -2 Ec_12 N1 N2 - N1 X - N2 Y, with the real node charges N (n = i N)
    x, y = 2.0 * (ec[0, 2] * n3 + ec[0, 3] * n4), 2.0 * (ec[1, 2] * n3 + ec[1, 3] * n4)
    return _ProductBlocks(
        energies=(e1, e2, e34),
        reach=(m1, m2, mc),
        couplings=((0, 1, 2.0 * float(ec[0, 1]), n1, n2), (0, 2, 1.0, n1, x), (1, 2, 1.0, n2, y)),
        gap_tol=_RESIDUAL_FACTOR * max(np.abs(mode).sum(axis=0).max() for mode in blocks.modes),
        parities=(p1, p2, p34) if split else None,
    )


def _product_hamiltonian(blocks: _ProductBlocks, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dense H on the kept products (a[i], b[i], c[i]).

    The diagonal holds the block energies. Each term of
    ``blocks.couplings`` is diagonal in its third block, so it is subtracted
    one group of products sharing that block's index at a time, as the outer
    product of its two scaled block matrices restricted to the group. One
    stable sort per term finds its groups, and each square sub-matrix is
    read and written by one gather on flat positions: entry (p, q) of a
    C-ordered matrix of n columns sits at p * n + q.
    """
    e1, e2, e34 = blocks.energies
    ham = np.diag(e1[a] + e2[b] + e34[c])
    flat, levels = ham.reshape(-1), (a, b, c)
    for i, j, scale, left, right in blocks.couplings:
        shared, left = levels[3 - i - j], scale * left
        order = np.argsort(shared, kind="stable")  # each group's products stay in ascending order
        edges = [0, *(np.flatnonzero(np.diff(shared[order])) + 1), order.size]
        li, lj = levels[i][order], levels[j][order]
        rows_i, rows_j, rows = li * left.shape[1], lj * right.shape[1], order * a.size
        for group in map(slice, edges, edges[1:]):
            term = left.take(rows_i[group, None] + li[group]) * right.take(rows_j[group, None] + lj[group])
            flat[rows[group, None] + order[group]] -= term
    return ham


def _solve_by_sector(blocks: _ProductBlocks, a: np.ndarray, b: np.ndarray, c: np.ndarray, k: int):
    """Lowest k eigenpairs of H on the kept products, solved one sector of total parity at a time.

    Where the blocks carry parities, each cross term flips two of them, so H
    conserves p1[a] p2[b] p34[c] and splits exactly into an even and an odd
    sector; elsewhere the kept products are one sector. The lowest k of each
    sector are merged and the lowest k overall kept, with eigenvectors zero
    outside their sector. Each sector's dense matrix goes straight to LAPACK
    (``solve_lowest``) or, above ``_SPARSE_MIN_PRODUCTS`` products, to block
    Davidson (``_davidson_lowest``). A sector of at most k products, one or
    two, raises ``SolverError``. Also returns the (even, odd) sector sizes,
    or None for one sector.
    """
    if blocks.parities is None:
        sectors, sizes = [np.arange(a.size)], None
    else:
        p1, p2, p34 = blocks.parities
        total = p1[a] * p2[b] * p34[c]
        sectors = [np.flatnonzero(total == sign) for sign in (1, -1)]
        sizes = tuple(int(rows.size) for rows in sectors)
    if min(rows.size for rows in sectors) <= k:
        held = f"the product basis holds {a.size} products"
        if sizes is not None:
            held = f"a parity sector of the product basis holds {min(sizes)} products (even {sizes[0]}, odd {sizes[1]})"
        raise SolverError(f"{held}, too few for its lowest {k} states")
    vals, vecs = np.empty(len(sectors) * k), np.zeros((a.size, len(sectors) * k))
    for sector, rows in enumerate(sectors):
        found = slice(sector * k, (sector + 1) * k)
        solve = _davidson_lowest if rows.size > _SPARSE_MIN_PRODUCTS else solve_lowest
        vals[found], vecs[rows, found] = solve(_product_hamiltonian(blocks, a[rows], b[rows], c[rows]), k)
    order = np.argsort(vals, kind="stable")[:k]
    return vals[order], vecs[:, order], sizes


def _cross_terms(states: np.ndarray, blocks: _ProductBlocks, rows: tuple[int, int, int]) -> np.ndarray:
    """Minus V, the sum of ``blocks.couplings``, on coefficient tensors over the levels of ``blocks.reach``.

    The result holds the first ``rows[k]`` levels of each block k, at least
    its reach: a term reaches all ``rows`` of its two blocks and the reach of
    the third, on which it is diagonal.
    """
    out = np.zeros((len(states), *rows))
    for i, j, scale, left, right in blocks.couplings:
        # axis 1 + k of the states is block k: each factor takes its block's reach to its rows
        region = (slice(None), *(slice(None if k in (i, j) else m) for k, m in enumerate(blocks.reach)))
        term = _along_axis(right[: rows[j]], _along_axis(left[: rows[i]], states, 1 + i), 1 + j)
        term *= scale
        out[region] += term
        del term  # scaled in place and freed here, so no second out-sized array lives through a contraction
    return out


def _along_axis(factor: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    """sum_m factor[r, m] tensor[..., m, ...] over one axis of ``tensor``, with r in its place, as one matmul."""
    if axis == tensor.ndim - 1:
        return tensor @ factor.T
    shape = tensor.shape
    out = factor @ tensor.reshape(math.prod(shape[:axis]), shape[axis], -1)
    return out.reshape(*shape[:axis], factor.shape[0], *shape[axis + 1 :])


def _left_out_corrections(states: np.ndarray, energies: np.ndarray, blocks: _ProductBlocks, kept: np.ndarray):
    """Second-order shifts (GHz) of product-basis eigenstates from the products left out, and their third order.

    ``states`` holds eigenvectors as coefficient tensors over the levels of
    ``blocks.reach``, and ``energies`` their eigenvalues; ``kept`` marks the
    kept products among all. The terms of ``blocks.couplings`` carry the
    states to the left-out products q, whose unperturbed energies E_q are
    sums of block energies; each state psi of energy E shifts by
    -sum_q |<q|V|psi>|^2 / (E_q - E). ``_cross_terms`` forms minus V, a sign
    that drops out of |<q|V|psi>|^2.

    Also returns a call that computes, from the same <q|V|psi>, the next term
    of this Loewdin partitioning, E(3) = sum_{q, q'} w_q <q|V|q'> w_q' over
    the left-out products q, q' of the reach, with w_q = <q|V|psi> / (E - E_q).
    It estimates what the second-order shift leaves out, and so the accuracy
    of a cutoff that the second-order bound refuses.
    """
    e1, e2, e34 = blocks.energies
    amp = _cross_terms(states, blocks, (e1.size, e2.size, e34.size))
    amp[:, kept] = 0.0
    unperturbed = e1[:, None, None] + e2[None, :, None] + e34[None, None, :]
    shifts = []
    for weights, energy in zip(amp**2, energies):
        coupled = weights > 0
        gaps = unperturbed[coupled] - energy
        if np.any(gaps <= 0):
            raise TruncationError(
                f"a left-out product state ({unperturbed[coupled][gaps <= 0].min():.4f} GHz) couples to "
                f"a kept eigenstate above it ({energy:.4f} GHz)"
            )
        shifts.append(-np.sum(weights[coupled] / gaps))

    def third_order() -> np.ndarray:
        m1, m2, mc = blocks.reach
        near = amp[:, :m1, :m2, :mc]
        # minus V carries psi to q, and E_q - E flips the gap's sign: w is <q|V|psi> / (E - E_q),
        # or 0 where <q|V|psi> is, every kept q among them
        gaps = unperturbed[:m1, :m2, :mc] - energies[:, None, None, None]
        weights = np.divide(near, gaps, out=np.zeros_like(near), where=near != 0)
        return -np.einsum("sabc,sabc->s", weights, _cross_terms(weights, blocks, blocks.reach))

    return np.array(shifts), third_order


def _product_solve(blocks: _ProductBlocks, e_cut: float, flux, cfg: ChargeBasisConfig):
    """Labeled spectrum on the products with summed excitation energy up to ``e_cut`` GHz.

    ``e_cut`` is at most the ``e_max`` the blocks were built for. The label
    corner is always kept. The computational levels carry their
    second-order shifts from the products left out, which are also
    returned, in ``COMPUTATIONAL_OCCUPATIONS`` order, with a call that
    computes their third-order terms on demand (``_left_out_corrections``).
    """
    e1, e2, e34 = blocks.energies
    excitation = (e1 - e1[0])[:, None, None] + (e2 - e2[0])[None, :, None] + (e34 - e34[0])[None, None, :]
    below = excitation <= e_cut
    if not below.all():
        gap = excitation[~below].min() - excitation[below].max()
        if gap < blocks.gap_tol:
            raise SolverError(
                f"the product basis cut at E_cut = {e_cut:g} GHz splits a near-degenerate pair of products "
                f"(gap {gap:.3e} GHz < {blocks.gap_tol:.3e}); the result would depend on the block bases"
            )
    kept = below.copy()
    kept[: LABEL_LEVELS[0], : LABEL_LEVELS[1], : LABEL_LEVELS[2]] = True
    a, b, c = np.nonzero(kept)

    vals, vecs, sectors = _solve_by_sector(blocks, a, b, c, cfg.num_eigenstates)
    # each eigenvector as a coefficient tensor over the levels of blocks.reach
    tensor = np.zeros((vals.size, *blocks.reach))
    tensor[:, a, b, c] = vecs.T
    labels = _assign_labels(tensor[:, : LABEL_LEVELS[0], : LABEL_LEVELS[1], : LABEL_LEVELS[2]] ** 2)

    computational = [[label.occupations for label in labels].index(occ) for occ in COMPUTATIONAL_OCCUPATIONS]
    tensor, energies = tensor[computational], vals[computational]  # rebinding frees the other rows
    shifts, third_order = _left_out_corrections(tensor, energies, blocks, kept)
    vals[computational] += shifts
    spec = SpectrumResult(
        flux=float(flux),
        n_max=cfg.n_max,
        eigenfrequencies_ghz=vals - vals[0],
        labels=labels,
        backend="product",
        e_cut_ghz=float(e_cut),
        kept_states=int(a.size),
        sector_states=sectors,
    )
    return spec, shifts, third_order


def _zeta_khz(energies) -> float:
    """zeta (kHz) of the four computational energies (GHz) in ``COMPUTATIONAL_OCCUPATIONS`` order."""
    e000, e100, e010, e110 = energies
    return (e110 - e100 - e010 + e000) * 1e6


def product_spectrum(params: CircuitParams, flux, cfg: ChargeBasisConfig) -> SpectrumResult:
    """Spectrum on the block-product basis below the first cutoff whose left-out remainder is small enough.

    The blocks are diagonalized once, for the largest cutoff. Each cutoff of
    ``_E_CUT_LADDER`` in turn solves the products up to it with the
    second-order correction from those left out. A cutoff whose correction
    is above ``_MAX_LEVEL_CORRECTION_GHZ`` on a computational frequency is
    refused. Otherwise it is accepted when its correction to zeta is at
    most its ladder bound, or else, where the ladder gives a bound on the
    third-order estimate of what that correction leaves out and the
    correction is at most ``_MAX_ESTIMATED_CORRECTION_KHZ``, when that
    estimate is at most its bound on zeta. Nothing is compared between
    cutoffs, and the levels stay second-order values. The accepted |zeta
    correction| is recorded as ``truncation_khz``, and |zeta(3)| as
    ``remainder_khz`` where it was computed. ``TruncationError`` names the
    last cutoff, its corrections and their bounds when none is accepted,
    and the last third-order estimate.
    """
    blocks = _product_blocks(params, flux, cfg, _E_CUT_LADDER[-1][0])
    estimate = ""
    for e_cut, max_zeta_khz, max_remainder_khz in _E_CUT_LADDER:
        spec, shifts, third_order = _product_solve(blocks, e_cut, flux, cfg)
        zeta_khz, level_ghz = abs(_zeta_khz(shifts)), float(np.abs(shifts[1:] - shifts[0]).max())
        if level_ghz > _MAX_LEVEL_CORRECTION_GHZ:
            continue
        if zeta_khz <= max_zeta_khz:
            return replace(spec, truncation_khz=zeta_khz)
        if max_remainder_khz is not None and zeta_khz <= _MAX_ESTIMATED_CORRECTION_KHZ:
            remainder_khz = abs(_zeta_khz(third_order()))
            if remainder_khz <= max_remainder_khz:
                return replace(spec, truncation_khz=zeta_khz, remainder_khz=remainder_khz)
            estimate = (
                f"; its third-order estimate at E_cut = {e_cut:g} GHz is {remainder_khz:.3g} kHz on zeta "
                f"(bound {max_remainder_khz:g} kHz)"
            )
    raise TruncationError(
        f"product basis not settled at E_cut = {e_cut:g} GHz: its second-order correction is {zeta_khz:.3g} kHz "
        f"on zeta (bound {max_zeta_khz:g} kHz) and up to {level_ghz:.3g} GHz on the computational frequencies "
        f"(bound {_MAX_LEVEL_CORRECTION_GHZ:g} GHz){estimate}"
    )


def spectrum_at(params: CircuitParams, flux, cfg: ChargeBasisConfig) -> SpectrumResult:
    """Solve, label and ground-reference the spectrum at one flux.

    The product backend answers unless it raises ``TruncationError``; then
    the charge-basis oracle solves the point and the result records why in
    ``fallback``.
    """
    try:
        return product_spectrum(params, flux, cfg)
    except TruncationError as exc:
        return replace(charge_spectrum(params, flux, cfg), fallback=str(exc))


def _zeta_from_spectrum(spec: SpectrumResult) -> float:
    energies = []
    for occ in COMPUTATIONAL_OCCUPATIONS:
        freq, label = spec.level(occ)
        if label.ambiguous:
            raise LabelingError(
                f"label {occ} is ambiguous (overlap {label.overlap:.3f} < {AMBIGUITY_THRESHOLD})",
                spectrum=spec,
            )
        energies.append(freq)
    return _zeta_khz(energies)


def zz_interaction(params: CircuitParams, flux, cfg: ChargeBasisConfig) -> float:
    """ZZ interaction zeta/2pi (kHz) at one flux, from the labeled eigenenergies of ``spectrum_at``.

    An ambiguous computational label raises ``LabelingError`` with the
    spectrum attached. The value is for ``cfg.n_max`` alone; whether that
    basis is large enough is what ``convergence_study`` answers.
    """
    return _zeta_from_spectrum(spectrum_at(params, flux, cfg))


def sweep_flux(params: CircuitParams, grid, cfg: ChargeBasisConfig):
    """Spectra and zeta over a flux grid in [-0.5, 0.5], one solve per distinct |phi|.

    H(-phi) = H(phi)*, so both fluxes have one spectrum. The grid is grouped
    by |phi| rounded to ``FLUX_KEY_DECIMALS``. Each group is solved once, at
    its smallest non-negative member or, when it has none, at minus its
    largest, so the result does not depend on grid order. Every row of the
    group gets that result, with its own ``phi_ex`` and ``spectrum.flux``: a
    row at -phi copies the row at +phi.

    Per-point failures are recorded in the row and the sweep continues. A
    failed group copies its error text to each of its rows.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("flux grid must be non-empty")
    if not np.all(np.abs(grid) <= 0.5 + 1e-12):  # NaN fails the comparison too
        raise ValueError("flux grid must lie within [-0.5, 0.5]")
    fluxes = grid.tolist()
    keys = [round(abs(phi), FLUX_KEY_DECIMALS) for phi in fluxes]
    groups = {}
    for key, phi in zip(keys, fluxes):
        groups.setdefault(key, []).append(phi)
    solved = {}
    for key, members in groups.items():
        non_negative = [phi for phi in members if phi >= 0.0]
        phi = min(non_negative) if non_negative else -max(members)
        try:
            spec = spectrum_at(params, phi, cfg)
            solved[key] = (_zeta_from_spectrum(spec), spec, None)
        except (LabelingError, SolverError) as exc:
            solved[key] = (None, None, str(exc))
    points = []
    for key, phi in zip(keys, fluxes):
        zeta, spec, error = solved[key]
        points.append(FluxSweepPoint(phi, zeta, spec if spec is None else replace(spec, flux=phi), error))
    return points


def sweep_c34(params: CircuitParams, c34_grid_ff, cfg: ChargeBasisConfig):
    """zeta versus the shunt capacitance at zero flux, with the two-mode prediction (which assumes it) alongside."""
    grid = np.asarray(c34_grid_ff, dtype=float)
    if grid.size == 0:
        raise ValueError("C34 grid must be non-empty")
    trials = [params.with_c34(float(c34)) for c34 in grid]  # refuses a negative or non-finite C34 up front
    points = []
    for trial in trials:
        pert = perturbative.two_mode_reduction(trial)
        try:
            zeta = zz_interaction(trial, 0.0, cfg)
            points.append(C34SweepPoint(trial.c34, zeta, pert.zeta_pert_khz, pert.system.g12, None))
        except (LabelingError, SolverError) as exc:
            points.append(C34SweepPoint(trial.c34, None, pert.zeta_pert_khz, pert.system.g12, str(exc)))
    return points


def convergence_study(params: CircuitParams, flux, cfg: ChargeBasisConfig, n_max_values):
    """``zz_interaction`` at each n_max, with everything else of ``cfg`` kept, and the successive deltas.

    Every n_max is checked before the first solve. The basis counts as
    converged when the last delta is below ``ZETA_GATE_KHZ``, the 0.1 kHz gate.
    """
    configs = [replace(cfg, n_max=n_max) for n_max in n_max_values]
    values = [config.n_max for config in configs]
    if len(values) < 2:
        raise ValueError("need at least two n_max values")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("n_max values must be strictly ascending")
    zetas = [zz_interaction(params, flux, config) for config in configs]
    deltas = tuple(abs(b - a) for a, b in zip(zetas, zetas[1:]))
    return ConvergenceStudy(tuple(values), tuple(zetas), deltas, converged=bool(deltas[-1] < ZETA_GATE_KHZ))


# --- CSV artifacts --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    """One header row, then one row per point."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_spectrum_csv(points, path) -> None:
    """Flux sweep of the four computational levels with label overlaps."""
    # q1, q2, then "00" for the coupler ground state
    tags = [f"{q1}{q2}00" for q1, q2, _ in COMPUTATIONAL_OCCUPATIONS]
    header = ["phi_ex"] + [f"E_{tag}_GHz" for tag in tags] + [f"overlap_{tag}" for tag in tags]

    def row(point):
        if point.spectrum is None:
            return [_fmt(point.phi_ex)] + [""] * 2 * len(tags)
        levels = [point.spectrum.level(occ) for occ in COMPUTATIONAL_OCCUPATIONS]
        return [_fmt(point.phi_ex)] + [_fmt(freq) for freq, _ in levels] + [_fmt(label.overlap) for _, label in levels]

    _write_csv(path, header, map(row, points))


def write_flux_zz_csv(points, path) -> None:
    rows = ([_fmt(point.phi_ex), _fmt(point.zeta_khz), int(point.zeta_khz is None)] for point in points)
    _write_csv(path, ["phi_ex", "zeta_kHz", "ambiguous_flag"], rows)


def write_c34_zz_csv(points, path) -> None:
    """Shunt-capacitance sweep with both exact and two-mode zeta columns."""
    rows = (
        [
            _fmt(point.c34_ff),
            _fmt(point.zeta_khz),
            _fmt(point.zeta_pert_khz),
            _fmt(point.g12_rad_s / (2.0 * np.pi * 1e6)),
            int(point.zeta_khz is None),
        ]
        for point in points
    )
    _write_csv(path, ["C34_fF", "zeta_exact_kHz", "zeta_pert_kHz", "g12_MHz", "ambiguous_flag"], rows)
