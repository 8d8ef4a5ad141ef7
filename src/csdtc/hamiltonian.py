"""Charge-basis Hamiltonian of the two data qubits and the shunted coupler.

Each node keeps Cooper-pair numbers -n_max..n_max and the full operator lives
on the tensor product in fixed node order (1, 2, 3, 4). H/h in GHz:

    sum_ij Ec_ij n_i n_j  -  sum_i ej_i cos(phi_i)
    -  ej5/2 (exp(-i 2 pi phi_ex) S4+ S3- + h.c.)

Basis order. ``charge_grid`` lists the node charges of every basis state in
kron (C) order, so a unit step of node j's charge moves the state index by
its stride (2 n_max + 1)**(nodes - 1 - j). Each term is a diagonal of that
grid: the charging form on the main one, each cosine ej_i/2 (S+ + S-) at
+-stride_i, the JJ5 hop at +-(stride_3 - stride_4). The cut at +-n_max is
hard: a step off the grid has no entry.

The external flux enters only through the phase of the JJ5 hopping term, so
the spectrum is exactly periodic in the reduced flux, and even in it: the
parity map n_i -> -n_i conjugates that phase. In kron order that map is the
index reflection P: i -> dim - 1 - i, and P H P = H* holds bit for bit at
every flux, for the four-node operator and for each block alike: the
charging form on the main diagonal is even under n -> -n, each hop's row
mask is mirror-symmetric, and each lower diagonal is the conjugate of its
upper one. The real form of ``spectrum`` relies on it unchecked; the tests
prove it.

One builder, ``_block_diagonals``, gives the diagonals of this operator and
of its three blocks: node 1, node 2, and the coupler block of nodes 3 and 4
joined by JJ5. The four-node operator is converted from them to CSR
(``_build_block``), and each block is written from them into a dense array
(``_dense_block``), which no sparse matrix passes through. ``assemble_blocks``
returns the blocks with the charging matrix (``BlockHamiltonians``) and the
junction energies, without the four-node operator; ``assemble_hamiltonian``
returns the same blocks and the sparse four-node operator as a pair, so
every backend consumes one block bundle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .circuit import (
    CircuitParams,
    JunctionEnergies,
    build_capacitance_matrix,
    charging_matrix,
    derive_junction_energies,
)
from .errors import ConfigError, SolverError

_DIMENSION_CAP = 2_000_000  # four-node operator, built by the charge basis only
_BLOCK_DIMENSION_CAP = 2_500  # the coupler block, solved densely by every backend
_REAL_PHASE_TOL = 1e-15
# dressed labels |Q1, Q2, c>: qubit occupations 0..2, coupler levels 0..5 (ground, the two single-
# and the three double-excitation levels), so at most 3 * 3 * 6 = 54 eigenstates can be labeled
LABEL_LEVELS = (3, 3, 6)
_MAX_EIGENSTATES = int(np.prod(LABEL_LEVELS))


def _is_integer(value) -> bool:
    """Whether ``value`` equals an integer; False, not an exception, for None, NaN or infinity."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class ChargeBasisConfig:
    """Charge-basis truncation (per-node -n_max..n_max) and eigenstate count, stored as ints."""

    n_max: int = 7
    num_eigenstates: int = 16

    def __post_init__(self):
        if not _is_integer(self.n_max) or self.n_max < 3:
            raise ConfigError(f"n_max must be an integer >= 3, got {self.n_max}")
        if not _is_integer(self.num_eigenstates) or not 6 <= self.num_eigenstates <= _MAX_EIGENSTATES:
            raise ConfigError(
                f"num_eigenstates must be an integer from 6 to {_MAX_EIGENSTATES}, the number of dressed "
                f"labels, got {self.num_eigenstates}"
            )
        for name in ("n_max", "num_eigenstates"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.states_per_node**2 > _BLOCK_DIMENSION_CAP:
            raise ConfigError(
                f"n_max={self.n_max} gives a coupler block of dimension {self.states_per_node**2} "
                f"beyond the supported {_BLOCK_DIMENSION_CAP}"
            )

    @property
    def states_per_node(self) -> int:
        return 2 * self.n_max + 1

    @property
    def dimension(self) -> int:
        return self.states_per_node**4


@dataclass(frozen=True)
class BlockHamiltonians:
    """The three blocks of the circuit, H/h in GHz, and the charging matrix that couples them.

    ``modes`` holds the dense Hamiltonians of node 1 (Ec_11 n^2 - ej1 cos phi),
    node 2, and the coupler block of nodes 3 and 4 with all its terms (Ec_33,
    Ec_44 and 2 Ec_34 n3 n4 charge terms, ej3, ej4 and JJ5 at the flux phase).
    The full operator is their Kronecker sum plus the cross-block charge terms
    2 Ec_ij n_i n_j, ij in {12, 13, 14, 23, 24}, of the 4x4 ``ec``. The
    product backend is built from the blocks, and both backends label
    dressed states against them.
    """

    ec: np.ndarray
    modes: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=8)
def charge_grid(n_max: int, nodes: int) -> np.ndarray:
    """(size**nodes, nodes) table of the charge numbers of each basis state, in kron (C) order; cached, read-only."""
    nvals = np.arange(-n_max, n_max + 1, dtype=float)
    grids = np.meshgrid(*([nvals] * nodes), indexing="ij")
    grid = np.stack([g.ravel() for g in grids], axis=1)
    grid.flags.writeable = False
    return grid


def _block_diagonals(ec: np.ndarray, node_ej, n_max: int, phi: float, ej5: float | None = None):
    """Charge quadratic form, node cosines and JJ5 of a block of nodes, as (diagonals, offsets) of its charge grid.

    ``ec`` is the block's charging sub-matrix, whose form n^T ec n fills the
    main diagonal, and ``node_ej`` its node Josephson energies: each cosine
    sits at +-(its node's stride), on the rows whose charge on that node is
    below n_max, the cut at +-n_max. With ``ej5`` a JJ5 joins the block's last
    two nodes (a, b) at the flux phase.
    """
    nodes = len(node_ej)
    grid = charge_grid(n_max, nodes)
    strides = [(2 * n_max + 1) ** (nodes - 1 - slot) for slot in range(nodes)]
    hops = [(stride, -(ej_i / 2.0), grid[:, slot] < n_max) for slot, (stride, ej_i) in enumerate(zip(strides, node_ej))]
    if ej5 is not None:
        # JJ5: -ej5 cos(phi_b - phi_a - 2 pi phi_ex) = -ej5/2 (e^{-2 pi i phi_ex} S_a- S_b+ + h.c.), whose
        # step lowers n_a and raises n_b: offset stride_a - stride_b, on rows with n_a < n_max and n_b > -n_max
        phase = np.exp(-2j * np.pi * phi)
        coupling = -(ej5 / 2.0) * (phase.real if abs(phase.imag) < _REAL_PHASE_TOL else phase)
        hops.append((strides[-2] - strides[-1], coupling, (grid[:, -2] < n_max) & (grid[:, -1] > -n_max)))

    diagonals, offsets = [np.einsum("ia,ab,ib->i", grid, ec, grid)], [0]
    for offset, value, rows in hops:
        # a row-indexed upper diagonal is, conjugated, the column-indexed lower one; each is written from its own
        # value, so a cut entry is a plain zero on both (a conjugated complex zero would carry -0.0)
        rows = rows[: len(grid) - offset]
        diagonals += [np.where(rows, value, 0.0), np.where(rows, np.conj(value), 0.0)]
        offsets += [offset, -offset]
    return diagonals, offsets


def _build_block(ec: np.ndarray, node_ej, n_max: int, phi: float, ej5: float | None = None) -> sp.csr_matrix:
    """The block of ``_block_diagonals`` as a CSR operator."""
    diagonals, offsets = _block_diagonals(ec, node_ej, n_max, phi, ej5)
    # the conversion drops the cut entries but keeps buffers of every stored one; copy them to size
    return sp.diags(diagonals, offsets, dtype=np.result_type(*diagonals), format="csr").copy()


def _dense_block(ec: np.ndarray, node_ej, n_max: int, phi: float, ej5: float | None = None) -> np.ndarray:
    """The block of ``_block_diagonals`` as a dense array, each diagonal written through a view of it."""
    diagonals, offsets = _block_diagonals(ec, node_ej, n_max, phi, ej5)
    dim = diagonals[0].size
    out = np.zeros((dim, dim), dtype=np.result_type(*diagonals))
    for diagonal, offset in zip(diagonals, offsets):
        # the square corner whose main diagonal is the one at this offset
        corner = out[max(-offset, 0) :, max(offset, 0) :][: diagonal.size, : diagonal.size]
        np.einsum("ii->i", corner)[...] = diagonal
    return out


def assemble_blocks(
    params: CircuitParams, flux: float, cfg: ChargeBasisConfig
) -> tuple[BlockHamiltonians, JunctionEnergies]:
    """The block Hamiltonians and charging matrix, without the four-node operator, and the junction energies."""
    phi = float(flux)
    if not np.isfinite(phi):
        raise ConfigError(f"flux must be finite, got {phi}")
    ec = charging_matrix(build_capacitance_matrix(params))
    ej = derive_junction_energies(params)
    modes = (
        _dense_block(ec[:1, :1], (ej.ej1,), cfg.n_max, phi),
        _dense_block(ec[1:2, 1:2], (ej.ej2,), cfg.n_max, phi),
        _dense_block(ec[2:, 2:], (ej.ej3, ej.ej4), cfg.n_max, phi, ej.ej5),
    )
    return BlockHamiltonians(ec=ec, modes=modes), ej


def assemble_hamiltonian(
    params: CircuitParams, flux: float, cfg: ChargeBasisConfig
) -> tuple[BlockHamiltonians, sp.csr_matrix]:
    """The blocks of ``assemble_blocks`` and the sparse four-node operator at the given reduced flux.

    Raises ``SolverError``, before allocating anything, when the four-node
    operator is larger than the supported dimension.
    """
    if cfg.dimension > _DIMENSION_CAP:
        raise SolverError(
            f"the four-node operator at n_max={cfg.n_max} has dimension {cfg.dimension} "
            f"beyond the supported {_DIMENSION_CAP}"
        )
    blocks, ej = assemble_blocks(params, flux, cfg)
    return blocks, _build_block(blocks.ec, (ej.ej1, ej.ej2, ej.ej3, ej.ej4), cfg.n_max, float(flux), ej.ej5)
