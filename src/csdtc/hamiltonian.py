"""Charge-basis Hamiltonian of the two data qubits and the shunted coupler.

Each node keeps Cooper-pair numbers -n_max..n_max and the full operator lives
on the tensor product in fixed node order (1, 2, 3, 4). H/h in GHz:

    sum_ij Ec_ij n_i n_j  -  sum_i ej_i cos(phi_i)
    -  ej5/2 (exp(-i 2 pi phi_ex) S4+ S3- + h.c.)

The external flux enters only through the phase of the JJ5 hopping term, so
the spectrum is exactly periodic in the reduced flux, and even in it: the
parity map n_i -> -n_i conjugates that phase.

One builder assembles this operator and its three label references: node 1,
node 2, and the coupler block of nodes 3 and 4 joined by JJ5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .circuit import (
    CircuitParams,
    build_capacitance_matrix,
    charging_matrix,
    derive_junction_energies,
)
from .errors import ConfigError

_DIMENSION_CAP = 2_000_000
_REAL_PHASE_TOL = 1e-15


@dataclass(frozen=True)
class ChargeBasisConfig:
    """Charge-basis truncation (per-node -n_max..n_max) and eigenstate count."""

    n_max: int = 7
    num_eigenstates: int = 16

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 3:
            raise ConfigError(f"n_max must be an integer >= 3, got {self.n_max}")
        if int(self.num_eigenstates) != self.num_eigenstates or self.num_eigenstates < 6:
            raise ConfigError(f"num_eigenstates must be an integer >= 6, got {self.num_eigenstates}")
        if self.dimension > _DIMENSION_CAP:
            raise ConfigError(
                f"n_max={self.n_max} gives dimension {self.dimension} beyond the supported {_DIMENSION_CAP}"
            )

    @property
    def states_per_node(self) -> int:
        return 2 * int(self.n_max) + 1

    @property
    def dimension(self) -> int:
        return self.states_per_node**4


@dataclass(frozen=True)
class SparseHamiltonian:
    """Assembled sparse Hermitian operator, H/h in GHz, with its labeling references.

    ``modes`` holds the dense Hamiltonians of the three blocks dressed states
    are labeled against: node 1 (Ec_11 n^2 - ej1 cos phi), node 2, and the
    coupler block of nodes 3 and 4 with all its terms (Ec_33, Ec_44 and
    2 Ec_34 n3 n4 charge terms, ej3, ej4 and JJ5 at the flux phase). With the
    cross-block charge terms removed, ``matrix`` is their Kronecker sum.
    """

    matrix: sp.csr_matrix
    n_max: int
    phi_ex: float
    modes: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def single_mode_operators(n_max: int):
    """Charge, cosine and raising-shift operators for one node.

    The shift S+ maps |n> to |n+1> with hard truncation at the top state;
    cos(phi) = (S+ + S-)/2.
    """
    if int(n_max) != n_max or n_max < 1:
        raise ConfigError(f"n_max must be an integer >= 1, got {n_max}")
    size = 2 * int(n_max) + 1
    charge = sp.diags(np.arange(-n_max, n_max + 1, dtype=float)).tocsr()
    raise_op = sp.diags(np.ones(size - 1), -1).tocsr()
    cosine = sp.diags([np.full(size - 1, 0.5), np.full(size - 1, 0.5)], [-1, 1]).tocsr()
    return charge, cosine, raise_op


def _kron(ops) -> sp.csr_matrix:
    out = ops[0]
    for op in ops[1:]:
        out = sp.kron(out, op, format="csr")
    return out


def _charge_grid(n_max: int, nodes: int) -> np.ndarray:
    """(size**nodes, nodes) table of charge numbers per node, kron (C) ordering."""
    nvals = np.arange(-n_max, n_max + 1, dtype=float)
    grids = np.meshgrid(*([nvals] * nodes), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _build_block(ec: np.ndarray, node_ej, n_max: int, phi: float, ej5: float | None = None) -> sp.csr_matrix:
    """Charge quadratic form and node cosines of a block of nodes, in kron order.

    ``ec`` is the block's charging sub-matrix and ``node_ej`` its node
    Josephson energies; with ``ej5`` a JJ5 joins the block's last two nodes
    at the flux phase.
    """
    nodes = len(node_ej)
    size = 2 * n_max + 1
    grid = _charge_grid(n_max, nodes)
    diag = np.einsum("ia,ab,ib->i", grid, ec, grid)
    ham = sp.diags(diag).tocsr()

    eye = sp.identity(size, format="csr")
    _, cosine, raise_op = single_mode_operators(n_max)
    for slot, ej_i in enumerate(node_ej):
        ops = [eye] * nodes
        ops[slot] = cosine
        ham = ham - ej_i * _kron(ops)

    if ej5 is not None:
        # JJ5: -ej5 cos(phi_b - phi_a - 2 pi phi_ex) with S_b+ S_a- on the last two nodes (a, b)
        hop = _kron([eye] * (nodes - 2) + [raise_op.T.tocsr(), raise_op])
        phase = np.exp(-2j * np.pi * phi)
        if abs(phase.imag) < _REAL_PHASE_TOL:
            ham = ham - (ej5 * phase.real / 2.0) * (hop + hop.T)
        else:
            ham = ham.astype(np.complex128) - (ej5 / 2.0) * (phase * hop + np.conj(phase) * hop.T)

    ham = ham.tocsr()
    ham.sum_duplicates()
    return ham


def assemble_hamiltonian(params: CircuitParams, flux: float, cfg: ChargeBasisConfig) -> SparseHamiltonian:
    """Assemble the circuit Hamiltonian and its block label references at the given reduced flux."""
    phi = float(flux)
    if not np.isfinite(phi):
        raise ConfigError(f"flux must be finite, got {phi}")
    n_max = int(cfg.n_max)
    ec = charging_matrix(build_capacitance_matrix(params))  # validates params first
    ej = derive_junction_energies(params)

    ham = _build_block(ec, (ej.ej1, ej.ej2, ej.ej3, ej.ej4), n_max, phi, ej.ej5)
    modes = (
        _build_block(ec[:1, :1], (ej.ej1,), n_max, phi),
        _build_block(ec[1:2, 1:2], (ej.ej2,), n_max, phi),
        _build_block(ec[2:, 2:], (ej.ej3, ej.ej4), n_max, phi, ej.ej5),
    )
    return SparseHamiltonian(matrix=ham, n_max=n_max, phi_ex=phi, modes=tuple(m.toarray() for m in modes))
