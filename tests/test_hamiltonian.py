import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from csdtc.circuit import build_capacitance_matrix, charging_matrix, derive_junction_energies
from csdtc.errors import ConfigError, SolverError
from csdtc.hamiltonian import (
    ChargeBasisConfig,
    _build_block,
    assemble_blocks,
    assemble_hamiltonian,
)
from csdtc.spectrum import charge_spectrum, from_real_form, real_form, solve_lowest, spectrum_at

CFG3 = ChargeBasisConfig(n_max=3, num_eigenstates=8)


class TestFluxPoint:
    def test_nonfinite_rejected(self, device):
        with pytest.raises(ConfigError, match="flux must be finite"):
            assemble_hamiltonian(device, float("nan"), CFG3)


class TestConfig:
    def test_dimension(self):
        assert ChargeBasisConfig(n_max=7).dimension == 15**4

    @pytest.mark.parametrize("kwargs", [dict(n_max=2), dict(num_eigenstates=5), dict(n_max=40), dict(num_eigenstates=55),
                                        dict(n_max=-1), dict(n_max=3.5), dict(n_max=float("inf")),
                                        dict(num_eigenstates=float("nan")), dict(num_eigenstates=None)])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ChargeBasisConfig(**kwargs)

    @pytest.mark.parametrize("solve", [charge_spectrum, spectrum_at])
    def test_integral_floats_stored_as_ints(self, device, solve):
        # LAPACK's subset_by_index and ARPACK's k take an int only, so an integral float must arrive as one
        cfg = ChargeBasisConfig(n_max=3.0, num_eigenstates=16.0)
        assert [type(v) for v in (cfg.n_max, cfg.num_eigenstates)] == [int, int]
        spec, exact = solve(device, 0.3, cfg), solve(device, 0.3, ChargeBasisConfig(n_max=3, num_eigenstates=16))
        assert np.array_equal(spec.eigenfrequencies_ghz, exact.eigenfrequencies_ghz)
        assert spec.labels == exact.labels

    def test_basis_beyond_four_node_cap_constructs(self):
        # the product backend never builds the 39**4-state operator, only 1521-state coupler blocks
        assert ChargeBasisConfig(n_max=19).dimension == 2313441

    def test_four_node_operator_beyond_cap_refused_before_allocating(self, device):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(SolverError, match="dimension 2313441 beyond the supported 2000000"):
                charge_spectrum(device, 0.3, ChargeBasisConfig(n_max=19))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1.0
        assert peak < 1_000_000


def _kron(ops) -> sp.csr_matrix:
    out = ops[0]
    for op in ops[1:]:
        out = sp.kron(out, op, format="csr")
    return out


def kron_reference_block(ec, node_ej, n_max, phi, ej5=None) -> sp.csr_matrix:
    """The Kronecker construction that ``_build_block`` replaced, kept as its reference.

    Each term is a Kronecker product of sparse single-node operators, the
    cosine (S+ + S-)/2 and the raising shift S+ truncated at the top state,
    subtracted from the charging diagonal one term at a time.
    """
    nodes, size = len(node_ej), 2 * n_max + 1
    nvals = np.arange(-n_max, n_max + 1, dtype=float)
    grid = np.stack([g.ravel() for g in np.meshgrid(*([nvals] * nodes), indexing="ij")], axis=1)
    ham = sp.diags(np.einsum("ia,ab,ib->i", grid, ec, grid)).tocsr()

    eye = sp.identity(size, format="csr")
    cosine = sp.diags([np.full(size - 1, 0.5), np.full(size - 1, 0.5)], [-1, 1]).tocsr()
    raise_op = sp.diags(np.ones(size - 1), -1).tocsr()
    for slot, ej_i in enumerate(node_ej):
        ops = [eye] * nodes
        ops[slot] = cosine
        ham = ham - ej_i * _kron(ops)

    if ej5 is not None:
        hop = _kron([eye] * (nodes - 2) + [raise_op.T.tocsr(), raise_op])
        phase = np.exp(-2j * np.pi * phi)
        if abs(phase.imag) < 1e-15:
            ham = ham - (ej5 * phase.real / 2.0) * (hop + hop.T)
        else:
            ham = ham.astype(np.complex128) - (ej5 / 2.0) * (phase * hop + np.conj(phase) * hop.T)

    ham = ham.tocsr()
    ham.sum_duplicates()
    return ham


def block_cases(params, n_max, phi) -> dict:
    """``_build_block`` arguments of node 1, node 2, the coupler block and the four-node operator."""
    ec = charging_matrix(build_capacitance_matrix(params))
    ej = derive_junction_energies(params)
    return {
        "node 1": (ec[:1, :1], (ej.ej1,), n_max, phi),
        "node 2": (ec[1:2, 1:2], (ej.ej2,), n_max, phi),
        "coupler": (ec[2:, 2:], (ej.ej3, ej.ej4), n_max, phi, ej.ej5),
        "four-node": (ec, (ej.ej1, ej.ej2, ej.ej3, ej.ej4), n_max, phi, ej.ej5),
    }


def csr_bytes(mat) -> list:
    return [(array.dtype.str, array.tobytes()) for array in (mat.indptr, mat.indices, mat.data)]


class TestKroneckerReference:
    """The charge-grid diagonals give the Kronecker construction's operators byte for byte.

    This covers the cosine off-diagonals, the JJ5 hopping and the hard
    truncation at +-n_max: a wrong stride, mask or phase moves an entry.
    """

    @pytest.mark.parametrize("n_max", [3, 4])
    @pytest.mark.parametrize("phi", [0.0, 0.5, -0.5, 0.15, 0.3, -0.45, 1.0])
    def test_every_block_matches_byte_for_byte(self, device, n_max, phi):
        for name, args in block_cases(device, n_max, phi).items():
            assert csr_bytes(_build_block(*args)) == csr_bytes(kron_reference_block(*args)), name

    @pytest.mark.parametrize("phi", [0.0, 0.3])
    def test_assembly_returns_the_reference_blocks(self, device, phi):
        cfg = ChargeBasisConfig(n_max=4)
        blocks, ham = assemble_hamiltonian(device, phi, cfg)
        *modes, full = (kron_reference_block(*args) for args in block_cases(device, 4, phi).values())
        assert csr_bytes(ham) == csr_bytes(full)
        for mode, reference in zip(blocks.modes, modes):
            assert np.array_equal(mode, reference.toarray())

    @pytest.mark.parametrize("phi", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("n_max", [3, 4, 7])
    def test_dense_blocks_are_the_csr_blocks_bit_for_bit(self, device, n_max, phi):
        # the dense blocks are written from the diagonals that the CSR builder, pinned above, converts
        modes = assemble_blocks(device, phi, ChargeBasisConfig(n_max=n_max))[0].modes
        cases = list(block_cases(device, n_max, phi).values())[:3]
        for mode, args in zip(modes, cases, strict=True):
            reference = _build_block(*args).toarray()
            assert (mode.dtype, mode.shape) == (reference.dtype, reference.shape)
            assert mode.tobytes() == reference.tobytes()


class TestAssembly:
    def test_dimension_and_sparsity(self, device):
        _, ham = assemble_hamiltonian(device, 0.3, CFG3)
        dim = CFG3.dimension
        assert ham.shape == (dim, dim) == (2401, 2401)
        assert ham.nnz <= 11 * dim

    def test_hermitian_to_1e14(self, device):
        for phi in (0.0, 0.3, 0.5):
            ham = assemble_hamiltonian(device, phi, CFG3)[1]
            delta = (ham - ham.getH()).tocoo()
            assert delta.nnz == 0 or np.max(np.abs(delta.data)) <= 1e-14

    def test_real_at_integer_and_half_flux(self, device):
        assert assemble_hamiltonian(device, 0.0, CFG3)[1].dtype == np.float64
        assert assemble_hamiltonian(device, 0.5, CFG3)[1].dtype == np.float64
        assert assemble_hamiltonian(device, 0.3, CFG3)[1].dtype == np.complex128

    def test_jj5_flips_sign_at_half_flux(self, device):
        # the JJ5 term is the only ic5-dependent piece, so isolate it by difference
        base = replace(device, ic5=1e-9)
        jj5_zero = (assemble_hamiltonian(device, 0.0, CFG3)[1] - assemble_hamiltonian(base, 0.0, CFG3)[1]).toarray()
        jj5_half = (assemble_hamiltonian(device, 0.5, CFG3)[1] - assemble_hamiltonian(base, 0.5, CFG3)[1]).toarray()
        assert np.allclose(jj5_half, -jj5_zero, atol=1e-12)

    def test_spectrum_periodic_in_flux(self, device):
        vals_a, _ = solve_lowest(real_form(assemble_hamiltonian(device, 0.3, CFG3)[1]), 8)
        vals_b, _ = solve_lowest(real_form(assemble_hamiltonian(device, 1.3, CFG3)[1]), 8)
        assert np.allclose(vals_a, vals_b, rtol=1e-9)

    def test_spectrum_even_in_flux(self, device):
        vals_a, _ = solve_lowest(real_form(assemble_hamiltonian(device, 0.17, CFG3)[1]), 8)
        vals_b, _ = solve_lowest(real_form(assemble_hamiltonian(device, -0.17, CFG3)[1]), 8)
        assert np.allclose(vals_a, vals_b, rtol=1e-9)

    def test_diagonal_matches_charging_quadratic(self, device):
        # n^T Ec n, read off charging_matrix: 0 with no charge, Ec_ii with one pair on node i,
        # Ec_ii + Ec_jj + 2 Ec_ij with one pair on each of nodes i and j
        diagonal = assemble_hamiltonian(device, 0.0, CFG3)[1].diagonal()
        ec = charging_matrix(build_capacitance_matrix(device))
        center, strides = (7**4 - 1) // 2, (7**3, 7**2, 7, 1)
        assert diagonal[center] == 0.0
        for i in range(4):
            assert diagonal[center + strides[i]] == pytest.approx(ec[i, i], rel=1e-12)
            for j in range(i + 1, 4):
                pair = ec[i, i] + ec[j, j] + 2.0 * ec[i, j]
                assert diagonal[center + strides[i] + strides[j]] == pytest.approx(pair, rel=1e-12)


def _is_mirror_conjugate(mat: sp.csr_matrix) -> bool:
    """P H P = H* entry by entry, in O(nnz), without densifying.

    Reversing the index and data arrays of a canonical CSR matrix applies P on
    both sides, so each stored entry must equal its conjugated mirror exactly.
    """
    return (
        mat.has_canonical_format
        and np.array_equal(mat.indptr, mat.nnz - mat.indptr[::-1])
        and np.array_equal(mat.indices, (mat.shape[1] - 1) - mat.indices[::-1])
        and np.array_equal(mat.data, mat.data[::-1].conj())
    )


class TestRealForm:
    @pytest.mark.parametrize("phi", [0.3, -0.45])
    def test_eigenpairs_map_back_to_the_operator(self, device, phi):
        ham = assemble_hamiltonian(device, phi, CFG3)[1]
        folded = real_form(ham)
        assert folded.dtype == np.float64
        vals, real_vecs = solve_lowest(folded, 8)
        vecs = from_real_form(real_vecs)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-10)
        assert np.abs(ham @ vecs - vecs * vals).max() < 1e-8 * abs(ham).sum(axis=0).max()

    def test_dense_block_folds_like_the_operator(self, device):
        coupler = assemble_hamiltonian(device, 0.3, CFG3)[0].modes[2]
        folded = real_form(coupler)
        assert np.array_equal(folded, folded.T)
        assert np.allclose(np.linalg.eigvalsh(folded), np.linalg.eigvalsh(coupler), atol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.15, 0.3, 0.5])
    @pytest.mark.parametrize("n_max", [3, 4])
    def test_csr_fold_is_the_dense_fold_in_canonical_csr(self, device, n_max, phi):
        ham = assemble_hamiltonian(device, phi, ChargeBasisConfig(n_max=n_max))[1]
        folded = real_form(ham)
        assert sp.isspmatrix_csr(folded)
        # a fresh matrix on the same arrays, so the sortedness is checked and not read from a cached flag
        assert sp.csr_matrix((folded.data, folded.indices, folded.indptr), shape=folded.shape).has_sorted_indices
        assert np.all(folded.data != 0)
        assert folded.indices.dtype == folded.indptr.dtype == np.int32
        if n_max == 3:  # densified at n_max 4 the operator alone would take 689 MB
            assert np.array_equal(folded.toarray(), real_form(ham.toarray()))

    @pytest.mark.parametrize("phi", [0.0, 0.15, -0.15, 0.3, 0.45, -0.45, 0.5, -0.5])
    @pytest.mark.parametrize("n_max", [4, 7])
    def test_reference_operators_are_exactly_mirror_conjugate(self, device, n_max, phi):
        # real_form reads only the top rows and trusts P H P = H*; the builder must make it hold bit for bit
        cfg = ChargeBasisConfig(n_max=n_max)
        for mode in assemble_blocks(device, phi, cfg)[0].modes:
            assert np.array_equal(mode[::-1, ::-1], mode.conj())
        if n_max == 4:  # the four-node CSR, never densified: 6561^2 complex entries at n_max 4
            assert _is_mirror_conjugate(assemble_hamiltonian(device, phi, cfg)[1])


class TestUncoupledReference:
    def test_mode1_transmon_transition(self, device):
        modes = assemble_hamiltonian(device, 0.0, ChargeBasisConfig(n_max=7))[0].modes
        vals = np.linalg.eigvalsh(modes[0])
        f01 = vals[1] - vals[0]
        ec = charging_matrix(build_capacitance_matrix(device))[0, 0] / 4.0
        ej = derive_junction_energies(device).ej1
        asymptotic = math.sqrt(8.0 * ec * ej) - ec
        assert f01 == pytest.approx(asymptotic, rel=0.05)

    def test_textbook_transmon_instance(self, decoupled):
        # 100 fF node -> 4 E_C = 775 MHz; Ic = 26.7 nA -> E_J/h = 13.26 GHz
        textbook = replace(decoupled, c11=100.0)
        modes = assemble_hamiltonian(textbook, 0.0, ChargeBasisConfig(n_max=7))[0].modes
        vals = np.linalg.eigvalsh(modes[0])
        f01 = vals[1] - vals[0]
        e_c = 0.7748 / 4.0
        asymptotic = math.sqrt(8.0 * e_c * 13.2614) - e_c
        assert f01 == pytest.approx(asymptotic, rel=0.05)

    def test_decoupled_ground_state_is_product(self, decoupled):
        blocks, ham = assemble_hamiltonian(decoupled, 0.0, CFG3)
        _, vecs = solve_lowest(ham, 6)
        ground = vecs[:, 0]
        product = np.ones(1)
        for block in blocks.modes:
            _, mvecs = np.linalg.eigh(block)
            product = np.kron(product, mvecs[:, 0])
        overlap = abs(np.vdot(product, ground)) ** 2
        assert overlap > 0.999

