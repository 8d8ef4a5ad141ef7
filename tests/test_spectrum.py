import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from csdtc import CircuitParams, spectrum
from csdtc.circuit import save_params
from csdtc.cli import main
from csdtc.errors import ConfigError, LabelingError, NumericsError, SolverError, TruncationError
from csdtc.hamiltonian import ChargeBasisConfig, assemble_blocks, assemble_hamiltonian
from csdtc.spectrum import (
    COMPUTATIONAL_OCCUPATIONS,
    ZETA_GATE_KHZ,
    _assign_labels,
    _zeta_from_spectrum,
    charge_spectrum,
    convergence_study,
    label_states,
    product_spectrum,
    solve_lowest,
    spectrum_at,
    sweep_c34,
    sweep_flux,
    write_c34_zz_csv,
    write_flux_zz_csv,
    write_spectrum_csv,
    zz_interaction,
)

CFG3 = ChargeBasisConfig(n_max=3, num_eigenstates=8)
CFG4 = ChargeBasisConfig(n_max=4, num_eigenstates=12)
LABEL_CORNER_STATES = 3 * 3 * 6


def record_eigensolves(monkeypatch):
    """(solver, dtype, rows, "csr" or "dense") of every LAPACK, ARPACK and block Davidson eigensolve from here on.

    A block Davidson solve is listed before the LAPACK solves of its Rayleigh-Ritz steps.
    """
    seen = []

    def recording(module, name):
        solver = getattr(module, name)

        def solve(matrix, *args, **kwargs):
            kind = matrix.format if sp.issparse(matrix) else "dense"
            seen.append((f"{module.__name__}.{name}", matrix.dtype, matrix.shape[0], kind))
            return solver(matrix, *args, **kwargs)

        monkeypatch.setattr(module, name, solve)

    for module, name in ((spla, "eigsh"), (sla, "eigh"), (np.linalg, "eigh"), (spectrum, "_davidson_lowest")):
        recording(module, name)
    return seen


class TestSolveLowest:
    def test_complex_operator_is_solved_folded_and_mapped_back(self, device, monkeypatch):
        # the oracle folds its complex operator, so ARPACK sees a real CSR, and maps the eigenvectors back
        ham = assemble_hamiltonian(device, 0.3, CFG3)[1]
        labeled, label = [], spectrum.label_states
        monkeypatch.setattr(spectrum, "label_states", lambda vecs, blocks: labeled.append(vecs) or label(vecs, blocks))
        seen = record_eigensolves(monkeypatch)
        spec = charge_spectrum(device, 0.3, CFG3)
        assert [solve for solve in seen if solve[0] != "numpy.linalg.eigh"] == [
            ("scipy.sparse.linalg.eigsh", np.float64, CFG3.dimension, "csr")
        ]
        (vecs,) = labeled
        assert np.iscomplexobj(vecs) and vecs.shape == (CFG3.dimension, CFG3.num_eigenstates)
        # the contract holds on the complex operator itself, not only on the real form that was solved
        vals = np.einsum("ij,ij->j", vecs.conj(), ham @ vecs).real
        residuals = np.linalg.norm(ham @ vecs - vecs * vals, axis=0)
        assert residuals.max() <= spectrum._RESIDUAL_FACTOR * spla.norm(ham, 1)
        assert np.abs(spec.eigenfrequencies_ghz - (vals - vals[0])).max() <= 1e-10

    @pytest.mark.parametrize("flux", [0.0, 0.3])
    def test_kind_picks_the_solver_whatever_the_size(self, device, monkeypatch, flux):
        # solve_lowest takes real operators: at 0.3 each is folded first, as charge_spectrum folds its own; the
        # charge basis (2401 states) and the coupler block (225) go to ARPACK in CSR and to LAPACK dense
        def solvable(op):
            return spectrum.real_form(op) if np.iscomplexobj(op) else op

        coupler = sp.csr_matrix(solvable(assemble_blocks(device, flux, ChargeBasisConfig(n_max=7))[0].modes[2]))
        operator = solvable(assemble_hamiltonian(device, flux, CFG3)[1])
        assert coupler.shape[0] <= spectrum._SPARSE_MIN_PRODUCTS < operator.shape[0]
        seen = record_eigensolves(monkeypatch)
        expected = []
        for matrix in (operator, coupler):
            sparse_vals, _ = solve_lowest(matrix, 8)
            dense_vals, _ = solve_lowest(matrix.toarray(), 8)
            rows = matrix.shape[0]
            expected += [
                ("scipy.sparse.linalg.eigsh", np.float64, rows, "csr"),
                ("scipy.linalg.eigh", np.float64, rows, "dense"),
            ]
            assert np.abs(sparse_vals - dense_vals).max() <= 1e-10
        assert seen == expected

    def test_two_by_two(self):
        vals, vecs = solve_lowest(np.diag([1.0, 2.0]), 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(vecs[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            solve_lowest(np.diag([1.0, 2.0]), 2)

    @pytest.mark.parametrize("k", [0, -1, 3, 4])
    def test_k_outside_zero_to_dimension_refused(self, k):
        with pytest.raises(ValueError, match=re.escape(f"need 0 < k < dimension, got k={k}, dimension=3")):
            solve_lowest(np.diag([1.0, 2.0, 3.0]), k)

    def test_arpack_without_convergence_is_a_solver_error_counting_its_pairs(self, monkeypatch):
        operator = sp.diags(np.arange(600.0), format="csr")

        def no_convergence(matrix, k, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(3), np.zeros((600, 3)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with pytest.raises(SolverError, match=re.escape("eigensolver did not converge (3 of 8 pairs)")):
            solve_lowest(operator, 8)

    # LAPACK (a dense operator), ARPACK (a CSR one), and the block Davidson solver of large product sectors, whose
    # Ritz values are shifted: it cannot then meet the contract, and the check on H after its last iteration names
    # the residual
    @pytest.mark.parametrize(
        "dim, solver, where",
        [(8, "solve_lowest", ""), (600, "solve_lowest", ""), (600, "_davidson_lowest", " at block Davidson iteration 60 of 60")],
        ids=["8", "600", "600-davidson"],
    )
    def test_residual_over_the_contract_is_a_solver_error(self, monkeypatch, dim, solver, where):
        # well-separated levels with a weak hop: ||H||_1 = dim - 0.8, so the contract is about 1e-8 dim
        operator = sp.diags([np.arange(float(dim)), np.full(dim - 1, 0.1), np.full(dim - 1, 0.1)], [0, 1, -1])
        solve = getattr(spectrum, solver)
        if dim == 8 or solver == "_davidson_lowest":
            operator = operator.toarray()
        solve(operator, 4)

        def shifted(solver):
            def solve(*args, **kwargs):
                vals, vecs = solver(*args, **kwargs)
                return vals + 1e-5, vecs  # each residual is then 1e-5, above the contract at either size
            return solve

        monkeypatch.setattr(sla, "eigh", shifted(sla.eigh))
        monkeypatch.setattr(spla, "eigsh", shifted(spla.eigsh))
        monkeypatch.setattr(np.linalg, "eigh", shifted(np.linalg.eigh))
        with pytest.raises(SolverError, match=re.escape(f"eigenpair residuals exceed contract{where}: max 1.000e-05 > ")):
            solve(operator, 4)

    def test_nan_residual_is_a_solver_error(self):
        # a NaN compares false with the tolerance either way, so the contract must ask for residuals within it
        operator = np.diag([1.0, 2.0, 3.0])
        vecs = np.eye(3)[:, :2].copy()
        spectrum._require_residuals(operator, np.array([1.0, 2.0]), vecs, 1e-8)
        vecs[0, 1] = np.nan
        with pytest.raises(SolverError, match=re.escape("eigenpair residuals exceed contract: max nan > 1.000e-08")):
            spectrum._require_residuals(operator, np.array([1.0, 2.0]), vecs, 1e-8)

    def test_orthonormal_eigenvectors(self, device):
        _, ham = assemble_hamiltonian(device, 0.1, CFG3)
        _, vecs = solve_lowest(spectrum.real_form(ham), 8)
        vecs = spectrum.from_real_form(vecs)
        gram = vecs.conj().T @ vecs
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    @pytest.mark.parametrize("kind", ["csr", "dense"])
    def test_complex_operator_refused_naming_real_form(self, device, monkeypatch, kind):
        ham = assemble_hamiltonian(device, 0.1, CFG3)[1]
        seen = record_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="fold a complex one with real_form first"):
            solve_lowest(ham if kind == "csr" else ham.toarray(), 8)
        assert seen == []

    def test_decoupled_eigenvalues_are_single_mode_sums(self, decoupled):
        blocks, ham = assemble_hamiltonian(decoupled, 0.0, CFG3)
        vals, _ = solve_lowest(ham, 10)
        block_vals = [np.linalg.eigvalsh(h) for h in blocks.modes]
        sums = sorted(a + b + c for a, b, c in itertools.product(*(bv[:10] for bv in block_vals)))
        assert np.allclose(vals, sums[:10], rtol=1e-9, atol=1e-9)


class TestLabels:
    def test_decoupled_overlaps_are_unity(self, decoupled):
        spec = spectrum_at(decoupled, 0.0, CFG3)
        for label in spec.labels:
            assert label.overlap > 0.9999
            assert not label.ambiguous

    def test_coupled_coupler_pair_labels_are_unity(self, decoupled):
        # free qubits, but C34 and JJ5 tie the coupler nodes: node references cannot label this
        coupled = replace(decoupled, c34=30.3, ic5=11.9)
        spec = spectrum_at(coupled, 0.0, CFG4)
        assert len(spec.labels) == 12
        for label in spec.labels:
            assert label.overlap > 0.9999
        assert abs(zz_interaction(coupled, 0.0, CFG4)) < 1e-3

    def test_device_computational_labels_confident(self, device):
        spec = spectrum_at(device, 0.0, ChargeBasisConfig(n_max=5, num_eigenstates=16))
        for occ in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)):
            _, label = spec.level(occ)
            assert label.overlap > 0.8
            assert not label.ambiguous

    def test_missing_labels_reported_with_candidates(self, device):
        # at n_max=5 the coupler modes sit below |1100>, so k=6 cannot reach it
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)
        blocks, ham = assemble_hamiltonian(device, 0.0, cfg)
        _, vecs = solve_lowest(ham, 6)
        with pytest.raises(LabelingError, match="1, 1, 0") as err:
            label_states(vecs, blocks)
        candidates = err.value.candidates[(1, 1, 0)]
        assert len(candidates) == 3
        # the payload keeps full precision; the message prints each overlap at three decimals
        assert any(overlap != round(overlap, 3) for _, overlap in candidates)
        shown = ", ".join(f"({state}, {overlap:.3f})" for state, overlap in candidates)
        assert f"(1, 1, 0): [{shown}]" in str(err.value)

    @pytest.mark.parametrize("collide", [False, True])
    @pytest.mark.parametrize("k", [6, 16, 33, 54])
    def test_assignment_is_the_maximum_sum_assignment(self, monkeypatch, k, collide):
        matchings = []
        matching = spectrum.min_weight_full_bipartite_matching

        def counted(*args, **kwargs):
            matchings.append(args)
            return matching(*args, **kwargs)

        monkeypatch.setattr(spectrum, "min_weight_full_bipartite_matching", counted)
        computational = [int(np.ravel_multi_index(occ, (3, 3, 6))) for occ in COMPUTATIONAL_OCCUPATIONS]
        seeds = range(25)
        for seed in seeds:
            rng = np.random.default_rng([k, seed])
            flat = 0.5 * rng.random((k, LABEL_CORNER_STATES)) ** 4
            flat[rng.random(flat.shape) < 0.5] = 0.0  # exact zeros, as parity gives at flux 0 and 1/2
            flat[np.arange(4), computational] = rng.uniform(0.6, 1.0, 4)
            if collide:  # two of the other states share their largest overlap
                rows = rng.choice(np.arange(4, k), 2, replace=False)
                flat[rows, rng.integers(LABEL_CORNER_STATES)] = rng.uniform(1.0, 2.0, 2)
            _, best = linear_sum_assignment(flat, maximize=True)
            expected = [(tuple(int(v) for v in np.unravel_index(p, (3, 3, 6))), flat[s, p])
                        for s, p in enumerate(best)]
            labels = _assign_labels(flat.reshape(k, 3, 3, 6))
            assert [(label.occupations, label.overlap) for label in labels] == expected
        if collide:
            assert len(matchings) == len(seeds)

    def test_states_sharing_their_only_product_are_matched(self):
        # two states hold all their overlap on |0,0,0>: without the shift, CSR keeps their zeros as no edge at all,
        # and no full matching exists
        flat = np.zeros((6, LABEL_CORNER_STATES))
        products = [(0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
        for state, occ in enumerate(products):
            flat[state, np.ravel_multi_index(occ, (3, 3, 6))] = 1.0
        labels = _assign_labels(flat.reshape(6, 3, 3, 6))
        _, best = linear_sum_assignment(flat, maximize=True)
        assert sum(label.overlap for label in labels) == flat[np.arange(6), best].sum() == 5.0
        assert [label.occupations for label in labels[2:]] == products[2:]
        first, second = sorted(labels[:2], key=lambda label: -label.overlap)
        assert (first.occupations, first.overlap, first.ambiguous) == ((0, 0, 0), 1.0, False)
        assert second.occupations not in products and (second.overlap, second.ambiguous) == (0.0, True)
        # a margin is the lead over the state's next overlap: negative where the matching took another product
        assert (first.margin, second.margin) == (1.0, -1.0)

    def test_eigenfrequencies_relative_and_sorted(self, device):
        spec = spectrum_at(device, 0.0, CFG4)
        freqs = spec.eigenfrequencies_ghz
        assert freqs[0] == 0.0
        assert np.all(np.diff(freqs) >= 0)

    def test_k_beyond_label_space_rejected(self):
        assert ChargeBasisConfig(n_max=3, num_eigenstates=54).num_eigenstates == 54
        with pytest.raises(ConfigError, match="from 6 to 54"):
            ChargeBasisConfig(n_max=3, num_eigenstates=100)


class TestBackends:
    @pytest.mark.parametrize("n_max", [3, 4, 5, 7])
    def test_product_backend_at_every_n_max(self, device, n_max):
        cfg = ChargeBasisConfig(n_max=n_max, num_eigenstates=16)
        spec = spectrum_at(device, 0.0, cfg)
        assert spec.backend == "product"
        bounds = {e_cut: tuple(rest) for e_cut, *rest in spectrum._E_CUT_LADDER}
        assert spec.e_cut_ghz in bounds
        assert LABEL_CORNER_STATES < spec.kept_states < (2 * n_max + 1) ** 4
        blocks = spectrum._product_blocks(device, 0.0, cfg, 60.0)
        _, shifts, third_order = spectrum._product_solve(blocks, spec.e_cut_ghz, 0.0, cfg)
        # the accepted cutoff's level correction is within its bound, and either its zeta correction is
        # within the ladder bound, or else it is at most the cap of the estimate, and the third-order estimate
        # of what it leaves out is within the ladder's bound on that
        assert np.abs(shifts[1:] - shifts[0]).max() <= spectrum._MAX_LEVEL_CORRECTION_GHZ
        zeta2_khz = abs(spectrum._zeta_khz(shifts))
        assert spec.truncation_khz == zeta2_khz
        max_zeta_khz, max_remainder_khz = bounds[spec.e_cut_ghz]
        if zeta2_khz <= max_zeta_khz:
            assert spec.remainder_khz is None
        else:
            assert max_remainder_khz is not None and zeta2_khz <= spectrum._MAX_ESTIMATED_CORRECTION_KHZ
            assert spec.remainder_khz == abs(spectrum._zeta_khz(third_order())) <= max_remainder_khz
        assert spec.fallback is None

    def test_cutoff_accepted_on_its_own_correction(self, device):
        # at n_max 5 and flux 0 the 45 GHz correction (0.098 kHz) passes the bound of every higher cutoff but
        # not the stricter one of 45 GHz, nor does its third-order estimate (0.0107 kHz) pass its bound, so
        # 50 GHz answers, as solved alone
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        blocks = spectrum._product_blocks(device, 0.0, cfg, 60.0)
        _, shifts, third_order = spectrum._product_solve(blocks, 45.0, 0.0, cfg)
        assert 0.05 < abs(spectrum._zeta_khz(shifts)) < 0.5
        assert abs(spectrum._zeta_khz(third_order())) > spectrum._E_CUT_LADDER[0][2]
        alone, shifts, _ = spectrum._product_solve(blocks, 50.0, 0.0, cfg)
        spec = product_spectrum(device, 0.0, cfg)
        assert spec.e_cut_ghz == 50.0
        assert np.array_equal(spec.eigenfrequencies_ghz, alone.eigenfrequencies_ghz) and spec.labels == alone.labels
        assert spec.truncation_khz == abs(spectrum._zeta_khz(shifts))

    @pytest.mark.parametrize("flux", [0.15, 0.25])
    def test_cutoff_refused_on_its_third_order_estimate(self, device, flux):
        # at n_max 5 the 45 GHz corrections are 0.54 and 0.42 kHz, and their third-order estimates 0.0088 and
        # 0.0102 kHz: both above their bounds, so 50 GHz answers, as solved alone
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        blocks = spectrum._product_blocks(device, flux, cfg, 60.0)
        _, shifts, third_order = spectrum._product_solve(blocks, 45.0, flux, cfg)
        assert spectrum._E_CUT_LADDER[0][1] < abs(spectrum._zeta_khz(shifts)) <= spectrum._MAX_ESTIMATED_CORRECTION_KHZ
        assert abs(spectrum._zeta_khz(third_order())) > spectrum._E_CUT_LADDER[0][2]
        alone, shifts, _ = spectrum._product_solve(blocks, 50.0, flux, cfg)
        spec = product_spectrum(device, flux, cfg)
        assert spec.e_cut_ghz == 50.0 and spec.remainder_khz is None
        assert np.array_equal(spec.eigenfrequencies_ghz, alone.eigenfrequencies_ghz) and spec.labels == alone.labels
        assert spec.truncation_khz == abs(spectrum._zeta_khz(shifts))

    def test_cutoff_accepted_on_its_third_order_estimate(self, device):
        # at n_max 4 and flux 0 the 45 GHz correction (0.80 kHz) is over its 0.05 kHz bound, but the third-order
        # estimate of what it leaves out is 0.0070 kHz: 45 GHz answers, within 0.01 kHz of the oracle
        cfg = ChargeBasisConfig(n_max=4, num_eigenstates=16)
        spec = product_spectrum(device, 0.0, cfg)
        assert spec.e_cut_ghz == 45.0
        assert spectrum._E_CUT_LADDER[0][1] < spec.truncation_khz <= spectrum._MAX_ESTIMATED_CORRECTION_KHZ
        assert spec.remainder_khz <= spectrum._E_CUT_LADDER[0][2]
        oracle = _zeta_from_spectrum(charge_spectrum(device, 0.0, cfg))
        assert _zeta_from_spectrum(spec) == pytest.approx(oracle, abs=0.01)

    @pytest.mark.parametrize("flux", [0.0, 0.15, 0.25, 0.5])
    def test_third_order_estimate_tracks_the_remainder(self, device, flux):
        # at n_max 5, what the 45 GHz cutoff leaves out of zeta after its second-order correction, against the
        # oracle, is 1.07-1.16 times its third-order estimate
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        blocks = spectrum._product_blocks(device, flux, cfg, 60.0)
        spec, _, third_order = spectrum._product_solve(blocks, 45.0, flux, cfg)
        remainder_khz = _zeta_from_spectrum(charge_spectrum(device, flux, cfg)) - _zeta_from_spectrum(spec)
        assert spectrum._zeta_khz(third_order()) == pytest.approx(remainder_khz, rel=0.25)

    @pytest.mark.parametrize("flux", [0.0, 0.15, -0.15, 0.25, 0.5])
    def test_hierarchical_matches_charge_oracle(self, device, flux):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        spec = spectrum_at(device, flux, cfg)
        assert (spec.sector_states is not None) == (flux in (0.0, 0.5))  # the oracle checks the split too
        blocks, ham = assemble_hamiltonian(device, flux, cfg)
        vals, vecs = solve_lowest(spectrum.real_form(ham), cfg.num_eigenstates)
        oracle = [label.occupations for label in label_states(spectrum.from_real_form(vecs), blocks)]
        zeta_khz, oracle_zeta_khz = 0.0, 0.0
        for occ, sign in zip(COMPUTATIONAL_OCCUPATIONS, (1, -1, -1, 1)):
            state = oracle.index(occ)
            assert spec.labels[state].occupations == occ
            assert spec.eigenfrequencies_ghz[state] == pytest.approx(vals[state] - vals[0], abs=1e-5)
            zeta_khz += sign * spec.eigenfrequencies_ghz[state] * 1e6
            oracle_zeta_khz += sign * (vals[state] - vals[0]) * 1e6
        assert zeta_khz == pytest.approx(oracle_zeta_khz, abs=0.01)

    @pytest.mark.parametrize("c34", [5.0, 30.0, 100.0])
    def test_shunt_scan_points_match_charge_oracle_at_n_max_4(self, device, c34):
        params = device.with_c34(c34)
        cfg = ChargeBasisConfig(n_max=4, num_eigenstates=16)
        spec = spectrum_at(params, 0.0, cfg)
        assert spec.backend == "product"
        oracle = _zeta_from_spectrum(charge_spectrum(params, 0.0, cfg))
        assert _zeta_from_spectrum(spec) == pytest.approx(oracle, abs=0.1)

    def test_gate_edge_stays_ambiguous_without_the_four_node_operator(self, device, monkeypatch):
        def no_operator(*args, **kwargs):
            raise AssertionError("assemble_hamiltonian called")

        monkeypatch.setattr(spectrum, "assemble_hamiltonian", no_operator)
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=16)
        for flux in (0.45, -0.45):
            spec = spectrum_at(device, flux, cfg)
            assert spec.backend == "product"
            _, label = spec.level((1, 1, 0))
            assert label.ambiguous
            assert label.overlap == pytest.approx(0.474, abs=0.005)
            with pytest.raises(LabelingError, match="ambiguous"):
                _zeta_from_spectrum(spec)

    @pytest.mark.parametrize("n_max, backend", [(3, "charge"), (4, "product")])
    def test_every_eigensolve_is_real_at_complex_flux(self, device, monkeypatch, n_max, backend):
        seen = record_eigensolves(monkeypatch)
        solve = charge_spectrum if backend == "charge" else spectrum_at
        spec = solve(device, 0.25, ChargeBasisConfig(n_max=n_max, num_eigenstates=16))
        assert spec.backend == backend
        assert all(dtype == np.float64 for _, dtype, _, _ in seen)
        operator_solves = [(name, rows) for name, _, rows, _ in seen if name != "numpy.linalg.eigh"]
        assert 0 < len(operator_solves) < len(seen)  # the rest are the blocks' and the Rayleigh-Ritz eigensolves
        if backend == "charge":
            assert [name for name, _ in operator_solves] == ["scipy.sparse.linalg.eigsh"]
        else:
            # block Davidson on the dense sector exactly for a kept set above the limit, dense LAPACK below it, and
            # never ARPACK; both occur here, since 45 GHz keeps 476 products, refused on its second-order correction
            # and its third-order estimate (0.015 kHz) alike, 50 GHz 649, refused on its correction, and 55 GHz 843
            expected = [
                "csdtc.spectrum._davidson_lowest" if rows > spectrum._SPARSE_MIN_PRODUCTS else "scipy.linalg.eigh"
                for _, rows in operator_solves
            ]
            assert [name for name, _ in operator_solves] == expected
            assert len(set(expected)) == 2

    def test_circuit_outside_truncation_falls_back_to_charge_basis(self, device, monkeypatch):
        # at n_max 5 the device needs the products up to 50 GHz (0.098 kHz correction at 45); stop the ladder at 45,
        # with no third-order estimate
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        monkeypatch.setattr(spectrum, "_E_CUT_LADDER", ((45.0, 0.05, None),))
        refused = r"not settled at E_cut = 45 GHz: .* kHz on zeta \(bound 0\.05 kHz\)"
        with pytest.raises(TruncationError, match=refused) as err:
            product_spectrum(device, 0.0, cfg)
        assert "third-order" not in str(err.value)
        spec = spectrum_at(device, 0.0, cfg)
        oracle = charge_spectrum(device, 0.0, cfg)
        assert spec.backend == "charge"
        assert "E_cut = 45 GHz" in spec.fallback
        assert np.array_equal(spec.eigenfrequencies_ghz, oracle.eigenfrequencies_ghz)

    def test_refusal_names_the_last_third_order_estimate(self, device, monkeypatch):
        # every second-order bound 0: at n_max 5 and flux 0 only the third-order estimate at 45 GHz could settle
        # the point, and it is 0.0107 kHz
        ladder = tuple((e_cut, 0.0, max_remainder_khz) for e_cut, _, max_remainder_khz in spectrum._E_CUT_LADDER)
        monkeypatch.setattr(spectrum, "_E_CUT_LADDER", ladder)
        with pytest.raises(TruncationError) as err:
            product_spectrum(device, 0.0, ChargeBasisConfig(n_max=5, num_eigenstates=16))
        assert re.fullmatch(
            r"product basis not settled at E_cut = 60 GHz: .* kHz on zeta \(bound 0 kHz\) .*; "
            r"its third-order estimate at E_cut = 45 GHz is 0\.0107 kHz on zeta \(bound 0\.008 kHz\)",
            str(err.value),
        )

    def test_third_order_estimate_not_taken_near_the_largest_cutoff(self):
        # a ZZ of 2.8 MHz: at n_max 5 and flux 0.15 the 55 GHz correction (0.80 kHz) is under the cap and its
        # estimate (0.0043 kHz) would pass the 45 GHz bound, but with the blocks built for 60 GHz it misses most
        # of what is left out, and 55 GHz is 0.045 kHz off
        params = CircuitParams(
            c11=130.461, c22=56.658, c33=109.481, c44=136.531,
            c12=26.012, c13=0.172, c14=15.652, c23=11.07, c24=22.801, c34=2.197,
            ic1=25.896, ic2=58.759, ic3=38.173, ic4=37.189, ic5=68.114,
        )
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        blocks = spectrum._product_blocks(params, 0.15, cfg, 60.0)
        spec, shifts, third_order = spectrum._product_solve(blocks, 55.0, 0.15, cfg)
        assert 0.5 < abs(spectrum._zeta_khz(shifts)) <= spectrum._MAX_ESTIMATED_CORRECTION_KHZ
        assert abs(spectrum._zeta_khz(third_order())) < spectrum._E_CUT_LADDER[0][2]
        oracle = charge_spectrum(params, 0.15, cfg)
        assert abs(_zeta_from_spectrum(spec) - _zeta_from_spectrum(oracle)) > 0.04
        with pytest.raises(TruncationError, match="not settled at E_cut = 60 GHz"):
            product_spectrum(params, 0.15, cfg)
        answer = spectrum_at(params, 0.15, cfg)
        assert answer.backend == "charge" and np.array_equal(answer.eigenfrequencies_ghz, oracle.eigenfrequencies_ghz)

    def test_third_order_estimate_not_taken_over_its_correction_cap(self):
        # a ZZ of -21.5 MHz: at n_max 7 and flux 0.15 the 45 GHz correction is 2.02 kHz and its third-order
        # estimate 0.0006 kHz, within its bound, yet 45 GHz is 0.061 kHz off; the correction is over the cap, so
        # no estimate is taken, and 55 GHz answers on its own correction (0.20 kHz), 0.017 kHz off
        params = CircuitParams(
            c11=83.866, c22=81.8, c33=61.272, c44=112.661,
            c12=23.924, c13=9.412, c14=25.884, c23=23.914, c24=3.874, c34=23.006,
            ic1=62.957, ic2=21.837, ic3=44.418, ic4=48.325, ic5=46.56,
        )
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=16)
        blocks = spectrum._product_blocks(params, 0.15, cfg, 60.0)
        refused, shifts, third_order = spectrum._product_solve(blocks, 45.0, 0.15, cfg)
        assert abs(spectrum._zeta_khz(shifts)) > spectrum._MAX_ESTIMATED_CORRECTION_KHZ
        assert abs(spectrum._zeta_khz(third_order())) < spectrum._E_CUT_LADDER[0][2]
        oracle = _zeta_from_spectrum(charge_spectrum(params, 0.15, cfg))
        assert abs(_zeta_from_spectrum(refused) - oracle) > 0.05
        spec = product_spectrum(params, 0.15, cfg)
        assert spec.e_cut_ghz == 55.0 and spec.remainder_khz is None
        assert _zeta_from_spectrum(spec) == pytest.approx(oracle, abs=0.02)

    def test_truncation_estimate_accounts_for_hierarchical_error(self, device, monkeypatch):
        # mutuals of a few fF between all blocks, so each of the three cross terms shifts zeta
        coupled = replace(device, c12=2.0, c13=20.0, c24=20.0, c14=5.0, c23=5.0)
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        blocks = spectrum._product_blocks(coupled, 0.0, cfg, 40.0)
        corrected_khz = _zeta_from_spectrum(spectrum._product_solve(blocks, 40.0, 0.0, cfg)[0])
        monkeypatch.setattr(
            spectrum,
            "_left_out_corrections",
            lambda states, energies, *args: (np.zeros(len(energies)), lambda: np.zeros(len(energies))),
        )
        raw_khz = _zeta_from_spectrum(spectrum._product_solve(blocks, 40.0, 0.0, cfg)[0])
        oracle_khz = _zeta_from_spectrum(charge_spectrum(coupled, 0.0, cfg))
        assert abs(raw_khz - oracle_khz) > 1.0
        assert raw_khz - oracle_khz == pytest.approx(raw_khz - corrected_khz, rel=0.1)


def solve_densely(monkeypatch):
    """Make the product backend solve every sector by dense LAPACK, whatever its size, and never by block Davidson."""
    monkeypatch.setattr(spectrum, "_SPARSE_MIN_PRODUCTS", np.inf)


def solve_in_one_dense_matrix(monkeypatch):
    """Make the product backend solve every kept set in one dense matrix, unsplit by parity."""
    split_blocks = spectrum._product_blocks
    monkeypatch.setattr(spectrum, "_product_blocks", lambda *args: replace(split_blocks(*args), parities=None))
    solve_densely(monkeypatch)


def computational_zeta_khz(spec) -> float:
    """zeta (kHz) of a spectrum's computational levels, read whether or not their labels are ambiguous."""
    return spectrum._zeta_khz([spec.level(occ)[0] for occ in COMPUTATIONAL_OCCUPATIONS])


def assert_split_matches_dense(split, dense):
    assert split.sector_states is not None and sum(split.sector_states) == split.kept_states
    assert dense.sector_states is None
    assert (split.e_cut_ghz, split.kept_states) == (dense.e_cut_ghz, dense.kept_states)
    freqs = dense.eigenfrequencies_ghz
    assert np.abs(split.eigenfrequencies_ghz - freqs).max() <= 1e-9
    # state by state the same label, unless the solver's rounding picks it: an exactly degenerate level has
    # no one eigenbasis (identical uncoupled qubits); where the qubits are identical every state overlaps
    # (a, b, c) and (b, a, c) alike, so those two labels tie (at 0.5 for |1,0,0> and |0,1,0>), and the
    # highest state solved may have its mirror partner just above; a state outside the label space
    # overlaps no label, so it takes whichever product the assignment has left
    top = len(freqs) - 1
    for state, (label, twin) in enumerate(zip(split.labels, dense.labels)):
        if np.count_nonzero(np.abs(freqs - freqs[state]) <= 1e-9) > 1:
            continue
        q1, q2, coupler = twin.occupations
        mirrored = label.occupations == (q2, q1, coupler)
        tied = mirrored and (state == top or label.overlap == pytest.approx(twin.overlap, abs=1e-6))
        unlabeled = max(label.overlap, twin.overlap) <= 1e-6
        assert (label.occupations, label.ambiguous) == (twin.occupations, twin.ambiguous) or tied or unlabeled
    # zz reads the computational labels' flags, and zeta is symmetric in |1,0,0> and |0,1,0>
    assert [split.level(occ)[1].ambiguous for occ in COMPUTATIONAL_OCCUPATIONS] == [
        dense.level(occ)[1].ambiguous for occ in COMPUTATIONAL_OCCUPATIONS
    ]
    assert abs(computational_zeta_khz(split) - computational_zeta_khz(dense)) <= 1e-6


def assert_split_exact(params, flux, cfg):
    """Nothing couples the two parity sectors of the product basis.

    Split by parity, each block eigenvector is exactly 0 outside its sector, and so each cross factor is
    exactly 0 between two levels of equal parity.
    """
    for mode in assemble_blocks(params, flux, cfg)[0].modes:
        _, vecs, parity = spectrum._block_eigh(mode, True)
        even = vecs.shape[0] // 2 + 1
        assert not vecs[even:, parity == 1].any() and not vecs[:even, parity == -1].any()
    blocks = spectrum._product_blocks(params, flux, cfg, 60.0)
    for i, j, _, left, right in blocks.couplings:
        for factor, parity in ((left, blocks.parities[i]), (right, blocks.parities[j])):
            same = parity[:, None] == parity[None, : factor.shape[1]]
            assert not factor[same].any()


class TestParitySectors:
    @pytest.mark.parametrize("n_max", [4, 7])
    @pytest.mark.parametrize("flux", [0.0, 0.5, -0.5])
    def test_split_matches_one_dense_solve(self, device, monkeypatch, n_max, flux):
        cfg = ChargeBasisConfig(n_max=n_max, num_eigenstates=16)
        split = product_spectrum(device, flux, cfg)
        with monkeypatch.context() as patch:
            solve_in_one_dense_matrix(patch)
            dense = product_spectrum(device, flux, cfg)
        assert_split_matches_dense(split, dense)

    def test_no_split_at_generic_flux(self, device):
        assert spectrum._product_blocks(device, 0.15, CFG4, 40.0).parities is None
        assert product_spectrum(device, 0.15, CFG4).sector_states is None
        assert charge_spectrum(device, 0.0, CFG4).sector_states is None

    @pytest.mark.parametrize("n_max", [4, 7])
    @pytest.mark.parametrize("flux", [0.0, 0.5, -0.5])
    def test_split_is_exact(self, device, n_max, flux):
        assert_split_exact(device, flux, ChargeBasisConfig(n_max=n_max, num_eigenstates=16))

    def test_sector_too_small_refused(self, device):
        blocks = spectrum._product_blocks(device, 0.0, CFG3, 40.0)
        a, b, c = np.nonzero(np.ones(spectrum.LABEL_LEVELS, dtype=bool))  # the 54-product label corner
        with pytest.raises(SolverError, match="too few for its lowest 30 states"):
            spectrum._solve_by_sector(blocks, a, b, c, 30)

    def test_one_sector_too_small_refused(self, device):
        # off flux 0 and 1/2 the kept products are one sector: k as large as it is a SolverError, as for two sectors
        blocks = spectrum._product_blocks(device, 0.25, CFG3, 40.0)
        assert blocks.parities is None
        a, b, c = np.nonzero(np.ones(spectrum.LABEL_LEVELS, dtype=bool))  # the 54-product label corner
        refused = f"the product basis holds {LABEL_CORNER_STATES} products, too few for its lowest 54 states"
        with pytest.raises(SolverError, match=re.escape(refused)):
            spectrum._solve_by_sector(blocks, a, b, c, 54)
        vals, vecs, sizes = spectrum._solve_by_sector(blocks, a, b, c, 53)
        assert vals.shape == (53,) and vecs.shape == (LABEL_CORNER_STATES, 53) and sizes is None


# exactly degenerate circuits: uncoupled qubit nodes, and in the second identical ones
DEGENERATE_CIRCUITS = (
    CircuitParams(
        c11=50, c22=50, c33=50, c44=50, c12=0, c13=0, c14=0, c23=0, c24=0, c34=2,
        ic1=13, ic2=10, ic3=10, ic4=12, ic5=33,
    ),
    CircuitParams(
        c11=50, c22=50, c33=50, c44=50, c12=0, c13=0, c14=0, c23=0, c24=0, c34=0,
        ic1=10, ic2=10, ic3=10, ic4=11, ic5=19,
    ),
)


class TestSparseSectors:
    @pytest.mark.parametrize("flux", [0.3, 0.45])
    def test_sparse_solve_matches_dense(self, device, monkeypatch, flux):
        # the block Davidson solve of a large sector against LAPACK on the same dense matrix
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=16)
        blocks = spectrum._product_blocks(device, flux, cfg, 45.0)
        with monkeypatch.context() as patch:
            seen = record_eigensolves(patch)
            sparse = spectrum._product_solve(blocks, 45.0, flux, cfg)[0]
        assert sparse.kept_states > spectrum._SPARSE_MIN_PRODUCTS
        assert seen[0] == ("csdtc.spectrum._davidson_lowest", np.float64, sparse.kept_states, "dense")
        with monkeypatch.context() as patch:
            solve_densely(patch)
            seen = record_eigensolves(patch)
            dense = spectrum._product_solve(blocks, 45.0, flux, cfg)[0]
        assert seen == [("scipy.linalg.eigh", np.float64, dense.kept_states, "dense")]
        assert np.abs(sparse.eigenfrequencies_ghz - dense.eigenfrequencies_ghz).max() <= 1e-9
        assert [(label.occupations, label.ambiguous) for label in sparse.labels] == [
            (label.occupations, label.ambiguous) for label in dense.labels
        ]
        assert [label.overlap for label in sparse.labels] == pytest.approx([label.overlap for label in dense.labels])
        assert abs(computational_zeta_khz(sparse) - computational_zeta_khz(dense)) <= 1e-6

    @pytest.mark.parametrize("n_max", [3, 5])
    @pytest.mark.parametrize("flux", [0.2, 0.35])
    @pytest.mark.parametrize("params", DEGENERATE_CIRCUITS)
    def test_degenerate_circuit_matches_dense(self, monkeypatch, params, flux, n_max):
        # block Davidson may mix eigenvectors inside the degenerate subspaces; zeta, exactly 0, must not see it.
        # zeta is a difference of 20-40 GHz eigenvalues: dense LAPACK and block Davidson each round it to at most
        # 3.6e-9 kHz in these cases
        cfg = ChargeBasisConfig(n_max=n_max, num_eigenstates=16)

        def outcome():
            try:
                spec = product_spectrum(params, flux, cfg)
                return spec.kept_states, _zeta_from_spectrum(spec)
            except NumericsError as exc:
                return type(exc)

        sparse = outcome()
        with monkeypatch.context() as patch:
            solve_densely(patch)
            dense = outcome()
        if isinstance(dense, type):
            assert sparse is dense
        else:
            assert sparse[0] == dense[0] and sparse[0] > spectrum._SPARSE_MIN_PRODUCTS
            assert abs(sparse[1]) <= 2e-7 and abs(dense[1]) <= 2e-7

    @pytest.mark.parametrize("c12", [1.0, 8.0])
    def test_identical_coupled_qubits_settle_as_dense(self, monkeypatch, c12):
        # |1,0,0> and |0,1,0> tie at overlap 0.5, and which state takes which label follows the solver:
        # the accepted cutoff must not depend on it, and the labels must read as ambiguous
        params = CircuitParams(
            c11=50, c22=50, c33=50, c44=50, c12=c12, c13=0, c14=0, c23=0, c24=0, c34=0,
            ic1=10, ic2=10, ic3=10, ic4=10, ic5=10,
        )
        cfg = ChargeBasisConfig(n_max=3, num_eigenstates=16)
        split = product_spectrum(params, 0.0, cfg)
        assert min(split.sector_states) > spectrum._SPARSE_MIN_PRODUCTS
        with monkeypatch.context() as patch:
            solve_in_one_dense_matrix(patch)
            dense = product_spectrum(params, 0.0, cfg)
        assert split.e_cut_ghz == 45.0
        assert_split_matches_dense(split, dense)
        for spec in (split, dense):
            assert all(spec.level(occ)[1].ambiguous for occ in ((1, 0, 0), (0, 1, 0)))
            with pytest.raises(LabelingError, match="ambiguous"):
                _zeta_from_spectrum(spec)


def davidson_against_lapack(monkeypatch):
    """Check every block Davidson solve from here on against dense LAPACK on the same sector.

    Returns the list of (rows, |dE| max, sin of the largest angle between the two spans, its bound) per solve. The
    bound is Davis-Kahan's: the residuals, each within the contract 1e-8 ||H||_1, over the gap from the highest Ritz
    value to the next eigenvalue. It is infinite where that gap closes, since a degenerate pair cut there has no one
    span.
    """
    checked, davidson = [], spectrum._davidson_lowest

    def solve(ham, k):
        vals, vecs = davidson(ham, k)
        ref_vals, ref_vecs = sla.eigh(ham, subset_by_index=[0, k])
        ref_vecs = ref_vecs[:, :k]
        sin = np.linalg.norm(vecs - ref_vecs @ (ref_vecs.T @ vecs), 2)
        gap, tol = ref_vals[k] - vals[-1], spectrum._RESIDUAL_FACTOR * sla.norm(ham, 1)
        bound = np.sqrt(k) * tol / gap if gap > 0 else np.inf
        checked.append((ham.shape[0], np.abs(vals - ref_vals[:k]).max(), sin, bound))
        return vals, vecs

    monkeypatch.setattr(spectrum, "_davidson_lowest", solve)
    return checked


class TestBlockDavidson:
    @pytest.mark.parametrize(
        "params, flux, n_max, e_cut",
        [(None, 0.15, 7, 45.0), (None, 0.3, 7, 45.0), (None, 0.45, 7, 45.0), (None, 0.0, 7, 60.0)]
        + [(params, flux, 5, 45.0) for params in DEGENERATE_CIRCUITS for flux in (0.2, 0.35)],
    )
    def test_every_large_sector_matches_lapack(self, device, monkeypatch, params, flux, n_max, e_cut):
        # the Fig. 2 fluxes at n_max 7, both parity sectors of the 60 GHz rung at zero flux, and the exactly
        # degenerate circuits
        cfg = ChargeBasisConfig(n_max=n_max, num_eigenstates=16)
        blocks = spectrum._product_blocks(params or device, flux, cfg, 60.0)
        checked = davidson_against_lapack(monkeypatch)
        spec = spectrum._product_solve(blocks, e_cut, flux, cfg)[0]
        sizes = spec.sector_states or (spec.kept_states,)
        assert [rows for rows, *_ in checked] == [rows for rows in sizes if rows > spectrum._SPARSE_MIN_PRODUCTS]
        assert checked
        for _, d_e, sin, bound in checked:
            assert d_e <= 1e-10
            assert sin <= bound

    @pytest.mark.parametrize("flux", [0.15, 0.45])
    def test_restarts_keep_every_sector_on_lapack(self, device, monkeypatch, flux):
        # a space of twice the start block restarts at nearly every iteration, from the Ritz values as its Rayleigh
        # matrix; each restart shows as a Rayleigh matrix smaller than the one before it
        monkeypatch.setattr(spectrum, "_DAVIDSON_RESTART", 2)
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=16)
        blocks = spectrum._product_blocks(device, flux, cfg, 60.0)
        checked = davidson_against_lapack(monkeypatch)
        sizes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: sizes.append(mat.shape[0]) or eigh(mat))
        spectrum._product_solve(blocks, 45.0, flux, cfg)
        assert checked
        for _, d_e, sin, bound in checked:
            assert d_e <= 1e-10
            assert sin <= bound
        block = 16 + spectrum._DAVIDSON_EXTRA
        assert max(sizes) <= 2 * block
        assert sum(later < earlier for earlier, later in zip(sizes, sizes[1:])) >= 2

    def test_two_solves_are_bit_identical(self, device, monkeypatch):
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=16)
        blocks = spectrum._product_blocks(device, 0.45, cfg, 60.0)
        sectors, davidson = [], spectrum._davidson_lowest
        monkeypatch.setattr(spectrum, "_davidson_lowest", lambda ham, k: sectors.append(ham) or davidson(ham, k))
        spectrum._product_solve(blocks, 45.0, 0.45, cfg)
        (ham,) = sectors
        first, second = davidson(ham, 16), davidson(ham.copy(), 16)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_no_convergence_is_a_solver_error(self, device, monkeypatch):
        # the sector at 0.15 takes more than two iterations: capped at two, its residuals exceed the contract
        monkeypatch.setattr(spectrum, "_DAVIDSON_MAX_ITERATIONS", 2)
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=16)
        refused = r"eigenpair residuals exceed contract at block Davidson iteration 2 of 2: max \S+ > \S+$"
        with pytest.raises(SolverError, match=refused):
            spectrum_at(device, 0.15, cfg)
        (point,) = sweep_flux(device, [0.15], cfg)
        assert point.zeta_khz is None and re.search(refused, point.error)


def _kron_cross_terms(blocks, rows):
    """kron(2 Ec12 N1, N2, I) + kron(N1, I, X) + kron(I, N2, Y) from the reach grid to the first ``rows`` levels.

    Each factor keeps its first rows of the block; on its third block a term is the identity embedding of
    that block's reach. Written out term by term, so it does not depend on how the solve reads the table.
    """
    (i12, j12, twice_ec12, n1, n2), (i13, j13, scale13, n1_x, x), (i23, j23, scale23, n2_y, y) = blocks.couplings
    assert [(i12, j12), (i13, j13), (i23, j23)] == [(0, 1), (0, 2), (1, 2)] and scale13 == scale23 == 1.0
    r1, r2, rc = rows
    embed1, embed2, embed34 = (sp.eye(r, m) for r, m in zip(rows, blocks.reach))
    return (
        sp.kron(sp.kron(twice_ec12 * n1[:r1], n2[:r2]), embed34)
        + sp.kron(sp.kron(n1_x[:r1], embed2), x[:rc])
        + sp.kron(sp.kron(embed1, n2_y[:r2]), y[:rc])
    ).tocsr()


def _kron_product_hamiltonian(blocks):
    """diag(E) - kron(2 Ec12 N1, N2, I) - kron(N1, I, X) - kron(I, N2, Y) on the whole reach grid, in CSR."""
    e1, e2, e34 = (e[:m] for e, m in zip(blocks.energies, blocks.reach))
    diagonal = (e1[:, None, None] + e2[None, :, None] + e34[None, None, :]).ravel()
    return (sp.diags(diagonal) - _kron_cross_terms(blocks, blocks.reach)).tocsr()


class TestProductHamiltonian:
    @pytest.mark.parametrize("e_cut", [40.0, 60.0])
    @pytest.mark.parametrize("flux", [0.0, 0.3])
    def test_matches_kronecker_reference(self, device, flux, e_cut):
        blocks = spectrum._product_blocks(device, flux, CFG3, e_cut)
        e1, e2, e34 = blocks.energies
        excitation = (e1 - e1[0])[:, None, None] + (e2 - e2[0])[None, :, None] + (e34 - e34[0])[None, None, :]
        kept = excitation <= e_cut
        kept[: spectrum.LABEL_LEVELS[0], : spectrum.LABEL_LEVELS[1], : spectrum.LABEL_LEVELS[2]] = True
        a, b, c = np.nonzero(kept)
        if blocks.parities is None:
            sectors = [np.arange(a.size)]
        else:
            p1, p2, p34 = blocks.parities
            sectors = [np.flatnonzero(p1[a] * p2[b] * p34[c] == sign) for sign in (1, -1)]
        assert (blocks.parities is None) == (flux == 0.3) and sum(rows.size for rows in sectors) == a.size
        reference = _kron_product_hamiltonian(blocks)
        for rows in sectors:
            ham = spectrum._product_hamiltonian(blocks, a[rows], b[rows], c[rows])
            index = np.ravel_multi_index((a[rows], b[rows], c[rows]), blocks.reach)
            expected = reference[index][:, index].toarray()
            assert np.abs(ham - expected).max() <= 1e-13 * np.abs(expected).max()


class TestLeftOutShifts:
    @pytest.mark.parametrize("flux", [0.0, 0.3])
    def test_shifts_are_the_explicit_second_order_sum(self, device, monkeypatch, flux):
        # blocks built for 60 GHz and the kept set cut at 45: the coupler's reach holds products left out
        blocks = spectrum._product_blocks(device, flux, CFG3, 60.0)
        assert blocks.reach[2] < blocks.energies[2].size
        seen, left_out_corrections = [], spectrum._left_out_corrections

        def record(states, energies, table, kept):
            seen.append((states, energies, kept))
            return left_out_corrections(states, energies, table, kept)

        monkeypatch.setattr(spectrum, "_left_out_corrections", record)
        _, shifts, _ = spectrum._product_solve(blocks, 45.0, flux, CFG3)
        [(states, energies, kept)] = seen
        # <out|V|psi> from the reach grid to every level of every block, summed over the left-out products only
        e1, e2, e34 = blocks.energies
        amp = _kron_cross_terms(blocks, (e1.size, e2.size, e34.size)) @ states.reshape(len(states), -1).T
        out = ~kept.ravel()
        unperturbed = (e1[:, None, None] + e2[None, :, None] + e34[None, None, :]).ravel()[out]
        expected = -np.sum(amp[out] ** 2 / (unperturbed[:, None] - energies[None, :]), axis=0)
        assert len(shifts) == len(COMPUTATIONAL_OCCUPATIONS)
        np.testing.assert_allclose(shifts, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("flux", [0.0, 0.3])
    def test_third_order_is_the_explicit_sum_over_the_reach(self, device, monkeypatch, flux):
        blocks = spectrum._product_blocks(device, flux, CFG3, 60.0)
        seen, left_out_corrections = [], spectrum._left_out_corrections
        monkeypatch.setattr(
            spectrum, "_left_out_corrections", lambda *args: seen.append(args) or left_out_corrections(*args)
        )
        third_order = spectrum._product_solve(blocks, 45.0, flux, CFG3)[2]
        [(states, energies, _, kept)] = seen
        # E(3) = sum w_q <q|V|q'> w_q' over the left-out products q, q' of the reach, w_q = <q|V|psi> / (E - E_q)
        cross = _kron_cross_terms(blocks, blocks.reach)  # minus V on the reach grid
        e1, e2, e34 = (e[:m] for e, m in zip(blocks.energies, blocks.reach))
        out = ~kept[: e1.size, : e2.size, : e34.size].ravel()
        unperturbed = (e1[:, None, None] + e2[None, :, None] + e34[None, None, :]).ravel()
        psi = states.reshape(len(states), -1).T
        weights = np.where(out[:, None], -(cross @ psi) / (energies[None, :] - unperturbed[:, None]), 0.0)
        expected = np.einsum("qs,qs->s", weights, -(cross @ weights))
        assert np.any(np.abs(expected) > 1e-9)
        np.testing.assert_allclose(third_order(), expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("flux", [0.0, 0.3])
    def test_kept_state_above_a_coupled_left_out_product_is_refused_naming_both(self, device, monkeypatch, flux):
        blocks = spectrum._product_blocks(device, flux, CFG3, 60.0)
        seen, left_out_corrections = [], spectrum._left_out_corrections
        monkeypatch.setattr(
            spectrum, "_left_out_corrections", lambda *args: seen.append(args) or left_out_corrections(*args)
        )
        spectrum._product_solve(blocks, 45.0, flux, CFG3)
        [(states, energies, _, kept)] = seen
        # the ground state lifted 50 GHz, above left-out products it couples to (each lies 45 GHz or more up)
        lifted = energies.copy()
        lifted[0] += 50.0
        e1, e2, e34 = blocks.energies
        amp = _kron_cross_terms(blocks, (e1.size, e2.size, e34.size)) @ states[0].ravel()
        unperturbed = (e1[:, None, None] + e2[None, :, None] + e34[None, None, :]).ravel()
        below = unperturbed[~kept.ravel() & (amp != 0.0) & (unperturbed <= lifted[0])]
        assert below.size > 0
        message = (
            f"a left-out product state ({below.min():.4f} GHz) couples to "
            f"a kept eigenstate above it ({lifted[0]:.4f} GHz)"
        )
        with pytest.raises(TruncationError, match=re.escape(message)):
            left_out_corrections(states, lifted, blocks, kept)

    @pytest.mark.parametrize(
        ("bare_c34", "n_max", "calls"),
        # accepted at 45 GHz on the third-order estimate (0.0050 kHz): V|psi> for both orders, then V on the weights;
        # and the device as it stands at n_max 7, accepted on its second-order correction alone
        [(45.0, 4, 2), (None, 7, 1)],
        ids=["third-order", "second-order"],
    )
    def test_each_rung_forms_v_psi_once(self, device, monkeypatch, bare_c34, n_max, calls):
        params = device if bare_c34 is None else device.without_parasitics().with_c34(bare_c34)
        seen, cross_terms = [], spectrum._cross_terms
        monkeypatch.setattr(spectrum, "_cross_terms", lambda *args: seen.append(args) or cross_terms(*args))
        spec = product_spectrum(params, 0.0, ChargeBasisConfig(n_max=n_max, num_eigenstates=16))
        assert spec.e_cut_ghz == 45.0 and (spec.remainder_khz is None) == (bare_c34 is None)
        assert len(seen) == calls


class TestZZ:
    def test_decoupled_zero(self, decoupled):
        assert abs(zz_interaction(decoupled, 0.0, CFG3)) < 1e-3

    def test_evenness_small_basis(self, device):
        plus = zz_interaction(device, 0.2, CFG4)
        minus = zz_interaction(device, -0.2, CFG4)
        assert minus == pytest.approx(plus, rel=1e-6)

    @pytest.mark.parametrize("solve", [product_spectrum, charge_spectrum])
    def test_mixed_branch_label_refused_by_its_margin(self, device, solve):
        # between the |1,1,0>/|1,0,1> crossing (near 0.376) and the |0,1,0>/|0,0,1> one (near 0.381), E_010 is read on
        # the lower branch and E_110 on the upper: every overlap passes 0.5, but |0,1,0> leads its next one by 0.061
        spec = solve(device, 0.38, ChargeBasisConfig(n_max=7))
        assert not any(spec.level(occ)[1].ambiguous for occ in COMPUTATIONAL_OCCUPATIONS)
        assert spec.level((0, 1, 0))[1].margin == pytest.approx(0.061, abs=0.001)
        with pytest.raises(LabelingError, match=re.escape("label (0, 1, 0) is mixed (margin 0.061 < 0.1")) as err:
            _zeta_from_spectrum(spec)
        assert err.value.spectrum is spec

    def test_ambiguous_labels_refused_with_spectrum_attached(self, device):
        # the avoided crossing near phi_ex = 0.45 leaves |1100> hybridized
        cfg = ChargeBasisConfig(n_max=7, num_eigenstates=20)
        with pytest.raises(LabelingError, match="ambiguous") as err:
            zz_interaction(device, 0.45, cfg)
        assert err.value.spectrum is not None


class TestSweeps:
    def test_single_point_matches_zz(self, device):
        points = sweep_flux(device, [0.0], CFG4)
        direct = zz_interaction(device, 0.0, CFG4)
        assert len(points) == 1
        assert points[0].zeta_khz == direct

    def test_grid_validation(self, device):
        with pytest.raises(ValueError):
            sweep_flux(device, [], CFG4)
        with pytest.raises(ValueError):
            sweep_flux(device, [0.7], CFG4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_flux_refused_before_solving(self, device, monkeypatch, bad):
        solved = []
        monkeypatch.setattr(spectrum, "spectrum_at", lambda *args: solved.append(args))
        with pytest.raises(ValueError, match=re.escape("flux grid must lie within [-0.5, 0.5]")):
            sweep_flux(device, [0.1, bad], CFG4)
        assert solved == []

    def test_failures_recorded_and_sweep_continues(self, device):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)  # cannot label |1100>
        points = sweep_flux(device, [0.0, 0.1], cfg)
        assert len(points) == 2
        assert all(p.zeta_khz is None and p.error for p in points)

    def test_c34_grid_validation(self, device):
        with pytest.raises(ValueError):
            sweep_c34(device, [], CFG4)
        with pytest.raises(ValueError):
            sweep_c34(device, [-1.0], CFG4)

    def test_c34_single_point_matches_zz(self, device):
        points = sweep_c34(device, [30.3], CFG4)
        direct = zz_interaction(device, 0.0, CFG4)
        assert points[0].zeta_khz == direct
        assert points[0].error is None

    def test_failed_c34_rows_carry_the_flux_sweep_error(self, device):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)  # cannot label |1100>
        points = sweep_c34(device, [10.0, 30.0], cfg)
        assert [p.c34_ff for p in points] == [10.0, 30.0]
        for point in points:
            assert point.zeta_khz is None and point.zeta_pert_khz is not None
            assert point.error == sweep_flux(device.with_c34(point.c34_ff), [0.0], cfg)[0].error

    def test_points_independent_of_grid_order(self, device):
        forward = sweep_flux(device, [0.0, 0.1], CFG4)
        backward = sweep_flux(device, [0.1, 0.0], CFG4)
        assert forward[0].zeta_khz == backward[1].zeta_khz
        assert forward[1].zeta_khz == backward[0].zeta_khz
        # a shuffled grid of mirrors, negative members first: each |phi| is still solved at +|phi|
        grid = np.linspace(-0.3, 0.3, 7)
        order = [0, 5, 3, 1, 6, 2, 4]
        ordered = sweep_flux(device, grid, CFG4)
        shuffled = sweep_flux(device, grid[order], CFG4)
        for point, i in zip(shuffled, order):
            assert point.phi_ex == ordered[i].phi_ex == grid[i]
            assert point.zeta_khz == ordered[i].zeta_khz
            assert np.array_equal(point.spectrum.eigenfrequencies_ghz, ordered[i].spectrum.eigenfrequencies_ghz)

    @pytest.mark.parametrize(
        "grid, cfg, solves",
        [(np.linspace(-0.45, 0.45, 4), CFG4, 2), (np.linspace(-0.5, 0.5, 101), CFG3, 51)],
        ids=["bench-grid", "fig2-grid"],
    )
    def test_each_distinct_abs_flux_solved_once(self, device, monkeypatch, grid, cfg, solves):
        solved = []
        solve = spectrum.spectrum_at

        def spy(params, flux, config):
            solved.append(flux)
            return solve(params, flux, config)

        monkeypatch.setattr(spectrum, "spectrum_at", spy)
        points = sweep_flux(device, grid, cfg)
        assert len(solved) == solves
        assert all(flux >= 0.0 for flux in solved)
        assert [p.phi_ex for p in points] == grid.tolist()
        for point, mirror in zip(points, points[::-1]):
            assert point.phi_ex == pytest.approx(-mirror.phi_ex, abs=1e-12)
            assert point.zeta_khz == mirror.zeta_khz
            assert point.error == mirror.error
            if point.spectrum is not None:
                assert point.spectrum.flux == point.phi_ex
                assert np.array_equal(point.spectrum.eigenfrequencies_ghz, mirror.spectrum.eigenfrequencies_ghz)

    def test_mirrored_row_matches_its_own_solve(self, device, monkeypatch):
        # the only member of its group is negative, so the row copies the solve at +0.2
        solved = []
        solve = spectrum.spectrum_at
        monkeypatch.setattr(spectrum, "spectrum_at", lambda *args: solved.append(args[1]) or solve(*args))
        (point,) = sweep_flux(device, [-0.2], CFG4)
        assert solved == [0.2]
        assert point.phi_ex == point.spectrum.flux == -0.2
        monkeypatch.undo()
        assert point.zeta_khz == pytest.approx(zz_interaction(device, -0.2, CFG4), rel=1e-6)


class TestLevelContinuity:
    def test_labeled_levels_continuous_in_flux(self, device):
        # jumps of labeled levels along a fine grid stay within 3x the local
        # slope estimate, so labels do not swap between adjacent points
        cfg = ChargeBasisConfig(n_max=4, num_eigenstates=16)
        grid = np.linspace(0.0, 0.3, 13)
        points = sweep_flux(device, grid, cfg)
        step = grid[1] - grid[0]
        for occ in ((1, 0, 0), (0, 1, 0), (1, 1, 0)):
            levels = []
            for point in points:
                if point.spectrum is None:
                    levels.append(None)
                    continue
                freq, label = point.spectrum.level(occ)
                levels.append(freq if not label.ambiguous else None)
            for i in range(1, len(levels) - 1):
                window = levels[i - 1 : i + 2]
                if any(v is None for v in window):
                    continue
                jump = abs(window[2] - window[1])
                slope = abs(window[2] - window[0]) / (2.0 * step)
                assert jump <= 3.0 * max(slope * step, 1e-4)


class TestConvergenceStudy:
    def test_decoupled_zeta_zero_at_every_n_max(self, decoupled):
        study = convergence_study(decoupled, 0.0, CFG3, [3, 4])
        assert all(abs(z) < 1e-3 for z in study.zeta_khz_values)
        assert study.converged

    def test_each_value_is_zz_at_that_n_max(self, device):
        study = convergence_study(device, 0.15, CFG4, [3, 4])
        for n_max, zeta in zip(study.n_max_values, study.zeta_khz_values):
            assert zeta == zz_interaction(device, 0.15, replace(CFG4, n_max=n_max))

    def test_zero_flux_gate_rejects_5_7_9(self, device):
        # zeta -43.978 / -35.353 / -35.224 kHz: still 0.130 kHz from n_max 7 to 9
        study = convergence_study(device, 0.0, ChargeBasisConfig(), [5, 7, 9])
        assert study.deltas_khz[-1] > ZETA_GATE_KHZ
        assert not study.converged

    def test_zero_flux_gate_accepts_7_9_11(self, device):
        study = convergence_study(device, 0.0, ChargeBasisConfig(), [7, 9, 11])
        assert study.deltas_khz[-1] < 0.01
        assert study.converged

    def test_non_integer_n_max_refused_before_solving(self, device, monkeypatch):
        solved = []
        monkeypatch.setattr(spectrum, "zz_interaction", lambda *args: solved.append(args))
        with pytest.raises(ConfigError, match="n_max must be an integer >= 3, got 3.9"):
            convergence_study(device, 0.0, CFG4, [3.9, 4.2])
        assert solved == []

    def test_requires_two_ascending(self, decoupled):
        with pytest.raises(ValueError):
            convergence_study(decoupled, 0.0, CFG3, [5])
        with pytest.raises(ValueError):
            convergence_study(decoupled, 0.0, CFG3, [5, 5])


# at n_max 3 and flux 0.15 every cutoff's correction is 13-78 times its bound, so the charge basis solves that point
FALLBACK_CIRCUIT = CircuitParams(
    c11=99.178, c22=105.321, c33=60.626, c44=136.438,
    c12=8.361, c13=13.414, c14=1.718, c23=0.082, c24=5.855, c34=10.25,
    ic1=65.687, ic2=63.384, ic3=38.83, ic4=37.286, ic5=50.02,
)
# strongly coupled, yet at n_max 3 and flux 0.15 settled at 55 GHz
SETTLING_CIRCUIT = CircuitParams(
    c11=112.51, c22=139.721, c33=127.569, c44=72.521,
    c12=9.005, c13=26.207, c14=0.158, c23=24.637, c24=23.912, c34=14.038,
    ic1=28.182, ic2=26.706, ic3=25.292, ic4=36.705, ic5=40.273,
)


def test_strongly_coupled_circuit_settles_near_the_oracle():
    cfg = ChargeBasisConfig(n_max=3, num_eigenstates=16)
    spec = spectrum_at(SETTLING_CIRCUIT, 0.15, cfg)
    assert spec.backend == "product"
    oracle = _zeta_from_spectrum(charge_spectrum(SETTLING_CIRCUIT, 0.15, cfg))
    assert _zeta_from_spectrum(spec) == pytest.approx(oracle, abs=ZETA_GATE_KHZ)


class TestOracleCut:
    # four equal nodes, no mutuals: the oracle's levels at flux 0 pair up, first at E_5 = E_6, and not at E_15, E_16
    TWIN_NODES = CircuitParams(
        c11=50, c22=50, c33=50, c44=50, c12=0, c13=0, c14=0, c23=0, c24=0, c34=0,
        ic1=10, ic2=10, ic3=10, ic4=10, ic5=10,
    )

    def test_k_cutting_a_degenerate_pair_is_refused_naming_the_gap(self):
        cfg = ChargeBasisConfig(n_max=3, num_eigenstates=6)
        with pytest.raises(SolverError, match="the lowest 6 charge-basis states cut a near-degenerate multiplet") as err:
            charge_spectrum(self.TWIN_NODES, 0.0, cfg)
        gap, tol = re.search(r"E_6 - E_5 = (\S+) GHz, within the residual tolerance (\S+) GHz", str(err.value)).groups()
        assert float(gap) < 1e-12 and 1e-7 < float(tol) < 1e-6

    def test_k_between_multiplets_is_answered(self):
        spec = charge_spectrum(self.TWIN_NODES, 0.0, ChargeBasisConfig(n_max=3, num_eigenstates=16))
        assert spec.backend == "charge" and len(spec.labels) == 16


def test_fallback_csv_is_the_same_at_every_seed(tmp_path):
    # --seed is accepted and checked, but no Lanczos start vector follows it, so the oracle writes one CSV
    params = tmp_path / "fallback.json"
    save_params(FALLBACK_CIRCUIT, params)
    outs = [tmp_path / f"zz_seed{seed}.csv" for seed in (0, 7)]
    for seed, out in zip((0, 7), outs):
        argv = ["zz", "--params", str(params), "--flux-grid=-0.15:0.15:3", "--n-max", "3", "--seed", str(seed)]
        assert main([*argv, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert [row.split(",")[2] for row in outs[0].read_text().splitlines()[1:]] == ["0", "0", "0"]


class TestCsvWriters:
    def test_flux_zz_csv(self, tmp_path, device):
        points = sweep_flux(device, [0.0, 0.1], CFG4)
        path = tmp_path / "zz.csv"
        write_flux_zz_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "phi_ex,zeta_kHz,ambiguous_flag"
        assert len(lines) == 3
        assert lines[1].endswith(",0")

    def test_spectrum_csv_and_determinism(self, tmp_path, device):
        points = sweep_flux(device, [0.0], CFG4)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_spectrum_csv(points, path_a)
        write_spectrum_csv(points, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        header = path_a.read_text().splitlines()[0].split(",")
        assert header[:5] == ["phi_ex", "E_0000_GHz", "E_1000_GHz", "E_0100_GHz", "E_1100_GHz"]

    def test_failed_point_leaves_empty_cells(self, tmp_path, device):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)
        points = sweep_flux(device, [0.0], cfg)
        path = tmp_path / "zz.csv"
        write_flux_zz_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[1] == ""
        assert lines[1].endswith(",1")

    def test_spectrum_csv_failed_point_leaves_empty_cells(self, tmp_path, device):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)
        points = sweep_flux(device, [0.0], cfg)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(points, path)
        cells = path.read_text().splitlines()[1].split(",")
        assert cells[0] == "0.0"
        assert cells[1:] == [""] * 8

    def test_c34_csv_columns(self, tmp_path, device):
        points = sweep_c34(device, [30.3], CFG4)
        path = tmp_path / "c34.csv"
        write_c34_zz_csv(points, path)
        header = path.read_text().splitlines()[0]
        assert header == "C34_fF,zeta_exact_kHz,zeta_pert_kHz,g12_MHz,ambiguous_flag"
