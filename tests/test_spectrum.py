import itertools
from dataclasses import replace

import numpy as np
import pytest

from csdtc.errors import LabelingError, TruncationError
from csdtc.hamiltonian import ChargeBasisConfig, assemble_hamiltonian
from csdtc.spectrum import (
    COMPUTATIONAL_OCCUPATIONS,
    _zeta_from_spectrum,
    charge_spectrum,
    convergence_study,
    hierarchical_spectrum,
    label_states,
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


class TestSolveLowest:
    def test_two_by_two(self):
        vals, vecs = solve_lowest(np.diag([1.0, 2.0]), 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(vecs[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            solve_lowest(np.diag([1.0, 2.0]), 2)

    def test_sparse_matches_dense_oracle(self, device):
        ham = assemble_hamiltonian(device, 0.25, CFG3)
        sparse_vals, _ = solve_lowest(ham, 10)
        dense_vals = np.linalg.eigvalsh(ham.matrix.toarray())[:10]
        assert np.allclose(sparse_vals, dense_vals, rtol=1e-9)

    def test_orthonormal_eigenvectors(self, device):
        ham = assemble_hamiltonian(device, 0.1, CFG3)
        _, vecs = solve_lowest(ham, 8)
        gram = vecs.conj().T @ vecs
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    def test_decoupled_eigenvalues_are_single_mode_sums(self, decoupled):
        ham = assemble_hamiltonian(decoupled, 0.0, CFG3)
        vals, _ = solve_lowest(ham, 10)
        block_vals = [np.linalg.eigvalsh(h) for h in ham.modes]
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
        assert abs(zz_interaction(coupled, 0.0, CFG4).zeta_khz) < 1e-3

    def test_device_computational_labels_confident(self, device):
        spec = spectrum_at(device, 0.0, ChargeBasisConfig(n_max=5, num_eigenstates=16))
        for occ in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)):
            _, label = spec.level(occ)
            assert label.overlap > 0.8
            assert not label.ambiguous

    def test_missing_labels_reported_with_candidates(self, device):
        # at n_max=5 the coupler modes sit below |1100>, so k=6 cannot reach it
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)
        ham = assemble_hamiltonian(device, 0.0, cfg)
        _, vecs = solve_lowest(ham, 6)
        with pytest.raises(LabelingError, match="1, 1, 0") as err:
            label_states(vecs, ham)
        assert err.value.candidates

    def test_eigenfrequencies_relative_and_sorted(self, device):
        spec = spectrum_at(device, 0.0, CFG4)
        freqs = spec.eigenfrequencies_ghz
        assert freqs[0] == 0.0
        assert np.all(np.diff(freqs) >= 0)

    def test_k_beyond_label_space_rejected(self, device):
        cfg = ChargeBasisConfig(n_max=3, num_eigenstates=100)
        with pytest.raises(LabelingError, match="label space"):
            spectrum_at(device, 0.0, cfg)


class TestBackends:
    @pytest.mark.parametrize("n_max, backend", [(4, "charge"), (5, "hierarchical")])
    def test_backend_chosen_by_basis_size(self, device, n_max, backend):
        spec = spectrum_at(device, 0.0, ChargeBasisConfig(n_max=n_max, num_eigenstates=16))
        assert spec.backend == backend

    @pytest.mark.parametrize("flux", [0.0, 0.15, -0.15, 0.25])
    def test_hierarchical_matches_charge_oracle(self, device, flux):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        spec = spectrum_at(device, flux, cfg)
        ham = assemble_hamiltonian(device, flux, cfg)
        vals, vecs = solve_lowest(ham, cfg.num_eigenstates)
        oracle = [label.occupations for label in label_states(vecs, ham)]
        zeta_khz, oracle_zeta_khz = 0.0, 0.0
        for occ, sign in zip(COMPUTATIONAL_OCCUPATIONS, (1, -1, -1, 1)):
            state = oracle.index(occ)
            assert spec.labels[state].occupations == occ
            assert spec.eigenfrequencies_ghz[state] == pytest.approx(vals[state] - vals[0], abs=1e-5)
            zeta_khz += sign * spec.eigenfrequencies_ghz[state] * 1e6
            oracle_zeta_khz += sign * (vals[state] - vals[0]) * 1e6
        assert zeta_khz == pytest.approx(oracle_zeta_khz, abs=0.01)

    def test_circuit_outside_truncation_falls_back_to_charge_basis(self, device):
        # a 5 fF direct qubit-qubit capacitance couples the qubits to their levels above the 6 kept
        coupled = replace(device, c12=5.0)
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        with pytest.raises(TruncationError, match="shift zeta by about"):
            hierarchical_spectrum(coupled, 0.0, cfg)
        spec = spectrum_at(coupled, 0.0, cfg)
        oracle = charge_spectrum(coupled, 0.0, cfg)
        assert spec.backend == "charge"
        assert np.array_equal(spec.eigenfrequencies_ghz, oracle.eigenfrequencies_ghz)


    def test_truncation_estimate_accounts_for_hierarchical_error(self, device):
        # mutuals of a few fF between all blocks, so each of the three cross terms shifts zeta
        coupled = replace(device, c12=2.0, c13=20.0, c24=20.0, c14=5.0, c23=5.0)
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        with pytest.raises(TruncationError) as refused:
            hierarchical_spectrum(coupled, 0.0, cfg)
        oracle_khz = _zeta_from_spectrum(charge_spectrum(coupled, 0.0, cfg))
        error_khz = _zeta_from_spectrum(refused.value.spectrum) - oracle_khz
        assert error_khz == pytest.approx(-refused.value.zeta_shift_khz, rel=0.1)

class TestZZ:
    def test_decoupled_zero(self, decoupled):
        result = zz_interaction(decoupled, 0.0, CFG3)
        assert abs(result.zeta_khz) < 1e-3

    def test_certified_convergence_delta(self, decoupled):
        result = zz_interaction(decoupled, 0.0, CFG3, certify=True)
        assert result.convergence_delta_khz is not None
        assert result.convergence_delta_khz < 1e-3

    def test_evenness_small_basis(self, device):
        plus = zz_interaction(device, 0.2, CFG4).zeta_khz
        minus = zz_interaction(device, -0.2, CFG4).zeta_khz
        assert minus == pytest.approx(plus, rel=1e-6)

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
        assert points[0].zeta_khz == direct.zeta_khz

    def test_grid_validation(self, device):
        with pytest.raises(ValueError):
            sweep_flux(device, [], CFG4)
        with pytest.raises(ValueError):
            sweep_flux(device, [0.7], CFG4)

    def test_failures_recorded_and_sweep_continues(self, device):
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=6)  # cannot label |1100>
        points = sweep_flux(device, [0.0, 0.1], cfg)
        assert len(points) == 2
        assert all(p.zeta_khz is None and p.error for p in points)

    def test_c34_grid_validation(self, device):
        with pytest.raises(ValueError):
            sweep_c34(device, [], 0.0, CFG4)
        with pytest.raises(ValueError):
            sweep_c34(device, [-1.0], 0.0, CFG4)

    def test_c34_single_point_matches_zz(self, device):
        points = sweep_c34(device, [30.3], 0.0, CFG4)
        direct = zz_interaction(device, 0.0, CFG4)
        assert points[0].zeta_khz == pytest.approx(direct.zeta_khz, rel=1e-12)
        assert points[0].error is None

    def test_c34_zero_parasitics_flag(self, device):
        flagged = sweep_c34(device, [30.3], 0.0, CFG4, zero_parasitics=True)
        bare = sweep_c34(device.without_parasitics(), [30.3], 0.0, CFG4)
        assert flagged[0].zeta_khz == pytest.approx(bare[0].zeta_khz, rel=1e-12)

    def test_points_independent_of_grid_order(self, device):
        forward = sweep_flux(device, [0.0, 0.1], CFG4)
        backward = sweep_flux(device, [0.1, 0.0], CFG4)
        assert forward[0].zeta_khz == backward[1].zeta_khz
        assert forward[1].zeta_khz == backward[0].zeta_khz


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
        study = convergence_study(decoupled, 0.0, [3, 4], num_eigenstates=8)
        assert all(abs(z) < 1e-3 for z in study.zeta_khz_values)
        assert study.converged

    def test_device_zero_flux_converges_below_1khz(self, device):
        study = convergence_study(device, 0.0, [5, 7, 9])
        assert study.deltas_khz[-1] < 1.0
        assert study.converged

    def test_requires_two_ascending(self, decoupled):
        with pytest.raises(ValueError):
            convergence_study(decoupled, 0.0, [5])
        with pytest.raises(ValueError):
            convergence_study(decoupled, 0.0, [5, 5])


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
        points = sweep_c34(device, [30.3], 0.0, CFG4)
        path = tmp_path / "c34.csv"
        write_c34_zz_csv(points, path)
        header = path.read_text().splitlines()[0]
        assert header == "C34_fF,zeta_exact_kHz,zeta_pert_kHz,g12_MHz,ambiguous_flag"
