import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import csdtc
from csdtc import perturbative, spectrum
from csdtc.circuit import CircuitParams, params_to_dict, reference_device, save_params
from csdtc.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main, parse_grid
from csdtc.design import bounded_argmin
from csdtc.errors import BracketError, ConfigError
from csdtc.hamiltonian import ChargeBasisConfig
from csdtc.rb import (
    KIND_POPULATION_0000,
    KIND_POPULATION_X1,
    KIND_PURITY,
    SLOT_EXPECTATIONS,
    RBTrace,
    synth_trace,
    write_trace_csv,
)

LENGTHS = (1, 5, 10, 20, 40, 80, 120, 200, 300)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    save_params(reference_device(), path)
    return str(path)


class TestParseGrid:
    def test_single_value(self):
        assert np.array_equal(parse_grid("0"), np.array([0.0]))

    def test_linspace_inclusive(self):
        grid = parse_grid("5:100:96")
        assert grid.size == 96
        assert grid[0] == 5.0 and grid[-1] == 100.0

    @pytest.mark.parametrize("text", ["a:b:c", "1:2", "1:2:0", "", "1:2:3:4", "0:0.5:1"])
    def test_malformed(self, text):
        with pytest.raises(ConfigError, match=re.escape(f"malformed grid {text!r}")):
            parse_grid(text)

    def test_one_point_needs_equal_endpoints(self):
        assert np.array_equal(parse_grid("0.25:0.25:1"), np.array([0.25]))


class TestBoundedArgmin:
    """``bounded_argmin``: Brent's bounded search, golden-section steps sped up by parabolic ones."""

    def test_parabola(self):
        x = bounded_argmin(lambda x: (x - 3.2) ** 2, 0.0, 10.0, tol=1e-5)
        assert x == pytest.approx(3.2, abs=1e-3)

    def test_v_shape(self):
        x = bounded_argmin(lambda x: abs(x - 7.0), 0.0, 10.0, tol=1e-5)
        assert x == pytest.approx(7.0, abs=1e-3)

    def test_bracket_excluding_minimum(self):
        with pytest.raises(BracketError):
            bounded_argmin(lambda x: (x - 30.0) ** 2, 0.0, 10.0, tol=1e-4)

    def test_invalid_bracket(self):
        with pytest.raises(ConfigError):
            bounded_argmin(lambda x: x, 5.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(34.0, float("inf")), (float("-inf"), 58.0), (float("nan"), 58.0)])
    def test_non_finite_bracket(self, lo, hi):
        calls = []

        def parabola(x):
            calls.append(x)
            return (x - 50.0) ** 2

        with pytest.raises(ConfigError, match="bracket must be finite"):
            bounded_argmin(parabola, lo, hi)
        assert calls == []

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_invalid_tolerance(self, tol):
        calls = []

        def parabola(x):
            calls.append(x)
            return (x - 50.0) ** 2

        with pytest.raises(ConfigError, match="tolerance"):
            bounded_argmin(parabola, 10.0, 90.0, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("tol", [11.976, 12.0, 1e6])
    def test_tolerance_leaving_no_interior_refused_before_any_evaluation(self, tol):
        # on [34, 58] each end refuses an argmin within tol + 0.024, so from 11.976 the two zones meet
        calls = []
        with pytest.raises(ConfigError) as err:
            bounded_argmin(lambda x: calls.append(x) or abs(x - 46.0), 34.0, 58.0, tol=tol)
        assert type(err.value) is ConfigError
        assert str(err.value) == (
            f"bracket tolerance {tol:g} leaves no interior in [34.0, 58.0]: an argmin within tol + (hi - lo)/1000 "
            "of either end is refused, so the tolerance must be below 11.976"
        )
        assert calls == []

    def test_tolerance_just_below_the_limit_searches(self):
        calls = []
        with pytest.raises(BracketError, match="bracket edge"):
            bounded_argmin(lambda x: calls.append(x) or abs(x - 46.0), 34.0, 58.0, tol=np.nextafter(11.976, 0.0))
        assert calls


class TestSpectrumCommand:
    def test_rows_and_determinism(self, tmp_path, params_file):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["spectrum", "--params", params_file, "--n-max", "4", "--k", "12",
                "--flux-grid=-0.2:0.2:3"]
        assert main(base + ["--out", str(out_a)]) == EXIT_OK
        assert main(base + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert len(lines) == 4  # header + 3 data rows

    def test_empty_grid_is_usage_error(self, tmp_path, params_file):
        code = main(["spectrum", "--params", params_file, "--out", str(tmp_path / "o.csv"),
                     "--flux-grid", "0:0.5:0"])
        assert code == EXIT_USAGE

    def test_missing_out_is_usage_error(self, params_file):
        assert main(["spectrum", "--params", params_file]) == EXIT_USAGE

    def test_unknown_params_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"node_caps_fF": [1, 2, 3, 4], "oops": 1}))
        code = main(["spectrum", "--params", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE

    def test_null_params_value_names_file_and_key(self, tmp_path, capsys, params_file):
        doc = json.loads(Path(params_file).read_text())
        doc["node_caps_fF"][0] = None
        bad = tmp_path / "null.json"
        bad.write_text(json.dumps(doc))
        code = main(["spectrum", "--params", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(bad) in err and "node_caps_fF[0]" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "value, problem",
        [
            (True, "must be a number, got True"),
            ("108", "must be a number, got '108'"),
            (10**400, "must fit in a float, got an integer of 401 digits"),  # float() overflows on it
        ],
        ids=["bool", "string", "oversized_integer"],
    )
    def test_non_number_params_value_names_file_and_key(self, tmp_path, capsys, params_file, value, problem):
        doc = json.loads(Path(params_file).read_text())
        doc["mutual_caps_fF"]["C34"] = value
        bad = tmp_path / "not_a_number.json"
        bad.write_text(json.dumps(doc))
        code = main(["spectrum", "--params", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: parameter file {bad}: mutual_caps_fF.C34 {problem}\n"

    def test_non_utf8_params_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff")
        code = main(["spectrum", "--params", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter file {bad}: ")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--flux-grid", "0"],
        ["zz", "--flux-grid", "0"],
        ["pert-compare", "--c34-grid", "28:32:2"],
        ["pert-compare", "--c34-grid", "28:32:2", "--zero-parasitics"],
        ["design", "--bracket", "34:58", "--bracket-tol", "10"],
        ["design", "--formula-only"],
    ],
    ids=["spectrum", "zz_flux", "pert_compare", "pert_compare_zero_parasitics", "design", "design_formula_only"],
)
def test_inadmissible_params_file_is_usage_error_naming_it(tmp_path, capsys, argv):
    # the parasitic-free commands drop C12, so only a check at load time sees it
    doc = params_to_dict(reference_device())
    doc["mutual_caps_fF"]["C12"] = -5.0
    bad = tmp_path / "negative_c12.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(argv + ["--params", str(bad), "--n-max", "3", "--k", "8", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: parameter file {bad}: mutual capacitance C12 must be non-negative, got -5.0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["zz", "--flux-grid=-0.15:0.15:3"],
        ["design", "--formula-only"],
        ["pert-compare", "--c34-grid", "40:50:3"],
    ],
    ids=["zz", "design_formula_only", "pert_compare"],
)
def test_overflowing_josephson_energy_is_numerical_failure_naming_the_junction(tmp_path, capsys, argv):
    # 1e300 nA is a finite JSON number, but EJ1 overflows: refused before any solve, with no output
    doc = params_to_dict(reference_device())
    doc["critical_currents_nA"][0] = 1e300
    bad = tmp_path / "overflowing_ic1.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(argv + ["--params", str(bad), "--n-max", "3", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "error: EJ1 of critical current Ic1 = 1e+300 nA overflows to inf\n"
    assert not out.exists()


def test_overflowing_charging_matrix_is_numerical_failure_naming_it(tmp_path, capsys):
    # condition number 1, so only the inverse's overflow shows; it once reached the eigensolver as exit 2
    tiny = replace(reference_device(), c11=1e-300, c22=1e-300, c33=1e-300, c44=1e-300,
                   c12=0.0, c13=0.0, c14=0.0, c23=0.0, c24=0.0, c34=0.0)
    params = tmp_path / "subnormal_caps.json"
    save_params(tiny, params)
    out = tmp_path / "zz.csv"
    code = main(["zz", "--params", str(params), "--flux-grid", "0.15", "--n-max", "3", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: charging matrix overflows: the capacitance matrix, largest entry 1.000e-315 F, is too small to invert\n"
    )
    assert not out.exists()


class TestZZCommand:
    def test_flux_single_point(self, tmp_path, params_file):
        out = tmp_path / "zz.csv"
        code = main(["zz", "--params", params_file, "--n-max", "5", "--k", "16",
                     "--flux-grid", "0", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "phi_ex,zeta_kHz,ambiguous_flag"
        assert len(lines) == 2
        zeta = float(lines[1].split(",")[1])
        assert -150.0 < zeta < 0.0

    def test_negative_seed_refused_before_solving(self, tmp_path, params_file, capsys, monkeypatch):
        # the CLI refuses the seed before the sweep starts, though no solve reads it
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("spectrum_at called")

        monkeypatch.setattr("csdtc.spectrum.spectrum_at", no_eigensolve)
        out = tmp_path / "zz.csv"
        code = main(["zz", "--params", params_file, "--n-max", "3", "--flux-grid", "0.3", "--seed", "-1",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_requires_exactly_one_grid(self, tmp_path, params_file):
        out = str(tmp_path / "zz.csv")
        assert main(["zz", "--params", params_file, "--out", out]) == EXIT_USAGE
        assert main(["zz", "--params", params_file, "--out", out,
                     "--flux-grid", "0", "--c34-grid", "30"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, extra, flag", [
        ("zz", ["--zero-parasitics"], "--zero-parasitics"),
        ("zz", ["--flux", "0.3"], "--flux"),
        ("pert-compare", [], "--c34-grid"),
    ])
    def test_flags_without_effect_on_flux_grid_refused(self, tmp_path, params_file, capsys, command, extra, flag):
        out = tmp_path / "zz.csv"
        code = main([command, "--params", params_file, "--n-max", "3", "--k", "8",
                     "--flux-grid", "0", "--out", str(out)] + extra)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert flag in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_truncation_through_degenerate_coupler_pair_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # uncoupled coupler nodes detuned by 3e-9 of C44: coupler levels 1 and 2 are the |01>, |10> pair, 1e-8 GHz apart
        near_symmetric = CircuitParams(
            c11=108.0, c22=80.0, c33=90.0, c44=90.0 * (1.0 + 3e-9),
            c12=0.0, c13=0.0, c14=0.0, c23=0.0, c24=0.0, c34=0.0,
            ic1=26.7, ic2=26.6, ic3=55.2, ic4=55.2, ic5=1e-9,
        )
        path = tmp_path / "near_symmetric.json"
        save_params(near_symmetric, path)
        cfg = ChargeBasisConfig(n_max=5, num_eigenstates=16)
        e1, _, e34 = spectrum._product_blocks(near_symmetric, 0.0, cfg, np.inf).energies
        x1, x34 = e1 - e1[0], e34 - e34[0]
        # a cutoff between the products (3, 0, 1) and (3, 0, 2)
        e_cut = x1[3] + (x34[1] + x34[2]) / 2.0
        assert x1[3] + x34[1] < e_cut < x1[3] + x34[2]
        monkeypatch.setattr(spectrum, "_E_CUT_LADDER", ((e_cut, 0.5, None), (e_cut + 5.0, 0.5, None)))
        code = main(["zz", "--params", str(path), "--n-max", "5", "--k", "16",
                     "--flux-grid", "0", "--out", str(tmp_path / "zz.csv")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "near-degenerate pair of products" in err and "gap" in err

    def test_failures_tolerated_up_to_ten_percent(self, tmp_path, params_file):
        # k=6 cannot label |1100> at n_max=5, so every point fails -> numerical exit
        code = main(["zz", "--params", params_file, "--n-max", "5", "--k", "6",
                     "--flux-grid", "0", "--out", str(tmp_path / "zz.csv")])
        assert code == EXIT_NUMERICAL

    def test_failures_counted_per_row_not_per_solve(self, tmp_path, params_file, capsys):
        # at n_max 4 only |phi| = 0.45 fails on this grid: one of 10 solves, but 2 of 19 rows, past 10 %
        code = main(["zz", "--params", params_file, "--n-max", "4", "--k", "12",
                     "--flux-grid=-0.45:0.45:19", "--out", str(tmp_path / "zz.csv")])
        assert code == EXIT_NUMERICAL
        failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed at")]
        assert [line.split(":")[0] for line in failed] == ["failed at phi_ex=-0.45", "failed at phi_ex=0.45"]
        assert failed[0].split(":", 1)[1] == failed[1].split(":", 1)[1]
        flags = [line.rsplit(",", 1)[1] for line in (tmp_path / "zz.csv").read_text().splitlines()[1:]]
        assert flags == ["1"] + ["0"] * 17 + ["1"]

    def test_kept_set_too_small_for_k_is_a_failed_point_at_every_flux(self, tmp_path, capsys):
        # at 45 GHz this circuit keeps exactly the 54-product label corner: at flux 0 a parity sector, and at
        # +-0.25 the one sector, holds too few products for k = 54, so each row fails and the sweep goes on
        small = CircuitParams(
            c11=2, c22=2, c33=2, c44=2, c12=0.01, c13=0.1, c14=0.01, c23=0.01, c24=0.1, c34=0.1,
            ic1=100, ic2=100, ic3=100, ic4=100, ic5=100,
        )
        path, out = tmp_path / "small.json", tmp_path / "zz.csv"
        save_params(small, path)
        code = main(["zz", "--params", str(path), "--n-max", "3", "--k", "54",
                     "--flux-grid=-0.25:0.25:3", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed at")]
        one_sector = ": the product basis holds 54 products, too few for its lowest 54 states"
        assert failed == [
            "failed at phi_ex=-0.25" + one_sector,
            "failed at phi_ex=0.0: a parity sector of the product basis holds 26 products (even 28, odd 26), "
            "too few for its lowest 54 states",
            "failed at phi_ex=0.25" + one_sector,
        ]
        rows = out.read_text().splitlines()
        assert rows[0] == "phi_ex,zeta_kHz,ambiguous_flag" and [row.split(",")[1:] for row in rows[1:]] == [["", "1"]] * 3

    def test_failed_points_named_to_12_decimals(self, tmp_path, params_file, capsys):
        # np.linspace gives 0.43000000000000005 here; the CSV keeps that text, stderr reads 0.43
        out = tmp_path / "zz.csv"
        code = main(["zz", "--params", params_file, "--n-max", "4", "--flux-grid=0.4:0.46:7", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        failed = [line.split(":")[0] for line in capsys.readouterr().err.splitlines() if line.startswith("failed at")]
        assert failed == ["failed at phi_ex=0.43", "failed at phi_ex=0.44", "failed at phi_ex=0.45"]
        assert out.read_text().splitlines()[4].split(",")[0] == "0.43000000000000005"

    @pytest.mark.parametrize("n_max, k", [(4, 100), (5, 1080)])
    def test_k_beyond_label_space_refused_before_solving(self, tmp_path, params_file, capsys, monkeypatch, n_max, k):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("spectrum_at called")

        monkeypatch.setattr("csdtc.spectrum.spectrum_at", no_eigensolve)
        out = tmp_path / "zz.csv"
        code = main(["zz", "--params", params_file, "--n-max", str(n_max), "--k", str(k),
                     "--flux-grid", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "from 6 to 54" in err and f"got {k}" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_help_lists_flux_options_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zz", "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert "--flux-grid" in options
        assert not options & {"--c34-grid", "--flux", "--zero-parasitics"}


class TestPertCompareCommand:
    def test_c34_sweep_columns(self, tmp_path, params_file):
        out = tmp_path / "pc.csv"
        code = main(["pert-compare", "--params", params_file, "--n-max", "4", "--k", "12",
                     "--c34-grid", "28:32:2", "--zero-parasitics", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "C34_fF,zeta_exact_kHz,zeta_pert_kHz,g12_MHz,ambiguous_flag"
        assert len(lines) == 3

    def test_zero_shunt_is_an_admissible_grid_point(self, tmp_path, params_file):
        out = tmp_path / "pc.csv"
        code = main(["pert-compare", "--params", params_file, "--n-max", "4",
                     "--c34-grid", "0:10:2", "--zero-parasitics", "--out", str(out)])
        assert code == EXIT_OK
        c34, exact, pert, g12, flag = out.read_text().splitlines()[1].split(",")
        assert float(c34) == 0.0 and flag == "0"
        assert all(np.isfinite(float(value)) for value in (exact, pert, g12))

    def test_overflowing_two_mode_reduction_is_numerical_failure(self, tmp_path, capsys):
        # 1e300 fF nodes overflow the two-mode determinant; that once wrote nan and exited 0
        huge = replace(reference_device(), c11=1e300, c22=1e300, c33=1e300, c44=1e300)
        params = tmp_path / "huge_caps.json"
        save_params(huge, params)
        out = tmp_path / "pc.csv"
        code = main(["pert-compare", "--params", str(params), "--c34-grid", "30", "--n-max", "3", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: two-mode capacitance matrix overflows: its determinant is inf\n"
        assert not out.exists()

    def test_zero_parasitics_sweeps_the_parasitic_free_circuit(self, tmp_path):
        noisy = CircuitParams(**{**vars(reference_device()), "c12": 5.0, "c14": 3.0, "c23": 2.0})
        paths = {}
        for name, params in (("noisy", noisy), ("bare", noisy.without_parasitics())):
            paths[name] = tmp_path / f"{name}.json"
            save_params(params, paths[name])
        base = ["pert-compare", "--n-max", "3", "--k", "8", "--c34-grid", "30"]
        out_flag, out_bare, out_noisy = (tmp_path / f"{name}.csv" for name in ("flag", "bare", "noisy"))
        assert main(base + ["--params", str(paths["noisy"]), "--zero-parasitics", "--out", str(out_flag)]) == EXIT_OK
        assert main(base + ["--params", str(paths["bare"]), "--out", str(out_bare)]) == EXIT_OK
        assert main(base + ["--params", str(paths["noisy"]), "--out", str(out_noisy)]) == EXIT_OK
        assert out_flag.read_bytes() == out_bare.read_bytes()
        assert out_flag.read_bytes() != out_noisy.read_bytes()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["zz", "--flux-grid", "0", "--c34-grid", "30"], "--c34-grid"),
        (["zz", "--c34-grid", "30"], "--flux-grid"),
        (["spectrum", "--flux", "0.3"], "--flux"),
        (["pert-compare", "--flux", "0.2"], "--c34-grid"),
        (["pert-compare", "--c34-grid", "30", "--flux", "0.2"], "--flux"),
        (["zz", "--flux-grid", "0", "--n-max", "x"], "--n-max"),
        (["zz", "--flux-grid", "0", "--seed", "1.5"], "--seed"),
        (["design", "--formula"], "--formula"),
        (["frobnicate"], "frobnicate"),
    ],
    ids=["zz_c34_grid", "zz_without_flux_grid", "spectrum_flux", "pert_compare_without_c34_grid", "pert_compare_flux",
         "n_max_not_int", "seed_not_int", "design_abbreviated_formula_only", "unknown_command"],
)
def test_usage_error_is_one_line_naming_it(tmp_path, capsys, params_file, argv, named):
    out = tmp_path / "out"
    code = main(argv + ["--params", params_file, "--n-max", "3", "--k", "8", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["zz", "--flux-grid", "0"],
    ["pert-compare", "--c34-grid", "30"],
], ids=["spectrum", "zz", "pert_compare"])
def test_sweep_without_out_is_one_line_usage_error(capsys, params_file, argv):
    assert main(argv + ["--params", params_file]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--out" in err
    assert len(err.splitlines()) == 1


def test_readme_command_lines_parse():
    commands, pending, in_sh = [], "", False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        if not in_sh:
            continue
        pending += line
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        words, pending = shlex.split(pending, comments=True), ""
        if words[:1] == ["csdtc"]:
            commands.append(words[1:])
    assert {words[0] for words in commands} == {"spectrum", "zz", "pert-compare", "design", "rb-budget"}
    for words in commands:
        build_parser().parse_args(words)


def test_readme_library_sketch_runs():
    sketch = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(sketch, namespace)
    assert round(namespace["zz"], 1) == -35.4  # the value its comment gives


def test_no_command_but_the_design_search_imports_scipy_optimize(tmp_path, params_file):
    # a fresh interpreter, since other test modules import scipy.optimize when they are collected
    circuit = ["--params", params_file, "--n-max", "3"]
    commands = [
        ["zz", "--flux-grid=-0.25:0.25:3", *circuit, "--out", str(tmp_path / "zz.csv")],
        ["spectrum", "--flux-grid=0:0.5:3", *circuit, "--out", str(tmp_path / "spectrum.csv")],
        ["pert-compare", "--c34-grid", "28:32:2", "--zero-parasitics", *circuit, "--out", str(tmp_path / "c34.csv")],
        ["design", "--formula-only", "--params", params_file, "--out", str(tmp_path / "design.json")],
        ["rb-budget", *(arg for slot, path in _write_bundle(tmp_path).items()
                        for arg in (f"--{slot.replace('_', '-')}", path)), "--out", str(tmp_path / "budget.json")],
    ]
    script = f"""
import sys
from csdtc.cli import main
for argv in {commands!r}:
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.startswith("scipy.optimize"))
assert not loaded, loaded
"""
    src = str(Path(csdtc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for argv in commands:
        assert Path(argv[-1]).stat().st_size > 0


class TestDesignCommand:
    def test_formula_only(self, tmp_path, params_file):
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--formula-only", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"c34_star_fF", "g12_residual", "zeta_at_star_kHz", "argmin_c34_exact_fF"}
        assert 40.0 < doc["c34_star_fF"] < 55.0
        assert doc["argmin_c34_exact_fF"] is None

    def test_formula_only_checks_the_run_settings(self, tmp_path, params_file, capsys):
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--formula-only", "--n-max", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: n_max must be an integer >= 3, got 2\n"
        assert not out.exists()

    def test_full_design(self, tmp_path, params_file):
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--n-max", "6", "--k", "16",
                     "--bracket", "36:62", "--bracket-tol", "2.0", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["argmin_c34_exact_fF"] is not None
        assert 36.0 < doc["argmin_c34_exact_fF"] < 62.0
        assert abs(doc["g12_residual"]) < 1e6

    def test_malformed_bracket(self, params_file):
        assert main(["design", "--params", params_file, "--bracket", "oops"]) == EXIT_USAGE

    def test_formula_only_checks_the_bracket(self, tmp_path, params_file, capsys):
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--formula-only", "--bracket", "garbage", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: malformed bracket 'garbage'; expected 'lo:hi'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bracket", "58:34"], "error: bracket must be finite with lo < hi, got [58.0, 34.0]\n"),
            (["--bracket-tol", "-1"], "error: bracket tolerance must be finite and positive, got -1.0\n"),
        ],
        ids=["reversed", "negative_tolerance"],
    )
    def test_formula_only_refuses_what_the_search_refuses(self, tmp_path, params_file, monkeypatch, capsys, flags, message):
        def no_closed_form(*args, **kwargs):
            raise AssertionError("two_mode_reduction called")

        monkeypatch.setattr(perturbative, "two_mode_reduction", no_closed_form)
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--formula-only", *flags, "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_tolerance_leaving_no_interior_is_usage_error_before_any_solve(
        self, tmp_path, params_file, monkeypatch, capsys
    ):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("zz_interaction called")

        monkeypatch.setattr("csdtc.spectrum.zz_interaction", no_eigensolve)
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--n-max", "3", "--bracket", "34:58",
                     "--bracket-tol", "12", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: bracket tolerance 12 leaves no interior in [34.0, 58.0]: an argmin within tol + (hi - lo)/1000 "
            "of either end is refused, so the tolerance must be below 11.976\n"
        )
        assert not out.exists()

    def test_nan_bracket_tolerance_is_usage_error(self, tmp_path, params_file, monkeypatch, capsys):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("zz_interaction called")

        monkeypatch.setattr("csdtc.spectrum.zz_interaction", no_eigensolve)
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--n-max", "3", "--bracket", "36:62",
                     "--bracket-tol", "nan", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_bracket_is_usage_error_naming_it(self, tmp_path, params_file, monkeypatch, capsys):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("zz_interaction called")

        monkeypatch.setattr("csdtc.spectrum.zz_interaction", no_eigensolve)
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--n-max", "3", "--bracket", "34:inf", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: bracket must be finite with lo < hi, got [34.0, inf]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bracket", "34:58", "--bracket-tol", "12"], "bracket tolerance 12 leaves no interior in [34.0, 58.0]"),
            (["--bracket", "58:34"], "bracket must be finite with lo < hi, got [58.0, 34.0]\n"),
            (["--bracket-tol", "-1"], "bracket tolerance must be finite and positive, got -1.0\n"),
        ],
        ids=["no_interior", "reversed", "negative_tolerance"],
    )
    def test_bad_bracket_is_usage_error_before_the_fixed_point(
        self, tmp_path, monkeypatch, capsys, mode_swap_circuit, flags, message
    ):
        # this circuit's fixed point fails (exit 3), so a bracket checked only by the argmin went unnamed
        def no_fixed_point(*args, **kwargs):
            raise AssertionError("zero_coupling_c34 called")

        monkeypatch.setattr(perturbative, "zero_coupling_c34", no_fixed_point)
        params = tmp_path / "mode_swap.json"
        save_params(mode_swap_circuit, params)
        out = tmp_path / "design.json"
        code = main(["design", "--params", str(params), "--n-max", "3", *flags, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_failed_fixed_point_is_numerical_failure_before_any_solve(
        self, tmp_path, monkeypatch, capsys, mode_swap_circuit
    ):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("zz_interaction called")

        monkeypatch.setattr("csdtc.spectrum.zz_interaction", no_eigensolve)
        params = tmp_path / "mode_swap.json"
        save_params(mode_swap_circuit, params)
        out = tmp_path / "design.json"
        code = main(["design", "--params", str(params), "--n-max", "3", "--bracket", "34:58", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: the g12 polish converged onto C34 = 168.948 fF") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_fixed_point_outside_its_bracket_is_numerical_failure(self, tmp_path, params_file, monkeypatch, capsys):
        # a closed form above every C34 leaves closed(C) - C without a sign change on the fixed-point bracket;
        # ModelError: the perturbative model failed, so exit 3 like every other numerical failure
        reduction = perturbative.two_mode_reduction
        monkeypatch.setattr(
            perturbative, "two_mode_reduction", lambda p: replace(reduction(p), c34_closed_ff=2.0 * p.c34 + 1.0)
        )
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--n-max", "3", "--bracket", "36:62", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: no zero-coupling fixed point in [0, ")
        assert "upper bound" in err
        assert not out.exists()


def _write_bundle(tmp_path, lengths=LENGTHS, **lam_overrides):
    lam = {"x1_srb": 0.9990, "x1_irb": 0.9980, "purity_srb": 0.9960, "purity_irb": 0.9930,
           "p0000_srb": 0.9950, "p0000_irb": 0.9900, **lam_overrides}
    spec = {
        "x1_srb": (KIND_POPULATION_X1, "SRB", 0.92, 0.07),
        "x1_irb": (KIND_POPULATION_X1, "IRB", 0.92, 0.07),
        "purity_srb": (KIND_PURITY, "SRB", -0.02, 0.95),
        "purity_irb": (KIND_PURITY, "IRB", -0.02, 0.95),
        "p0000_srb": (KIND_POPULATION_0000, "SRB", 0.26, 0.70),
        "p0000_irb": (KIND_POPULATION_0000, "IRB", 0.26, 0.70),
    }
    paths = {}
    for slot, (kind, variant, offset, amplitude) in spec.items():
        trace = synth_trace(offset=offset, amplitude=amplitude, lam=lam[slot], kind=kind,
                            lengths=lengths, variant=variant)
        path = tmp_path / f"{slot}.csv"
        write_trace_csv(trace, path)
        paths[slot] = str(path)
    return paths


class TestRBBudgetCommand:
    def test_full_bundle(self, tmp_path):
        paths = _write_bundle(tmp_path)
        out = tmp_path / "budget.json"
        args = ["rb-budget", "--out", str(out)]
        for slot, path in paths.items():
            args += [f"--{slot.replace('_', '-')}", path]
        assert main(args) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["d"] == 4
        lhs = doc["r_incoh_cz"] + doc["r_coh_cz"] + 0.75 * doc["L1_cz"]
        assert lhs == pytest.approx(doc["r_cz"], rel=1e-12)
        assert doc["fidelity"] == pytest.approx(1 - doc["r_cz"] - doc["L1_cz"] / 4, rel=1e-12)

    def test_determinism(self, tmp_path):
        paths = _write_bundle(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = []
        for slot, path in paths.items():
            base += [f"--{slot.replace('_', '-')}", path]
        assert main(["rb-budget", "--out", str(out_a)] + base) == EXIT_OK
        assert main(["rb-budget", "--out", str(out_b)] + base) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_partial_budget(self, tmp_path):
        paths = _write_bundle(tmp_path)
        out = tmp_path / "budget.json"
        code = main(["rb-budget", "--partial", "--out", str(out),
                     "--x1-srb", paths["x1_srb"], "--x1-irb", paths["x1_irb"]])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["L1_cz"] is not None
        assert doc["r_incoh_cz"] is None
        assert doc["r_cz"] is None

    def test_missing_without_partial(self, tmp_path):
        paths = _write_bundle(tmp_path)
        code = main(["rb-budget", "--x1-srb", paths["x1_srb"], "--x1-irb", paths["x1_irb"]])
        assert code == EXIT_USAGE

    def test_mixed_kind_in_slot_names_file(self, tmp_path, capsys):
        paths = _write_bundle(tmp_path)
        code = main(["rb-budget", "--partial",
                     "--purity-srb", paths["x1_srb"], "--purity-irb", paths["purity_irb"]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "purity_srb" in err
        assert paths["x1_srb"] in err

    def test_negative_coherent_error_is_one_warning_line(self, tmp_path, capsys):
        # a purity decay this fast puts the incoherent error above the gate error
        paths = _write_bundle(tmp_path, purity_irb=0.985)
        out = tmp_path / "budget.json"
        args = ["rb-budget", "--out", str(out)]
        for slot, path in paths.items():
            args += [f"--{slot.replace('_', '-')}", path]
        assert main(args) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("warning: coherent error came out negative")
        assert len(err.splitlines()) == 1 and ".py" not in err
        assert json.loads(out.read_text())["r_coh_cz"] < 0

    def test_no_traces(self):
        assert main(["rb-budget"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# kind=population_X1 variant=SRB\nm,value,std_err\n1,0.9,0.01\n5,0.8\n", "line 4"),
            ("# kind=population_X1 variant=SRB\n", "line 2"),
            ("# kind=population_X1 variant=SRB\nm,value\n1,0.9\n2,abc\n", "line 4"),
            ("# kind=population_X1 variant=SRB variant=IRB\nm,value\n1,0.9\n", "line 1"),
            ("# kind=population_X1 variant=SRB\nm,value,sigma\n1,0.9,0.01\n", "line 2"),
            ("# kind=population_X1 variant=SRB\nm,value\n1,0.9,0.01\n", "line 3"),
        ],
        ids=["short_row", "header_only", "bad_cell", "variant_twice", "sigma_column", "long_row"],
    )
    def test_malformed_trace_names_file_and_line(self, tmp_path, capsys, text, line):
        paths = _write_bundle(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["rb-budget", "--partial", "--x1-srb", str(bad), "--x1-irb", paths["x1_irb"]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: slot x1_srb: {bad}: {line}: ")
        assert err.count(str(bad)) == 1
        assert len(err.strip().splitlines()) == 1

    def test_non_finite_purity_is_usage_error(self, tmp_path, capsys):
        paths = _write_bundle(tmp_path)
        purity = Path(paths["purity_srb"])
        rows = purity.read_text().splitlines(keepends=True)
        purity.write_text("".join("40,nan\n" if row.startswith("40,") else row for row in rows))
        args = ["rb-budget"]
        for slot, path in paths.items():
            args += [f"--{slot.replace('_', '-')}", path]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count(paths["purity_srb"]) == 1 and "values must be finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_zero_std_err_is_usage_error(self, tmp_path, capsys):
        paths = _write_bundle(tmp_path)
        bad = tmp_path / "zero_std.csv"
        rows = [f"{m},{0.92 + 0.07 * 0.999**m!r},{0.0 if m == 1 else 0.01}" for m in LENGTHS]
        bad.write_text("# kind=population_X1 variant=SRB\nm,value,std_err\n" + "\n".join(rows) + "\n")
        code = main(["rb-budget", "--partial", "--x1-srb", str(bad), "--x1-irb", paths["x1_irb"]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1 and "std_errs must be finite and positive" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flat, named", [("purity_irb", "purity_irb"), ("p0000_srb", "p0000_srb/x1_srb")])
    def test_trace_without_decay_is_numerical_failure(self, tmp_path, capsys, flat, named):
        paths = _write_bundle(tmp_path)
        if flat == "purity_irb":
            values = (0.5,) * len(LENGTHS)
        else:
            # dyadic values keep P_0000 - P_X1/4 exactly 0.25 at every length
            x1 = tuple(0.5 + 0.5**k for k in range(1, len(LENGTHS) + 1))
            write_trace_csv(RBTrace(LENGTHS, x1, None, KIND_POPULATION_X1, "SRB"), paths["x1_srb"])
            values = tuple(0.25 + v / 4 for v in x1)
        kind, variant = SLOT_EXPECTATIONS[flat]
        write_trace_csv(RBTrace(LENGTHS, values, None, kind, variant), paths[flat])
        out = tmp_path / "budget.json"
        args = ["rb-budget", "--out", str(out)]
        for slot, path in paths.items():
            args += [f"--{slot.replace('_', '-')}", path]
        assert main(args) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"trace {named} does not decay" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_singular_fit_is_not_a_crash(self, tmp_path, capsys):
        # pure noise: no decay to fit, so the fit's Jacobian can be singular
        paths = _write_bundle(tmp_path)
        noise = synth_trace(offset=0.5, amplitude=0.0, lam=0.9, kind=KIND_POPULATION_X1, lengths=LENGTHS,
                            noise_sigma=0.005, seed=3)
        write_trace_csv(noise, paths["x1_srb"])
        out = tmp_path / "budget.json"
        code = main(["rb-budget", "--partial", "--x1-srb", paths["x1_srb"], "--x1-irb", paths["x1_irb"],
                     "--out", str(out)])
        assert code in (EXIT_OK, EXIT_NUMERICAL)
        if code == EXIT_NUMERICAL:
            err = capsys.readouterr().err
            assert err.startswith("error: trace x1_srb") and len(err.strip().splitlines()) == 1
            assert not out.exists()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE
