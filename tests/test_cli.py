import json
from pathlib import Path

import numpy as np
import pytest

from csdtc import spectrum
from csdtc.circuit import CircuitParams, reference_device, save_params
from csdtc.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_grid
from csdtc.design import golden_section_min
from csdtc.errors import BracketError, ConfigError
from csdtc.rb import (
    KIND_POPULATION_0000,
    KIND_POPULATION_X1,
    KIND_PURITY,
    synth_trace,
    write_trace_csv,
)

LENGTHS = (1, 5, 10, 20, 40, 80, 120, 200, 300)


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

    @pytest.mark.parametrize("text", ["a:b:c", "1:2", "1:2:0", "", "1:2:3:4"])
    def test_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_grid(text)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_min(lambda x: (x - 3.2) ** 2, 0.0, 10.0, tol=1e-5)
        assert x == pytest.approx(3.2, abs=1e-3)

    def test_v_shape(self):
        x, _ = golden_section_min(lambda x: abs(x - 7.0), 0.0, 10.0, tol=1e-5)
        assert x == pytest.approx(7.0, abs=1e-3)

    def test_bracket_excluding_minimum(self):
        with pytest.raises(BracketError):
            golden_section_min(lambda x: (x - 30.0) ** 2, 0.0, 10.0, tol=1e-4)

    def test_invalid_bracket(self):
        with pytest.raises(ConfigError):
            golden_section_min(lambda x: x, 5.0, 1.0)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_invalid_tolerance(self, tol):
        calls = []

        def parabola(x):
            calls.append(x)
            return (x - 50.0) ** 2

        with pytest.raises(ConfigError, match="tolerance"):
            golden_section_min(parabola, 10.0, 90.0, tol=tol)
        assert calls == []


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

    def test_requires_exactly_one_grid(self, tmp_path, params_file):
        out = str(tmp_path / "zz.csv")
        assert main(["zz", "--params", params_file, "--out", out]) == EXIT_USAGE
        assert main(["zz", "--params", params_file, "--out", out,
                     "--flux-grid", "0", "--c34-grid", "30"]) == EXIT_USAGE

    def test_c34_mode_and_pert_compare_alias(self, tmp_path, params_file):
        out_zz = tmp_path / "zz.csv"
        out_pc = tmp_path / "pc.csv"
        args = ["--params", params_file, "--n-max", "4", "--k", "12",
                "--c34-grid", "28:32:2", "--zero-parasitics"]
        assert main(["zz"] + args + ["--out", str(out_zz)]) == EXIT_OK
        assert main(["pert-compare"] + args + ["--out", str(out_pc)]) == EXIT_OK
        assert out_zz.read_bytes() == out_pc.read_bytes()
        lines = out_zz.read_text().splitlines()
        assert lines[0] == "C34_fF,zeta_exact_kHz,zeta_pert_kHz,g12_MHz,ambiguous_flag"
        assert len(lines) == 3

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
        # identical, uncoupled coupler nodes: coupler levels 1 and 2 are the degenerate |01>, |10> pair
        symmetric = CircuitParams(
            c11=108.0, c22=80.0, c33=90.0, c44=90.0,
            c12=0.0, c13=0.0, c14=0.0, c23=0.0, c24=0.0, c34=0.0,
            ic1=26.7, ic2=26.6, ic3=55.2, ic4=55.2, ic5=1e-9,
        )
        path = tmp_path / "symmetric.json"
        save_params(symmetric, path)
        monkeypatch.setattr(spectrum, "_KEPT_COUPLER_LEVELS", 2)
        code = main(["zz", "--params", str(path), "--n-max", "5", "--k", "16",
                     "--flux-grid", "0", "--out", str(tmp_path / "zz.csv")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "coupler block" in err and "gap" in err

    def test_failures_tolerated_up_to_ten_percent(self, tmp_path, params_file):
        # k=6 cannot label |1100> at n_max=5, so every point fails -> numerical exit
        code = main(["zz", "--params", params_file, "--n-max", "5", "--k", "6",
                     "--flux-grid", "0", "--out", str(tmp_path / "zz.csv")])
        assert code == EXIT_NUMERICAL


class TestDesignCommand:
    def test_formula_only(self, tmp_path, params_file):
        out = tmp_path / "design.json"
        code = main(["design", "--params", params_file, "--formula-only", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"c34_star_fF", "g12_residual", "zeta_at_star_kHz", "argmin_c34_exact_fF"}
        assert 40.0 < doc["c34_star_fF"] < 55.0
        assert doc["argmin_c34_exact_fF"] is None

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


def _write_bundle(tmp_path, lengths=LENGTHS):
    lam = {"x1_srb": 0.9990, "x1_irb": 0.9980, "purity_srb": 0.9960, "purity_irb": 0.9930,
           "p0000_srb": 0.9950, "p0000_irb": 0.9900}
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

    def test_no_traces(self):
        assert main(["rb-budget"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "body, line",
        [
            ("m,value,std_err\n1,0.9,0.01\n5,0.8\n", "line 4"),
            ("", "line 2"),
            ("m,value\n1,0.9\n2,abc\n", "line 4"),
        ],
        ids=["short_row", "header_only", "bad_cell"],
    )
    def test_malformed_trace_names_file_and_line(self, tmp_path, capsys, body, line):
        paths = _write_bundle(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("# kind=population_X1 variant=SRB\n" + body)
        code = main(["rb-budget", "--partial", "--x1-srb", str(bad), "--x1-irb", paths["x1_irb"]])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1 and line in err
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

def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE
