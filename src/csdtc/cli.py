"""Command-line interface: sweeps, design search, and RB budgets.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure. Outputs
are byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import design, rb, spectrum
from .circuit import load_params
from .errors import (
    ConfigError,
    FitError,
    LabelingError,
    ModelError,
    NumericsError,
    ParameterError,
)
from .hamiltonian import ChargeBasisConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive endpoints) or a single value."""
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1:
                raise ValueError
            return np.linspace(start, stop, count)
    except ValueError:
        pass
    raise ConfigError(f"malformed grid {text!r}; expected 'start:stop:count' or a single value")


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ConfigError(f"malformed bracket {text!r}; expected 'lo:hi'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"malformed bracket {text!r}; expected 'lo:hi'") from None
    return lo, hi


def _basis_config(args) -> ChargeBasisConfig:
    return ChargeBasisConfig(n_max=args.n_max, num_eigenstates=args.k)


def _add_common(parser):
    parser.add_argument("--params", required=True, help="circuit parameter JSON file")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--n-max", type=int, default=7, dest="n_max")
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)


def _report_sweep(points, label: str, attr: str) -> int:
    """Print the zeta range and each failed point; numerical exit above 10% failures."""
    zetas = [p.zeta_khz for p in points if p.zeta_khz is not None]
    if zetas:
        print(f"zeta/2pi range: min {min(zetas):.3f} kHz, max {max(zetas):.3f} kHz")
    failed = [p for p in points if p.error is not None]
    for point in failed:
        print(f"failed at {label}={getattr(point, attr)}: {point.error}", file=sys.stderr)
    return EXIT_NUMERICAL if len(failed) > 0.1 * len(points) else EXIT_OK


def _write_json(doc: dict, out) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    params = load_params(args.params)
    grid = parse_grid(args.flux_grid)
    if args.out is None:
        raise ConfigError("--out is required for spectrum output")
    points = spectrum.sweep_flux(params, grid, _basis_config(args), seed=args.seed)
    spectrum.write_spectrum_csv(points, args.out)
    return _report_sweep(points, "phi_ex", "phi_ex")


def cmd_zz(args) -> int:
    params = load_params(args.params)
    if args.command == "pert-compare" and args.c34_grid is None:
        raise ConfigError("pert-compare requires --c34-grid")
    if (args.flux_grid is None) == (args.c34_grid is None):
        raise ConfigError("exactly one of --flux-grid or --c34-grid is required")
    if args.out is None:
        raise ConfigError("--out is required for zz output")
    cfg = _basis_config(args)
    if args.flux_grid is not None:
        for flag, given in (("--zero-parasitics", args.zero_parasitics), ("--flux", args.flux is not None)):
            if given:
                raise ConfigError(f"{flag} applies only to --c34-grid sweeps, not to --flux-grid")
        points = spectrum.sweep_flux(params, parse_grid(args.flux_grid), cfg, seed=args.seed)
        spectrum.write_flux_zz_csv(points, args.out)
        return _report_sweep(points, "phi_ex", "phi_ex")
    points = spectrum.sweep_c34(
        params,
        parse_grid(args.c34_grid),
        0.0 if args.flux is None else args.flux,
        cfg,
        zero_parasitics=args.zero_parasitics,
        seed=args.seed,
    )
    spectrum.write_c34_zz_csv(points, args.out)
    return _report_sweep(points, "C34_fF", "c34_ff")


def cmd_design(args) -> int:
    params = load_params(args.params)
    if args.formula_only:
        doc = design.closed_form_design(params)
    else:
        bracket = _parse_bracket(args.bracket)
        doc = design.search_design(params, bracket, _basis_config(args), tol=args.bracket_tol, seed=args.seed)
    _write_json(doc, args.out)
    return EXIT_OK


def cmd_rb_budget(args) -> int:
    paths = {slot: getattr(args, slot) for slot in rb.SLOT_EXPECTATIONS if getattr(args, slot) is not None}
    if not paths:
        raise ConfigError("no trace files given")
    traces = {}
    for slot, path in paths.items():
        try:
            traces[slot] = rb.read_trace_csv(path)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"slot {slot}: {exc}") from exc
    try:
        budget = rb.full_budget(traces, allow_partial=args.partial)
    except ValueError as exc:
        listing = ", ".join(f"{slot}={path}" for slot, path in sorted(paths.items()))
        raise ConfigError(f"{exc} (files: {listing})") from exc
    _write_json(rb.budget_to_dict(budget), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csdtc", description="Coupler spectra, ZZ sweeps and RB budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="flux sweep of the labeled computational levels")
    _add_common(p_spec)
    p_spec.add_argument("--flux-grid", default="-0.5:0.5:101")
    p_spec.set_defaults(func=cmd_spectrum)

    for name, help_text in (
        ("zz", "zeta versus flux or versus the shunt capacitance"),
        ("pert-compare", "alias of zz over a C34 grid with both zeta columns"),
    ):
        p_zz = sub.add_parser(name, help=help_text)
        _add_common(p_zz)
        p_zz.add_argument("--flux-grid", default=None)
        p_zz.add_argument("--c34-grid", default=None)
        p_zz.add_argument("--flux", type=float, default=None, help="flux for C34 sweeps (default 0)")
        p_zz.add_argument("--zero-parasitics", action="store_true")
        p_zz.set_defaults(func=cmd_zz)

    p_design = sub.add_parser("design", help="decoupling C34 from the fixed point and from |zeta| argmin")
    _add_common(p_design)
    p_design.add_argument("--bracket", default="10:90", help="C34 bracket 'lo:hi' in fF for the argmin search")
    p_design.add_argument("--bracket-tol", type=float, default=0.05, dest="bracket_tol")
    p_design.add_argument("--formula-only", action="store_true", help="closed form 1/(LJ5 w1 w2) only")
    p_design.set_defaults(func=cmd_design)

    p_rb = sub.add_parser("rb-budget", help="CZ error budget from decay-trace CSVs")
    for slot in rb.SLOT_EXPECTATIONS:
        p_rb.add_argument(f"--{slot.replace('_', '-')}", dest=slot, default=None)
    p_rb.add_argument("--partial", action="store_true")
    p_rb.add_argument("--out", default=None)
    p_rb.set_defaults(func=cmd_rb_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (NumericsError, LabelingError, ModelError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParameterError, ConfigError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
