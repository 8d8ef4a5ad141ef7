"""Command-line interface: sweeps, design search, and RB budgets.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure. Outputs
are byte-identical across reruns with the same config, whatever the
``--seed``. Warnings and the error, if any, reach stderr as one line each.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import design, rb, spectrum
from .circuit import load_params
from .errors import ConfigError, NumericsError
from .hamiltonian import ChargeBasisConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive endpoints, so a count of 1 needs start == stop) or a single value."""
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            if count < 1 or (count == 1 and start != stop):
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
    """The basis of ``--n-max`` and ``--k``, checked before ``--seed``, which changes nothing written."""
    cfg = ChargeBasisConfig(n_max=args.n_max, num_eigenstates=args.k)
    if args.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {args.seed}")
    return cfg


def _add_common(parser, *, out_required: bool = True):
    parser.add_argument("--params", required=True, help="circuit parameter JSON file")
    parser.add_argument("--out", required=out_required, help="output path")
    parser.add_argument("--n-max", type=int, default=ChargeBasisConfig.n_max, dest="n_max")
    parser.add_argument("--k", type=int, default=ChargeBasisConfig.num_eigenstates, help="eigenstate count, 6 to 54")
    parser.add_argument("--seed", type=int, default=0, help="checked (>= 0), changes nothing written")


def _report_sweep(points, label: str, attr: str) -> int:
    """Print the zeta range and each failed point; numerical exit above 10% failures.

    A failed point's swept value is shown to ``spectrum.FLUX_KEY_DECIMALS``, the precision of the flux sweep's fold
    key, so a linspace value reads 0.45 and not 0.45000000000000007.
    """
    zetas = [p.zeta_khz for p in points if p.zeta_khz is not None]
    if zetas:
        print(f"zeta/2pi range: min {min(zetas):.3f} kHz, max {max(zetas):.3f} kHz")
    failed = [p for p in points if p.error is not None]
    for point in failed:
        shown = round(getattr(point, attr), spectrum.FLUX_KEY_DECIMALS)
        print(f"failed at {label}={shown}: {point.error}", file=sys.stderr)
    return EXIT_NUMERICAL if len(failed) > 0.1 * len(points) else EXIT_OK


def _write_json(doc: dict, out) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_flux_sweep(args) -> int:
    params = load_params(args.params)
    points = spectrum.sweep_flux(params, parse_grid(args.flux_grid), _basis_config(args))
    # looked up by name as the command runs, since the parser is built once: a writer wrapped later is the one called
    getattr(spectrum, args.writer)(points, args.out)
    return _report_sweep(points, "phi_ex", "phi_ex")


def cmd_pert_compare(args) -> int:
    params = load_params(args.params)
    if args.zero_parasitics:
        params = params.without_parasitics()
    points = spectrum.sweep_c34(params, parse_grid(args.c34_grid), _basis_config(args))
    spectrum.write_c34_zz_csv(points, args.out)
    return _report_sweep(points, "C34_fF", "c34_ff")


def cmd_design(args) -> int:
    params = load_params(args.params)
    cfg, bracket = _basis_config(args), _parse_bracket(args.bracket)
    design._check_bracket(*bracket, args.bracket_tol)  # so --formula-only refuses what the search refuses
    if args.formula_only:
        doc = design.closed_form_design(params)
    else:
        doc = design.search_design(params, bracket, cfg, tol=args.bracket_tol)
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


class _Parser(argparse.ArgumentParser):
    """Options spelled in full only; a usage error raises ConfigError instead of exiting."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csdtc", description="Coupler spectra, ZZ sweeps and RB budgets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="flux sweep of the labeled computational levels")
    _add_common(p_spec)
    p_spec.add_argument("--flux-grid", default="-0.5:0.5:101")
    p_spec.set_defaults(func=cmd_flux_sweep, writer="write_spectrum_csv")

    p_zz = sub.add_parser("zz", help="zeta versus flux")
    _add_common(p_zz)
    p_zz.add_argument("--flux-grid", required=True)
    p_zz.set_defaults(func=cmd_flux_sweep, writer="write_flux_zz_csv")

    p_pert = sub.add_parser(
        "pert-compare", help="zeta versus the shunt capacitance at zero flux, with the two-mode prediction"
    )
    _add_common(p_pert)
    p_pert.add_argument("--c34-grid", required=True, help="C34 grid in fF")
    p_pert.add_argument("--zero-parasitics", action="store_true", help="drop C12, C14 and C23")
    p_pert.set_defaults(func=cmd_pert_compare)

    p_design = sub.add_parser("design", help="decoupling C34 from the fixed point and from |zeta| argmin")
    _add_common(p_design, out_required=False)
    p_design.add_argument("--bracket", default="10:90", help="C34 bracket 'lo:hi' in fF for the argmin search")
    p_design.add_argument(
        "--bracket-tol", type=float, default=design.ARGMIN_TOL_FF, dest="bracket_tol", help="argmin tolerance in fF"
    )
    p_design.add_argument("--formula-only", action="store_true", help="closed form 1/(LJ5 w1 w2) only")
    p_design.set_defaults(func=cmd_design)

    p_rb = sub.add_parser("rb-budget", help="CZ error budget from decay-trace CSVs")
    for slot in rb.SLOT_EXPECTATIONS:
        p_rb.add_argument(f"--{slot.replace('_', '-')}", dest=slot, default=None)
    p_rb.add_argument("--partial", action="store_true")
    p_rb.add_argument("--out", default=None)
    p_rb.set_defaults(func=cmd_rb_budget)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process (a build takes about 1.4 ms); parsing leaves it unchanged."""
    return build_parser()


def _run(argv) -> tuple[int, Exception | None]:
    try:
        args = _parser().parse_args(argv)
        return args.func(args), None
    except NumericsError as exc:
        return EXIT_NUMERICAL, exc
    except (ValueError, OSError) as exc:
        return EXIT_USAGE, exc


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        code, failure = _run(argv)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
