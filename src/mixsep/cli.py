"""Command line interface.

Subcommands::

    estimate         point estimates and a lower confidence bound (JSON)
    curve            criterion curve on a gamma grid (CSV)
    signal           recovered signal CDF, density and local FDR (CSV + JSON)
    simulate         run a simulation config and write a metrics table
    identifiability  identifiable proportion of a parametric mixture (JSON)

Exit status is 0 on success, 2 on malformed input (unreadable or
non-numeric data, bad distribution spec, bad config) and 3 on numerical
failure (for example a flat criterion curve when the elbow was requested).
Outputs carry no timestamps, so a rerun with the same inputs and seed is
byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from io import StringIO

import numpy as np

from . import __version__
from ._compiled import scipy_version
from .confidence import homogeneity_test
from .distributions import Beta, Exponential, KnownCdf, Tabulated, Uniform, parse_distribution
from .identifiability import MixtureSpec, alpha0_auto, alpha0_continuous, alpha0_discrete
from .mixture_core import (
    NoElbowError,
    SortedSample,
    criterion_curve,
    default_cn,
    elbow_estimate,
    estimate_alpha_cn,
)
from .signal_recovery import lfdr, recover_signal
from .sim_harness import ScenarioConfig, run_replications

__all__ = ["main"]


class _InputError(Exception):
    """Malformed input: reported on stderr, exit status 2."""


class _NumericalError(Exception):
    """Numerical failure: reported on stderr, exit status 3."""


# --- small I/O helpers ----------------------------------------------------


def _floatable(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_column(path: str, column: str | None) -> np.ndarray:
    """One numeric column from a CSV file, with an optional header row.

    Single-column files need no ``column``; multi-column files take a
    header name or a 0-based index.  The first unparsable cell is reported
    with its line number.
    """
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    with fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh))]
    rows = [(ln, row) for ln, row in raw if any(c.strip() for c in row)]
    if not rows:
        raise _InputError(f"{path} contains no data")
    first = rows[0][1]
    has_header = not all(_floatable(c) for c in first)
    header = [c.strip() for c in first] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if column is None:
        if len(first) != 1:
            raise _InputError(
                f"{path} has {len(first)} columns; pick one with --column")
        idx = 0
    else:
        try:
            idx = int(column)
        except ValueError:
            if header is None or column not in header:
                raise _InputError(f"column {column!r} not found in {path}") from None
            idx = header.index(column)
        else:
            if idx < 0 or idx >= len(first):
                raise _InputError(f"column index {idx} out of range for {path}")
    out = []
    for ln, row in data_rows:
        if idx >= len(row):
            raise _InputError(f"{path} line {ln}: expected at least {idx + 1} fields")
        cell = row[idx].strip()
        if not _floatable(cell):
            raise _InputError(f"{path} line {ln}: could not parse {cell!r} as a number")
        out.append(float(cell))
    if not out:
        raise _InputError(f"{path} contains no data")
    data = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(data)):
        ln = data_rows[int(np.flatnonzero(~np.isfinite(data))[0])][0]
        raise _InputError(f"{path} line {ln}: non-finite value")
    return data


def _background(text: str) -> KnownCdf:
    try:
        return parse_distribution(text)
    except (ValueError, OSError) as exc:
        raise _InputError(f"bad distribution spec {text!r}: {exc}") from None


def _warn_support(data: np.ndarray, background: KnownCdf):
    # Values outside a bounded background support usually mean the wrong
    # background was specified; keep going but say so.
    if isinstance(background, Uniform):
        lo, hi = background.lo, background.hi
    elif isinstance(background, Beta):
        lo, hi = 0.0, 1.0
    elif isinstance(background, Exponential):
        lo, hi = background.loc, math.inf
    elif isinstance(background, Tabulated):
        lo, hi = float(background.xs[0]), float(background.xs[-1])
    else:
        return
    outside = int(((data < lo) | (data > hi)).sum())
    if outside:
        print(
            f"warning: {outside} observations fall outside the background "
            f"support [{lo}, {hi}]",
            file=sys.stderr,
        )


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _provenance() -> dict:
    return {
        "package": __version__,
        "numpy": np.__version__,
        "scipy": scipy_version(),
    }


# --- subcommands ----------------------------------------------------------


def _cmd_estimate(args) -> int:
    data = _read_column(args.data, args.column)
    background = _background(args.background)
    _warn_support(data, background)
    sample = SortedSample.from_data(data)
    if args.cn is not None:
        if args.cn <= 0.0 or not math.isfinite(args.cn):
            raise _InputError("--cn must be positive and finite")
        cn_value, tau = float(args.cn), None
    else:
        cn_value, tau = default_cn(sample.n, args.tau), args.tau
    alpha_cn = estimate_alpha_cn(sample, background, cn_value)

    alpha_elbow = None
    elbow_note = None
    if args.skip_elbow:
        elbow_note = "skipped"
    else:
        curve = criterion_curve(sample, background, args.grid)
        try:
            alpha_elbow = elbow_estimate(curve)
        except NoElbowError as exc:
            elbow_note = str(exc)

    alpha_lower = beta = critical = reject = None
    if not args.skip_lower:
        test = homogeneity_test(sample, background, args.beta)
        alpha_lower, beta, critical, reject = (
            test.alpha_lower, test.beta, test.critical_value, test.reject)

    payload = {
        "n": sample.n,
        "background": args.background,
        "alpha_cn": alpha_cn,
        "cn": cn_value,
        "tau": tau,
        "alpha_elbow": alpha_elbow,
        "elbow_note": elbow_note,
        "alpha_lower": alpha_lower,
        "beta": beta,
        "critical_value": critical,
        "reject_homogeneity": reject,
        "provenance": _provenance(),
    }
    _write_text(args.output, _json_text(payload))
    return 0


def _cmd_curve(args) -> int:
    data = _read_column(args.data, args.column)
    background = _background(args.background)
    _warn_support(data, background)
    sample = SortedSample.from_data(data)
    curve = criterion_curve(sample, background, args.grid)
    if not np.all(np.isfinite(curve.values)):
        raise _NumericalError("criterion curve contains non-finite values")
    second = curve.second_differences
    rows = []
    last = curve.gammas.size - 1
    for i, (g, v) in enumerate(zip(curve.gammas.tolist(), curve.values.tolist())):
        cell = "" if i == 0 or i == last else repr(float(second[i - 1]))
        rows.append([repr(g), repr(v), cell])
    _write_text(args.output, _csv_text(["gamma", "criterion", "second_difference"], rows))
    return 0


def _cmd_signal(args) -> int:
    data = _read_column(args.data, args.column)
    background = _background(args.background)
    _warn_support(data, background)
    sample = SortedSample.from_data(data)

    if args.alpha_source == "value":
        if args.alpha is None:
            raise _InputError("--alpha-source value requires --alpha")
        alpha_used = float(args.alpha)
        if not (0.0 < alpha_used <= 1.0):
            raise _InputError("--alpha must lie in (0, 1]")
    elif args.alpha_source == "cn":
        alpha_used = estimate_alpha_cn(sample, background,
                                       default_cn(sample.n, args.tau))
        if alpha_used == 0.0:
            raise _NumericalError(
                "estimated signal proportion is zero; nothing to recover")
    else:
        curve = criterion_curve(sample, background, args.grid)
        try:
            alpha_used = elbow_estimate(curve)
        except NoElbowError as exc:
            raise _NumericalError(str(exc)) from None

    estimate = recover_signal(sample, background, alpha_used)

    prefix = args.out_prefix
    files = {
        "fs_step": f"{prefix}_fs_step.csv",
        "fs_concave": f"{prefix}_fs_concave.csv",
        "density": f"{prefix}_density.csv",
    }
    step = estimate.fs_step
    _write_text(files["fs_step"], _csv_text(
        ["x", "fs"],
        [[repr(float(x)), repr(float(v))] for x, v in zip(step.jumps, step.values)]))
    hull = estimate.fs_concave
    _write_text(files["fs_concave"], _csv_text(
        ["x", "value"],
        [[repr(float(x)), repr(float(v))] for x, v in zip(hull.knots, hull.values)]))
    dens = estimate.density
    _write_text(files["density"], _csv_text(
        ["left", "right", "density"],
        [[repr(float(a)), repr(float(b)), repr(float(v))]
         for a, b, v in zip(dens.knots[:-1], dens.knots[1:], dens.values)]))

    lfdr_available = False
    lfdr_note = None
    if alpha_used >= 1.0:
        lfdr_note = "signal proportion is 1: local FDR is identically zero"
    else:
        if isinstance(background, Uniform) and not args.lfdr_all:
            points = sample.values[sample.values <= args.lfdr_cutoff]
            if points.size == 0:
                points = sample.values
        else:
            points = sample.values
        try:
            curve_lfdr = lfdr(points, alpha_used, estimate.density, background)
        except ValueError as exc:
            lfdr_note = str(exc)
        else:
            files["lfdr"] = f"{prefix}_lfdr.csv"
            _write_text(files["lfdr"], _csv_text(
                ["x", "lfdr"],
                [[repr(float(x)), repr(float(v))]
                 for x, v in zip(curve_lfdr.points, curve_lfdr.values)]))
            lfdr_available = True

    payload = {
        "n": sample.n,
        "background": args.background,
        "alpha_used": alpha_used,
        "alpha_source": args.alpha_source,
        "files": files,
        "lfdr_available": lfdr_available,
        "lfdr_note": lfdr_note,
        "provenance": _provenance(),
    }
    _write_text(args.output, _json_text(payload))
    return 0


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _InputError(f"{args.config}: expected a JSON object")
    try:
        cfg = ScenarioConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise _InputError(f"{args.config}: {exc}") from None
    table = run_replications(cfg)
    if args.out_prefix is None:
        _write_text(None, _json_text(table.to_json_dict()))
    else:
        _write_text(f"{args.out_prefix}_metrics.csv", table.to_csv_text())
        _write_text(f"{args.out_prefix}_metrics.json", _json_text(table.to_json_dict()))
    return 0


def _cmd_identifiability(args) -> int:
    if not (0.0 < args.alpha < 1.0):
        raise _InputError("--alpha must lie in (0, 1)")
    signal = _background(args.signal)
    background = _background(args.background)
    spec = MixtureSpec(alpha=args.alpha, signal=signal, background=background)
    try:
        if args.numeric:
            if signal.is_discrete and background.is_discrete:
                alpha0 = alpha0_discrete(spec, closed_form=False)
                method = "numeric"
            else:
                alpha0 = alpha0_continuous(spec, args.grid, closed_form=False)
                method = "numeric"
        else:
            alpha0 = alpha0_auto(spec, args.grid)
            method = "closed_form"
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if not math.isfinite(alpha0):
        raise _NumericalError("identifiable proportion did not evaluate to a finite value")
    payload = {
        "alpha": args.alpha,
        "alpha0": alpha0,
        "identifiable": bool(abs(alpha0 - args.alpha) <= 1e-12),
        "signal": args.signal,
        "background": args.background,
        "method": method,
    }
    _write_text(args.output, _json_text(payload))
    return 0


# --- argument parsing -----------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="CSV file of observations")
    p.add_argument("--column", default=None,
                   help="column name or 0-based index for multi-column files")
    p.add_argument("--background", required=True,
                   help="known background, e.g. 'uniform:0,1', 'normal:0,1', "
                        "'beta:1,10' or 'table:path.csv:step'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsep",
        description="Estimate the signal proportion and signal distribution "
                    "of a two-component mixture with a known background.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="point estimates and lower confidence bound")
    _add_data_args(p)
    p.add_argument("--tau", type=float, default=0.1,
                   help="threshold scale: cn = tau * log log n (default 0.1)")
    p.add_argument("--cn", type=float, default=None,
                   help="explicit threshold, overrides --tau")
    p.add_argument("--beta", type=float, default=0.05,
                   help="error level of the lower confidence bound (default 0.05)")
    p.add_argument("--grid", type=int, default=200,
                   help="gamma grid size for the elbow estimate (default 200)")
    p.add_argument("--skip-elbow", action="store_true", help="do not fit the elbow")
    p.add_argument("--skip-lower", action="store_true",
                   help="do not compute the lower confidence bound")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("curve", help="criterion curve as CSV")
    _add_data_args(p)
    p.add_argument("--grid", type=int, default=200,
                   help="gamma grid size (default 200)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("signal", help="recover the signal distribution")
    _add_data_args(p)
    p.add_argument("--alpha-source", choices=("elbow", "cn", "value"), default="elbow",
                   help="where the plug-in proportion comes from (default elbow)")
    p.add_argument("--alpha", type=float, default=None,
                   help="explicit proportion for --alpha-source value")
    p.add_argument("--tau", type=float, default=0.1,
                   help="threshold scale for --alpha-source cn (default 0.1)")
    p.add_argument("--grid", type=int, default=200,
                   help="gamma grid size for --alpha-source elbow (default 200)")
    p.add_argument("--lfdr-cutoff", type=float, default=0.05,
                   help="with a uniform background, evaluate the local FDR only "
                        "at observations up to this value (default 0.05)")
    p.add_argument("--lfdr-all", action="store_true",
                   help="evaluate the local FDR at every observation")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for the CSV outputs, e.g. out/run1")
    p.add_argument("--output", default=None,
                   help="path for the JSON summary (default stdout)")
    p.set_defaults(func=_cmd_signal)

    p = sub.add_parser("simulate", help="run a simulation configuration")
    p.add_argument("--config", required=True, help="JSON file with the scenario config")
    p.add_argument("--out-prefix", default=None,
                   help="write <prefix>_metrics.csv and <prefix>_metrics.json "
                        "(default: JSON to stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identifiability",
                       help="identifiable proportion of a parametric mixture")
    p.add_argument("--alpha", type=float, required=True, help="mixing proportion")
    p.add_argument("--signal", required=True, help="signal distribution spec")
    p.add_argument("--background", required=True, help="background distribution spec")
    p.add_argument("--grid", type=int, default=100_000,
                   help="grid size for the numeric essential infimum (default 100000)")
    p.add_argument("--numeric", action="store_true",
                   help="force the numeric route even when a closed form exists")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_identifiability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # validation errors raised by the library are input problems
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
