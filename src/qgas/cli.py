"""Command-line front end.

Subcommands: polylog, thresholds, classify, sweep, occupation.  Exit codes
are a stable contract: 0 success, 1 usage, 2 domain error, 3 numeric
failure, 4 file I/O.  Data goes to standard output (or --out); diagnostics
go to standard error, and machine-readable output appears only on exit 0.

Text output is human-oriented and may change; CSV and JSON are the stable
formats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (
    ConvergenceError,
    DomainError,
    QuadratureError,
    SingularityError,
    TruncationError,
)
from .polylog import SeriesParams, bose_g32, fermi_f32_full, fermi_f32_truncated
from .regime import (
    B_CONDENSATION_NOMINAL,
    B_DILUTION_NOMINAL,
    SERIES_VARIANTS,
    RegimeReport,
    classify_both,
    classify_paper,
    classify_selfconsistent,
    condensation_fixed_point,
    threshold_condensation,
    threshold_dilution,
)
from .sweep import (
    SWEEP_MODES, SweepSpec, emit_csv, emit_json, occupation_curve, row_from_report, run_sweep
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_ENV_TOL = "QGAS_TOL"
_ENV_WINDOW = "QGAS_WINDOW"
_ENV_SERIES = "QGAS_SERIES"


class _UsageError(Exception):
    """Raised for malformed invocations; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # domain-error code; reroute through the usage exception instead.
    def error(self, message: str):  # noqa: D102 - argparse override
        raise _UsageError(message)


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise _UsageError(f"environment variable {name} is not a number: {raw!r}") from None


def _env_series() -> str | None:
    raw = os.environ.get(_ENV_SERIES)
    if raw is None:
        return None
    if raw not in SERIES_VARIANTS:
        raise _UsageError(
            f"environment variable {_ENV_SERIES} must be 'full' or 'truncated', got {raw!r}"
        )
    return raw


def _fill_settings(args: argparse.Namespace) -> None:
    """Set tolerance, window and series from the flag, else the environment, else the default.

    Every variable is read, so a malformed one is a usage error even where
    its flag is given.
    """
    for name, env_value, default in (
        ("tolerance", _env_float(_ENV_TOL), 1e-12),
        ("window", _env_float(_ENV_WINDOW), 0.01),
        ("series", _env_series(), "truncated"),
    ):
        if getattr(args, name) is None:
            setattr(args, name, default if env_value is None else env_value)


def _series_params(args: argparse.Namespace) -> SeriesParams:
    return SeriesParams(tolerance=args.tolerance, max_terms=args.max_terms)


def _report_record(report: RegimeReport) -> dict:
    record = row_from_report(report).to_record()
    record["labels_differ"] = report.labels_differ
    return record


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_polylog(args: argparse.Namespace) -> str:
    params = _series_params(args)
    if args.kind == "bose":
        value = bose_g32(args.z, params)
    elif args.kind == "fermi":
        value = fermi_f32_full(args.z, params)
    else:
        value = fermi_f32_truncated(args.z)
    if args.format == "json":
        return _json_text({"kind": args.kind, "z": args.z, "value": value})
    if args.format == "csv":
        return f"kind,z,value\n{args.kind},{args.z!r},{value!r}\n"
    return f"{value!r}\n"


def _threshold_rows(args: argparse.Namespace) -> list[dict]:
    b = args.b
    if b is None:
        fixed = condensation_fixed_point(_series_params(args))
        return [
            {
                "name": "dilution",
                "b": B_DILUTION_NOMINAL,
                "p0": threshold_dilution(B_DILUTION_NOMINAL),
                "z": None,
            },
            {
                "name": "condensation",
                "b": B_CONDENSATION_NOMINAL,
                "p0": threshold_condensation(B_CONDENSATION_NOMINAL),
                "z": None,
            },
            {
                "name": "condensation-selfconsistent",
                "b": fixed.b,
                "p0": threshold_condensation(fixed.b),
                "z": fixed.z,
            },
        ]
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"b must be positive and finite, got {b!r}")
    condensation = threshold_condensation(b) if math.e * b > 1.0 else None
    return [
        {"name": "dilution", "b": b, "p0": threshold_dilution(b), "z": None},
        {"name": "condensation", "b": b, "p0": condensation, "z": None},
    ]


def _cmd_thresholds(args: argparse.Namespace) -> str:
    rows = _threshold_rows(args)
    if args.format == "json":
        return _json_text(rows)
    if args.format == "csv":
        lines = ["name,b,p0,z"]
        for row in rows:
            cells = [row["name"]] + [
                "" if row[key] is None else repr(row[key]) for key in ("b", "p0", "z")
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    lines = []
    for row in rows:
        parts = [f"{row['name']}: b={row['b']!r}"]
        parts.append("p0=undefined" if row["p0"] is None else f"p0={row['p0']!r}")
        if row["z"] is not None:
            parts.append(f"z={row['z']!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _cmd_classify(args: argparse.Namespace) -> str:
    params = _series_params(args)
    if args.mode == "paper":
        report = classify_paper(args.p0, args.window)
    elif args.mode == "self":
        report = classify_selfconsistent(args.p0, args.series, args.tolerance, params)
    else:
        report = classify_both(args.p0, args.window, args.series, args.tolerance, params)
    if args.format == "json":
        return _json_text(_report_record(report))
    if args.format == "csv":
        return emit_csv([row_from_report(report)])
    record = _report_record(report)
    lines = []
    for key in ("p0", "K", "paper_label", "selfconsistent_label", "branch", "z", "z_prime", "b"):
        value = record[key]
        if value is not None:
            lines.append(f"{key}: {value!r}" if isinstance(value, float) else f"{key}: {value}")
    lines.append("flags: " + ("|".join(record["flags"]) if record["flags"] else "-"))
    if record["labels_differ"] is not None:
        lines.append(f"labels_differ: {record['labels_differ']}")
    return "\n".join(lines) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> str:
    if args.p_max <= args.p_min:
        raise _UsageError(
            f"--p-max must exceed --p-min, got {args.p_min!r} and {args.p_max!r}"
        )
    if args.steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {args.steps!r}")
    spec = SweepSpec(
        p_min=args.p_min,
        p_max=args.p_max,
        steps=args.steps,
        mode=args.mode,
        series=args.series,
        window=args.window,
        tol=args.tolerance,
    )
    rows = run_sweep(spec, _series_params(args))
    if args.format == "json":
        return emit_json(rows)
    return emit_csv(rows)


def _cmd_occupation(args: argparse.Namespace) -> str:
    if args.beta_eps_max <= args.beta_eps_min:
        raise _UsageError(
            f"--beta-eps-max must exceed --beta-eps-min, got "
            f"{args.beta_eps_min!r} and {args.beta_eps_max!r} (degenerate range)"
        )
    if args.steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {args.steps!r}")
    curve = occupation_curve(
        args.z, args.beta_eps_min, args.beta_eps_max, args.steps, args.branch
    )
    if args.format == "json":
        return _json_text([{"beta_eps": x, "occupation": n} for x, n in curve])
    if args.format == "csv":
        lines = ["beta_eps,occupation"]
        lines.extend(f"{x!r},{n!r}" for x, n in curve)
        return "\n".join(lines) + "\n"
    return "".join(f"{x!r} {n!r}\n" for x, n in curve)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=None)
    common.add_argument("--max-terms", type=int, default=100_000, dest="max_terms")
    common.add_argument("--window", type=float, default=None)
    common.add_argument("--series", choices=SERIES_VARIANTS, default=None)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None)

    parser = _Parser(prog="qgas", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_polylog = subparsers.add_parser("polylog", parents=[common])
    p_polylog.add_argument("--kind", choices=("bose", "fermi", "fermi3"), required=True)
    p_polylog.add_argument("--z", type=float, required=True)
    p_polylog.set_defaults(handler=_cmd_polylog)

    p_thresholds = subparsers.add_parser("thresholds", parents=[common])
    p_thresholds.add_argument("--b", type=float, default=None)
    p_thresholds.set_defaults(handler=_cmd_thresholds)

    p_classify = subparsers.add_parser("classify", parents=[common])
    p_classify.add_argument("--p0", type=float, required=True)
    p_classify.add_argument("--mode", choices=SWEEP_MODES, default="both")
    p_classify.set_defaults(handler=_cmd_classify)

    p_sweep = subparsers.add_parser("sweep", parents=[common])
    p_sweep.add_argument("--p-min", type=float, required=True, dest="p_min")
    p_sweep.add_argument("--p-max", type=float, required=True, dest="p_max")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--mode", choices=SWEEP_MODES, default="both")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_occupation = subparsers.add_parser("occupation", parents=[common])
    p_occupation.add_argument("--z", type=float, required=True)
    p_occupation.add_argument("--branch", choices=("bose", "fermi"), default="bose")
    p_occupation.add_argument("--beta-eps-min", type=float, required=True, dest="beta_eps_min")
    p_occupation.add_argument("--beta-eps-max", type=float, required=True, dest="beta_eps_max")
    p_occupation.add_argument("--steps", type=int, required=True)
    p_occupation.set_defaults(handler=_cmd_occupation)

    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    """Run one invocation and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _fill_settings(args)
        _write_output(args.handler(args), args.out)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, SingularityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (TruncationError, QuadratureError, ConvergenceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
