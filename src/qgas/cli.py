"""Command-line front end.

Subcommands: polylog, thresholds, classify, sweep, occupation.  Exit codes
are a stable contract: 0 success, 1 usage, 2 domain error, 3 numeric
failure, 4 file I/O.  Data goes to standard output (or --out); diagnostics
go to standard error, and machine-readable output appears only on exit 0.

Text output is human-oriented and may change; CSV and JSON are the stable
formats.
"""

import argparse
import functools
import math
import os
import sys

from .errors import (
    ConvergenceError,
    DomainError,
    QuadratureError,
    SingularityError,
    TruncationError,
    _POSITIVE,
    _real,
)
from .polylog import SeriesParams, _branch_series
from .regime import (
    B_CONDENSATION_NOMINAL,
    B_DILUTION_NOMINAL,
    P_CONDENSATION_NOMINAL,
    P_DILUTION_NOMINAL,
    SERIES_VARIANTS,
    condensation_fixed_point,
    threshold_condensation,
    threshold_dilution,
)
from .sweep import (
    OCCUPATION_BRANCHES, SWEEP_MODES, SweepSpec, _classify, _csv_cell, _json_text, _table_text,
    emit_csv, emit_json, occupation_curve, row_from_report, run_sweep,
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


class _HelpShown(Exception):
    """Raised once --help has printed; mapped to exit code 0."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # domain-error code; reroute through the usage exception instead.
    def error(self, message: str):  # noqa: D102 - argparse override
        raise _UsageError(message)

    # With error rerouted, only --help calls exit; main returns instead.
    def exit(self, status: int = 0, message: str | None = None):  # noqa: D102
        raise _HelpShown


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
    its flag is given.  Every setting is then checked, whichever subcommand
    runs, and the series controls are kept as ``args.params``.
    """
    for name, env_value, default in (
        ("tolerance", _env_float(_ENV_TOL), SeriesParams.tolerance),
        ("window", _env_float(_ENV_WINDOW), SweepSpec.window),
        ("series", _env_series(), SweepSpec.series),
    ):
        if getattr(args, name) is None:
            setattr(args, name, default if env_value is None else env_value)
    args.params = SeriesParams(tolerance=args.tolerance, max_terms=args.max_terms)
    _real(args.window, "window", _POSITIVE)


# Each `polylog --kind`, with the series branch it evaluates.
_POLYLOG_KINDS = {"bose": "bose", "fermi": "fermi-full", "fermi3": "fermi-truncated"}

# The columns of each table, in order: CSV header and JSON keys alike.
_POLYLOG_COLUMNS = ("kind", "z", "value")
_THRESHOLD_COLUMNS = ("name", "b", "p0", "z")
_OCCUPATION_COLUMNS = ("beta_eps", "occupation")


def _cmd_polylog(args: argparse.Namespace) -> str:
    value = _branch_series(args.z, _POLYLOG_KINDS[args.kind], args.params)
    if args.format == "text":
        return f"{value!r}\n"
    record = dict(zip(_POLYLOG_COLUMNS, (args.kind, args.z, value)))
    if args.format == "json":
        return _json_text(record)
    return _table_text("csv", _POLYLOG_COLUMNS, [record])


def _threshold_rows(args: argparse.Namespace) -> list[tuple]:
    b = args.b
    if b is None:
        fixed = condensation_fixed_point(args.params)
        return [
            ("dilution", B_DILUTION_NOMINAL, P_DILUTION_NOMINAL, None),
            ("condensation", B_CONDENSATION_NOMINAL, P_CONDENSATION_NOMINAL, None),
            ("condensation-selfconsistent", fixed.b, threshold_condensation(fixed.b), fixed.z),
        ]
    _real(b, "b", _POSITIVE)
    # Condensation first: for a b where both refuse, its message is the one shown.
    condensation = threshold_condensation(b) if math.e * b > 1.0 else None
    return [("dilution", b, threshold_dilution(b), None), ("condensation", b, condensation, None)]


def _cmd_thresholds(args: argparse.Namespace) -> str:
    rows = _threshold_rows(args)
    if args.format != "text":
        records = [dict(zip(_THRESHOLD_COLUMNS, row)) for row in rows]
        return _table_text(args.format, _THRESHOLD_COLUMNS, records)
    return "".join(
        f"{name}: b={b!r} p0={'undefined' if p0 is None else repr(p0)}"
        + ("" if z is None else f" z={z!r}") + "\n"
        for name, b, p0, z in rows
    )


def _cmd_classify(args: argparse.Namespace) -> str:
    report = _classify(args.p0, args.mode, args.window, args.series, args.tolerance, args.params)
    row = row_from_report(report)
    if args.format == "csv":
        return emit_csv([row])
    if args.format == "json":
        return _json_text({**vars(row), "labels_differ": report.labels_differ})
    # One line per SweepRow field that has a value; "-" stands for no flags.
    lines = [
        f"{name}: {_csv_cell(value) or '-'}"
        for name, value in vars(row).items()
        if value is not None
    ]
    if report.labels_differ is not None:
        lines.append(f"labels_differ: {report.labels_differ}")
    return "\n".join(lines) + "\n"


def _check_grid_usage(
    lo_flag: str, lo: float, hi_flag: str, hi: float, steps: int, note: str = ""
) -> None:
    """Refuse bounds that do not ascend and fewer than 2 steps; nan and inf go to the library."""
    if hi <= lo:
        raise _UsageError(f"{hi_flag} must exceed {lo_flag}, got {lo!r} and {hi!r}{note}")
    if steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {steps!r}")


def _cmd_sweep(args: argparse.Namespace) -> str:
    _check_grid_usage("--p-min", args.p_min, "--p-max", args.p_max, args.steps)
    spec = SweepSpec(
        p_min=args.p_min,
        p_max=args.p_max,
        steps=args.steps,
        mode=args.mode,
        series=args.series,
        window=args.window,
        tol=args.tolerance,
    )
    rows = run_sweep(spec, args.params)
    if args.format == "json":
        return emit_json(rows)
    return emit_csv(rows)


def _cmd_occupation(args: argparse.Namespace) -> str:
    _check_grid_usage(
        "--beta-eps-min", args.beta_eps_min, "--beta-eps-max", args.beta_eps_max, args.steps,
        " (degenerate range)",
    )
    curve = occupation_curve(
        args.z, args.beta_eps_min, args.beta_eps_max, args.steps, args.branch
    )
    if args.format != "text":
        records = [dict(zip(_OCCUPATION_COLUMNS, point)) for point in curve]
        return _table_text(args.format, _OCCUPATION_COLUMNS, records)
    return "".join(f"{x!r} {n!r}\n" for x, n in curve)


@functools.cache  # built once per process: building it takes longer than most main calls
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=None)
    common.add_argument("--max-terms", type=int, default=SeriesParams.max_terms, dest="max_terms")
    common.add_argument("--window", type=float, default=None)
    common.add_argument("--series", choices=SERIES_VARIANTS, default=None)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None)

    parser = _Parser(prog="qgas", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_polylog = subparsers.add_parser("polylog", parents=[common])
    p_polylog.add_argument("--kind", choices=tuple(_POLYLOG_KINDS), required=True)
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
    p_occupation.add_argument("--branch", choices=OCCUPATION_BRANCHES, default="bose")
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
    except _HelpShown:
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
