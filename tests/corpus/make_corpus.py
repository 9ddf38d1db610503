"""Regenerate the behaviour corpus that ``tests/test_corpus.py`` replays.

``cli.jsonl`` records CLI invocations and ``reports.jsonl`` records the
classifiers' reports.

Run from the repository root::

    PYTHONPATH=src python tests/corpus/make_corpus.py

Each case runs ``qgas.cli.main(argv)`` in process, in an empty temporary
directory, with every ``QGAS_*`` variable cleared except those the case sets.
The cases cover every subcommand, format and mode; the float neighbours of
both nominal thresholds, of their window edges, of e, of H(1), of H(1e-9)
and of the condensation fixed point; grid edges; bad numbers and
non-numbers; negative numbers spelled with and without ``=``; ``QGAS_TOL``
and ``QGAS_WINDOW``; tolerances up to and past the root bracket; term caps
that trip; usage errors; ``--help``; ``--out``; and a few plain invocations
with few options.

Each report record calls ``classify_paper``, ``classify_selfconsistent`` or
``classify_both`` with keyword arguments and keeps the report's ``repr``, or
the refusal's exception type and message.  The momenta are the CLI edge
momenta, the float neighbours of both nominal thresholds, of the printed
self-consistent condensation edge and of (4*pi)**2.5 / e, and a spread of
plain and bad values; each meets a few windows and tolerances, and inputs
with two or three bad arguments pin which check refuses first.

The corpus pins output: regenerate it only in a change that means to alter
some, and count the changed cases by kind (``git diff`` shows one line per
case).
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from qgas import cli  # noqa: E402
from qgas.regime import (  # noqa: E402
    COUPLING_CONSTANT,
    P_CONDENSATION_NOMINAL,
    P_DILUTION_NOMINAL,
    bose_constraint_lhs,
    condensation_fixed_point,
    threshold_condensation,
)
from test_corpus import CORPUS, REPORTS, report_of, run_case  # noqa: E402

FORMATS = ("text", "csv", "json")
MODES = ("paper", "self", "both")
HUGE = "1" + "0" * 400  # an integer beyond the float range

# Values that no real argument accepts, or that sit on the edge of every range.
BAD_NUMBERS = (
    "0", "-0.0", "5e-324", "nan", "-nan", "inf", "-inf", HUGE, "x", "", "1,5", "0x10",
)
TOLERANCES = (
    "1e-300", "1e-17", "1e-15", "1e-12", "1e-6", "0.1", "0.5", "0.999999999",
    repr(math.nextafter(0.999999999, 1.0)), "1", "2", "1e300",
    "0", "-0.0", "nan", "inf", "-1", "x",
)
MAX_TERMS = ("0", "1", "2", "10", "100", "1000", "100000", "-1", HUGE, "1.5", "x")
WINDOWS = ("0", "-0.0", "5e-324", "1e-12", "0.001", "0.01", "0.05", "0.5", "1", "2", "1e300",
           "nan", "inf", "-1", "x")
NEGATIVES = (
    "-2", "-.5", "-5.", "-4e2", "-1E-3", "-1e+3", "-1_0", "-inf", "-Infinity", "-nan", "-NaN",
    "-x", "-.", "-1e", "--1",
)
ENV_VALUES = (
    "1e-10", "1e-12", "0.05", "0.5", " 0.1 ", "2", "banana", "", "nan", "-1", "inf", "1e400", "0",
    "1_0",
)
REPORT_WINDOWS = (0.01, 1e-6, 0.5)
REPORT_TOLERANCES = (1e-12, 1e-6, 0.1)
MINIMAL = {
    "polylog": ("--kind", "bose", "--z", "0.5"),
    "thresholds": (),
    "classify": ("--p0", "200"),
    "sweep": ("--p-min", "100", "--p-max", "120", "--steps", "3"),
    "occupation": ("--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "1", "--steps", "2"),
}


def _neighbours(x: float, ulps: int) -> list[str]:
    """``x`` and its ``ulps`` float neighbours on each side, as reprs."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [repr(v) for v in sorted({*below, *above})]


def _momenta_on_edges() -> list[str]:
    """Momenta at and around every edge where a label or flag may change."""
    fixed = condensation_fixed_point()
    h_lo, h_hi = bose_constraint_lhs(1e-9), bose_constraint_lhs(1.0)
    centres = [
        P_CONDENSATION_NOMINAL,
        P_DILUTION_NOMINAL,  # also the momentum of coupling e
        threshold_condensation(fixed.b),
        COUPLING_CONSTANT / h_hi,
        COUPLING_CONSTANT / h_lo,
        COUPLING_CONSTANT / (math.e + 1e-12),
        COUPLING_CONSTANT / (math.e - 1e-12),
    ]
    for p in (P_CONDENSATION_NOMINAL, P_DILUTION_NOMINAL):
        for step in (-0.02, -0.01, 0.01, 0.02):  # the window and near_threshold edges
            centres.append(p + step * p)
    return [value for centre in centres for value in _neighbours(centre, 2)]


def _polylog_cases():
    zs = (
        *BAD_NUMBERS, "0.0", "1e-310", "1e-9", "0.19", "0.5", "0.9", "0.95", "0.999",
        "0.9999999999999999", "1", "1.0000000000000002", "1.5", repr(math.e), "-1", "0x1p-3",
    )
    for kind in ("bose", "fermi", "fermi3"):
        for z in zs:
            for fmt in FORMATS:
                yield ("polylog", "--kind", kind, "--z", z, "--format", fmt), {}
        for z in ("0.5", "0.95", "0.999"):
            for tol in TOLERANCES:
                yield ("polylog", "--kind", kind, "--z", z, "--tolerance", tol,
                       "--format", "json"), {}
        for z in ("0.5", "0.95", "0.999", "1"):
            for cap in MAX_TERMS:
                yield ("polylog", "--kind", kind, "--z", z, "--max-terms", cap), {}


def _thresholds_cases():
    bs = (
        *BAD_NUMBERS, "1e-310", "0.2", "0.3", *_neighbours(1 / math.e, 2), "1", "1.2", "1.4",
        "2.6", "1e300", "1e308", "1.7976931348623157e308", "-1",
    )
    for fmt in FORMATS:
        yield ("thresholds", "--format", fmt), {}
        for b in bs:
            yield ("thresholds", "--b", b, "--format", fmt), {}
        for tol in TOLERANCES:
            yield ("thresholds", "--tolerance", tol, "--format", fmt), {}
    for cap in MAX_TERMS:
        yield ("thresholds", "--max-terms", cap), {}
        yield ("thresholds", "--b", "1.2", "--max-terms", cap), {}
    for tol in TOLERANCES:
        yield ("thresholds", "--b", "1.4", "--tolerance", tol), {}


def _classify_cases():
    momenta = (
        *BAD_NUMBERS, "1e-320", "1e-310", "-1", "1e308", "1.7976931348623157e308", "100", "124.7",
        "150", "190", "193.6", "199.53", "200", "202", "205.0", "205.93", "206", "206.05", "210",
        "250", "300", "1000",
    )
    for p0 in momenta:
        for mode in MODES:
            for fmt in FORMATS:
                yield ("classify", "--p0", p0, "--mode", mode, "--format", fmt), {}
    for p0 in _momenta_on_edges():  # the machine formats show every label, flag and digit
        for mode in MODES:
            for fmt in ("csv", "json"):
                yield ("classify", "--p0", p0, "--mode", mode, "--format", fmt), {}
    for p0 in ("199.53", "202", "205.93"):
        for mode in MODES:
            for window in WINDOWS:
                yield ("classify", "--p0", p0, "--mode", mode, "--window", window,
                       "--format", "json"), {}
    for p0 in ("150", "193.6", "205.935", "206.05"):
        for mode in MODES:
            for tol in TOLERANCES:
                yield ("classify", "--p0", p0, "--mode", mode, "--tolerance", tol,
                       "--format", "csv"), {}
    for p0 in ("150", "193.6"):
        for mode in MODES:
            for cap in MAX_TERMS:
                yield ("classify", "--p0", p0, "--mode", mode, "--max-terms", cap), {}


def _sweep_cases():
    p_cond = P_CONDENSATION_NOMINAL
    grids = (
        ("100", "300", "3"), ("150", "250", "11"), ("199.53", "300", "2"), ("193", "207", "8"),
        (repr(p_cond * 0.99), repr(p_cond * 1.01), "5"), ("1e-320", "1", "2"), ("1", "1e308", "3"),
        ("124.7", "124.72", "4"), ("205.9", "206.1", "5"),
        ("150", repr(math.nextafter(150, 200)), "2"), ("150", repr(math.nextafter(150, 200)), "3"),
        ("5e-324", "1e-323", "2"),
        ("-1.7976931348623157e308", "1.7976931348623157e308", "2"),
    )
    for lo, hi, steps in grids:
        for mode in MODES:
            for fmt in FORMATS:
                yield ("sweep", "--p-min", lo, "--p-max", hi, "--steps", steps, "--mode", mode,
                       "--format", fmt), {}
    for bad in (*BAD_NUMBERS, "-1", "300", "100"):
        yield ("sweep", "--p-min", bad, "--p-max", "200", "--steps", "3"), {}
        yield ("sweep", "--p-min", "100", "--p-max", bad, "--steps", "3"), {}
    for steps in ("0", "1", "2", "3", "-1", "1.5", "x", "nan", HUGE):
        yield ("sweep", "--p-min", "100", "--p-max", "200", "--steps", steps), {}
    for mode in MODES:
        for tol in TOLERANCES:
            yield ("sweep", "--p-min", "150", "--p-max", "250", "--steps", "3", "--mode", mode,
                   "--tolerance", tol, "--format", "csv"), {}
        for window in WINDOWS:
            yield ("sweep", "--p-min", "195", "--p-max", "210", "--steps", "4", "--mode", mode,
                   "--window", window, "--format", "csv"), {}
        for cap in MAX_TERMS:
            yield ("sweep", "--p-min", "150", "--p-max", "250", "--steps", "3", "--mode", mode,
                   "--max-terms", cap, "--format", "csv"), {}


def _occupation_cases():
    zs = ("-0.0", "5e-324", "0.5", "0.9999999999999999", "1", "1.0000000000000002", "nan", "x")
    grids = (
        ("0", "1", "2"), ("0", "2", "3"), ("-1e-3", "1", "2"), ("1e-310", "1", "2"),
        ("1e-300", "1", "3"), ("0", "700", "3"), ("0", "1e308", "2"), ("-1", "1", "5"),
        ("5e-324", "1.7e308", "3"), ("1", "0", "3"), ("0", "0", "2"), ("0", "1", "1"),
        ("-inf", "1", "2"), ("0", "nan", "3"), ("0", "1", HUGE), ("0", "1", "x"),
    )
    for branch in ("bose", "fermi"):
        for z in zs:
            for lo, hi, steps in grids:
                yield ("occupation", "--z", z, "--branch", branch, "--beta-eps-min", lo,
                       "--beta-eps-max", hi, "--steps", steps, "--format", "json"), {}
        for fmt in ("text", "csv"):
            for lo, hi, steps in grids[:9]:
                yield ("occupation", "--z", "0.5", "--branch", branch, "--beta-eps-min", lo,
                       "--beta-eps-max", hi, "--steps", steps, "--format", fmt), {}
    yield ("occupation", "--z", "0.5", "--branch", "poisson", *MINIMAL["occupation"][2:]), {}


def _negative_cases():
    places = (
        (("classify",), "--p0"),
        (("polylog", "--kind", "bose"), "--z"),
        (("thresholds",), "--b"),
        (("sweep", "--p-max", "3", "--steps", "3"), "--p-min"),
        (("sweep", "--p-min", "-5", "--steps", "3"), "--p-max"),
        (("sweep", "--p-min", "1", "--p-max", "3"), "--steps"),
        (("occupation", "--z", "0.5", "--branch", "fermi", "--beta-eps-max", "1",
          "--steps", "2", "--format", "json"), "--beta-eps-min"),
        (("occupation", "--branch", "fermi", "--beta-eps-min", "0", "--beta-eps-max", "1",
          "--steps", "2"), "--z"),
        (("thresholds", "--b", "1.2"), "--tolerance"),
        (("thresholds", "--b", "1.2"), "--max-terms"),
        (("classify", "--p0", "150"), "--window"),
    )
    for argv, flag in places:
        for value in NEGATIVES:
            yield (*argv, flag, value), {}
            yield (*argv, f"{flag}={value}"), {}


def _environment_cases():
    for command, argv in MINIMAL.items():
        for variable, flag, given in (
            ("QGAS_TOL", "--tolerance", "1e-6"), ("QGAS_WINDOW", "--window", "0.02")
        ):
            for value in ENV_VALUES:
                yield (command, *argv), {variable: value}
                yield (command, *argv, flag, given), {variable: value}
    for tol in ("1e-10", "x"):
        for window in ("0.05", "x"):
            env = {"QGAS_TOL": tol, "QGAS_WINDOW": window}
            yield ("classify", "--p0", "202", "--format", "json"), env
    for value in ENV_VALUES:
        yield ("classify", "--p0", "202", "--mode", "paper"), {"QGAS_WINDOW": value}
        yield ("thresholds", "--format", "csv"), {"QGAS_TOL": value}
    yield ("classify", "--p0", "202"), {"QGAS_SERIES": "cubic"}


def _usage_cases():
    for argv in (
        (), ("entropy",), ("--format", "json"), ("polylog",), ("polylog", "--kind", "bose"),
        ("polylog", "--z", "0.5"), ("polylog", "--kind", "poisson", "--z", "0.5"),
        ("classify",), ("classify", "--p0"), ("classify", "--p0", "150", "--mode", "guess"),
        ("classify", "--p0", "150", "--series", "full"), ("classify", "--p0", "150", "extra"),
        ("classify", "--p0", "150", "--format", "xml"), ("classify", "--p", "150"),
        ("classify", "--p0", "150", "--mo", "paper"), ("thresholds", "--tol", "1e-3"),
        ("sweep", "--p-min", "1"), ("sweep", "--p-min", "300", "--p-max", "100", "--steps", "5"),
        ("sweep", "--p-min", "100", "--p-max", "100", "--steps", "5"), ("occupation", "--z", "0.5"),
        ("occupation", *MINIMAL["occupation"], "--tolerance", "1e-3"),
        ("polylog", *MINIMAL["polylog"], "--window", "0.1"),
        ("thresholds", "--window", "0.1"), ("thresholds", "--b", "1", "--b", "2"),
    ):
        yield argv, {}
    for command in ("", *MINIMAL):
        for flag in ("--help", "-h"):
            yield tuple(filter(None, (command, flag))), {}
    yield ("classify", "--p0", "x", "--help"), {}
    yield ("sweep", "--help", "--p-min", "x"), {}


def _out_cases():
    for command, argv in MINIMAL.items():
        for fmt in FORMATS:
            for target in ("out.txt", "missing/out.txt", ".", ""):
                yield (command, *argv, "--format", fmt, "--out", target), {}
            yield (command, *argv, "--format", fmt, "--out=out.txt"), {}
    yield ("classify", "--p0", "-1", "--out", "out.txt"), {}
    yield ("classify", "--p0", "-1", "--out", "missing/out.txt"), {}
    yield ("polylog", "--kind", "bose", "--z", "0.95", "--max-terms", "10", "--out", "out.txt"), {}


def _smoke_cases():
    """Plain invocations with few options, as a smoke test of an install runs them."""
    for argv in (
        ("polylog", "--kind", "bose", "--z", "0.5"),
        ("thresholds", "--tolerance", "1e-3", "--format", "json"),
        ("classify", "--p0", "150", "--format", "json"),
        ("sweep", "--p-min", "150", "--p-max", "250", "--steps", "11", "--format", "csv"),
        ("occupation", "--z", "0.5", "--branch", "fermi", "--beta-eps-min", "0",
         "--beta-eps-max", "1", "--steps", "3"),
        ("thresholds", "--tolerance", "2"),
        ("classify", "--p0", "193.6", "--mode", "self", "--tolerance", "2"),
    ):
        yield argv, {}


def cases():
    """Every (argv, env) case once, in a fixed order."""
    seen = {}
    for source in (
        _polylog_cases, _thresholds_cases, _classify_cases, _sweep_cases, _occupation_cases,
        _negative_cases, _environment_cases, _usage_cases, _out_cases, _smoke_cases,
    ):
        for argv, env in source():
            seen.setdefault((argv, tuple(sorted(env.items()))), (list(argv), env))
    return list(seen.values())


def report_calls():
    """Every (classifier, keyword arguments) call of ``reports.jsonl``, in a fixed order."""
    fixed_edge = threshold_condensation(condensation_fixed_point().b)
    momenta = [float(p0) for p0 in _momenta_on_edges()]
    for centre in (
        P_CONDENSATION_NOMINAL, P_DILUTION_NOMINAL, fixed_edge, COUPLING_CONSTANT / math.e
    ):
        momenta += map(float, _neighbours(centre, 4))
    momenta += [
        1e-310, 1e308, 100.0, 124.7, 150.0, 190.0, 193.6, 200, 202.0, 206.05, 210.0, 250.0, 1000.0
    ]
    for p0 in dict.fromkeys(momenta):  # each momentum once, in first-seen order
        for window in REPORT_WINDOWS:
            yield "classify_paper", {"p0": p0, "window": window}
        for tol in REPORT_TOLERANCES:
            yield "classify_selfconsistent", {"p0": p0, "tol": tol}
            for window in REPORT_WINDOWS:
                yield "classify_both", {"p0": p0, "window": window, "tol": tol}
    # One good value first, then bad ones: each pair and triple shows which check refuses first.
    windows = (0.01, 0.0, -1.0, math.nan, math.inf, "x")
    tols = (1e-12, 0.0, 2.0, math.nan, math.inf, "x")
    for p0 in (150.0, math.nan, -1.0, 0.0, 1e-320, math.inf, 10 ** 400, "x", None):
        for window in windows:
            yield "classify_paper", {"p0": p0, "window": window}
            for tol in tols:
                yield "classify_both", {"p0": p0, "window": window, "tol": tol}
        for tol in tols:
            yield "classify_selfconsistent", {"p0": p0, "tol": tol}


def _argparse_decides(argv) -> bool:
    """Whether argparse ends this call itself: ``--help``, or one of its own parse errors."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli._build_parser().parse_args(argv)
        except (cli._UsageError, cli._HelpShown):
            return True
    return False


def main() -> None:
    start = time.perf_counter()
    records = []
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv, env in cases():
                code, stdout, stderr, files = run_case(argv, env)
                records.append({
                    "argv": argv, "env": env, "argparse": _argparse_decides(argv), "exit": code,
                    "stdout": stdout, "stderr": stderr, "files": files,
                })
        finally:
            os.chdir(home)
    text = "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records)
    CORPUS.write_text(text, encoding="utf-8")
    exits = Counter(record["exit"] for record in records)
    reports = [
        {"call": call, "kwargs": kwargs, **report_of(call, kwargs)}
        for call, kwargs in report_calls()
    ]
    REPORTS.write_text(
        "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in reports), encoding="utf-8"
    )
    refused = sum("raised" in r for r in reports)
    print(
        f"{len(records)} cases, {len(text.encode())} bytes, "
        f"exit codes {dict(sorted(exits.items()))}; {len(reports)} reports, {refused} refused; "
        f"{time.perf_counter() - start:.2f} s"
    )


if __name__ == "__main__":
    main()
