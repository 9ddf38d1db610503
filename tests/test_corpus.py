"""Replay the committed CLI behaviour corpus: every recorded case must give the same result.

Each line of ``corpus/cli.jsonl`` is one in-process ``qgas.cli.main(argv)``
call: its argv, the ``QGAS_*`` variables set for it (every other one is
cleared), and its exit code, stdout, stderr and the files it wrote, run in an
empty temporary directory.  A case whose output argparse writes itself
(``--help`` and argparse's own parse errors) is marked ``"argparse": true``;
that text differs between Python releases, so for those cases only the exit
code, which streams are non-empty and the files are compared.  Every other
case is compared byte for byte.

Two checks read the recorded cases alone.  Every exit-0 case asked for CSV or
JSON holds only strict, finite numbers: no ``NaN`` or ``Infinity`` in JSON and
no non-finite CSV cell.  And each subcommand's cases reach exactly the exit
codes of ``EXITS_REACHED``, so a regeneration cannot drop a kind of case.

Each line of ``corpus/reports.jsonl`` is one call of ``classify_paper``,
``classify_selfconsistent`` or ``classify_both``: its name, its keyword
arguments, and the ``repr`` of the report or the refusal's exception type and
message.  Every record is compared exactly.

Runs under pytest, or as a script that needs nothing but ``qgas``::

    PYTHONPATH=src python tests/test_corpus.py

which prints each case or report that differs or fails a check, and exits 1
if any does.  To regenerate the corpus after an intended output change, see
``corpus/make_corpus.py``.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from qgas import regime
from qgas.cli import main
from qgas.errors import QgasError

CORPUS = Path(__file__).parent / "corpus" / "cli.jsonl"
REPORTS = Path(__file__).parent / "corpus" / "reports.jsonl"

# The exit codes each subcommand's cases reach.
EXITS_REACHED = {
    "polylog": {0, 1, 2, 3, 4},
    "thresholds": {0, 1, 2, 3, 4},
    "classify": {0, 1, 2, 3, 4},
    "sweep": {0, 1, 2, 3, 4},
    "occupation": {0, 1, 2, 4},
}


def run_case(argv, env):
    """Run ``main(argv)`` with only ``env`` of the QGAS_* variables set, in the current directory.

    Returns the exit code, stdout, stderr and a dict of the files the call
    left in the directory (name to text), which are then removed.
    """
    saved = {name: os.environ.pop(name) for name in list(os.environ) if name.startswith("QGAS_")}
    os.environ.update(env)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
    finally:
        for name in env:
            del os.environ[name]
        os.environ.update(saved)
    files = {}
    for name in sorted(os.listdir()):
        with open(name, encoding="utf-8", newline="") as handle:
            files[name] = handle.read()
        os.remove(name)
    return code, stdout.getvalue(), stderr.getvalue(), files


def load_cases(path=CORPUS):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _observed(case, code, stdout, stderr, files):
    """What of a run is compared: all of it, or only the shape of argparse's own text."""
    if case["argparse"]:
        return code, bool(stdout), bool(stderr), files
    return code, stdout, stderr, files


def replay(cases):
    """Run every case in an empty temporary directory; return one line per case that differs."""
    differ = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for number, case in enumerate(cases, 1):
                got = _observed(case, *run_case(case["argv"], case["env"]))
                want = _observed(
                    case, case["exit"], case["stdout"], case["stderr"], case["files"]
                )
                if got != want:
                    where = f"case {number} {case['argv']} {case['env']}"
                    differ.append(f"{where}: {got!r}, want {want!r}")
        finally:
            os.chdir(home)
    return differ


def report_of(call, kwargs):
    """``{"repr": ...}`` of ``regime.<call>(**kwargs)``, or ``{"raised": [type, message]}``."""
    try:
        return {"repr": repr(getattr(regime, call)(**kwargs))}
    except QgasError as exc:
        return {"raised": [type(exc).__name__, str(exc)]}


def replay_reports(records):
    """Make every recorded classifier call again; return one line per record that differs."""
    differ = []
    for number, record in enumerate(records, 1):
        want = {key: record[key] for key in ("repr", "raised") if key in record}
        got = report_of(record["call"], record["kwargs"])
        if got != want:
            where = f"report {number} {record['call']}({record['kwargs']})"
            differ.append(f"{where}: {got!r}, want {want!r}")
    return differ


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _nonfinite(fmt, out):
    """Why ``out`` is not strict, finite JSON or CSV, or "" when it is."""
    if fmt == "json":
        try:
            json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            return str(exc)
        return ""
    for cell in out.replace("\n", ",").split(","):
        try:
            number = float(cell)
        except ValueError:
            continue
        if not math.isfinite(number):
            return f"cell {cell!r}"
    return ""


def nonfinite_outputs(cases):
    """One line per exit-0 CSV or JSON case whose output, or file written, is not strict."""
    found = []
    for number, case in enumerate(cases, 1):
        argv = case["argv"]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        if case["exit"] == 0 and fmt in ("csv", "json"):
            for out in case["files"].values() or [case["stdout"]]:
                if reason := _nonfinite(fmt, out):
                    found.append(f"case {number} {argv} {case['env']}: {reason}")
    return found


def coverage_gaps(cases):
    """One line per subcommand whose cases do not reach exactly its ``EXITS_REACHED``."""
    reached = {command: set() for command in EXITS_REACHED}
    for case in cases:
        if case["argv"] and case["argv"][0] in reached:
            reached[case["argv"][0]].add(case["exit"])
    return [
        f"{command} cases reach exit codes {sorted(got)}, want {sorted(EXITS_REACHED[command])}"
        for command, got in reached.items()
        if got != EXITS_REACHED[command]
    ]


def test_corpus_replays_identically():
    cases = load_cases()
    assert len(cases) >= 3000
    assert {case["exit"] for case in cases} == {0, 1, 2, 3, 4}
    assert replay(cases) == []


def test_classifier_reports_replay_identically():
    records = load_cases(REPORTS)
    assert len(records) >= 1000
    assert replay_reports(records) == []


def test_exit_0_csv_and_json_are_strict_and_finite():
    assert nonfinite_outputs(load_cases()) == []


def test_each_subcommand_reaches_its_exit_codes():
    assert coverage_gaps(load_cases()) == []


if __name__ == "__main__":
    cases, records = load_cases(), load_cases(REPORTS)
    differ, reports_differ = replay(cases), replay_reports(records)
    failed = [*differ, *reports_differ, *nonfinite_outputs(cases), *coverage_gaps(cases)]
    for line in failed:
        print(line)
    print(f"{len(cases) - len(differ)} of {len(cases)} cases replayed identically")
    print(f"{len(records) - len(reports_differ)} of {len(records)} reports replayed identically")
    sys.exit(1 if failed else 0)
