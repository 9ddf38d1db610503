"""Replay the committed CLI behaviour corpus: every recorded case must give the same result.

Each line of ``corpus/cli.jsonl`` is one in-process ``qgas.cli.main(argv)``
call: its argv, the ``QGAS_*`` variables set for it (every other one is
cleared), and its exit code, stdout, stderr and the files it wrote, run in an
empty temporary directory.  A case whose output argparse writes itself
(``--help`` and argparse's own parse errors) is marked ``"argparse": true``;
that text differs between Python releases, so for those cases only the exit
code, which streams are non-empty and the files are compared.  Every other
case is compared byte for byte.

Runs under pytest, or as a script that needs nothing but ``qgas``::

    PYTHONPATH=src python tests/test_corpus.py

which prints each case that differs and exits 1 if any does.  To
regenerate the corpus after an intended output change, see
``corpus/make_corpus.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from qgas.cli import main

CORPUS = Path(__file__).parent / "corpus" / "cli.jsonl"


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


def test_corpus_replays_identically():
    cases = load_cases()
    assert len(cases) >= 3000
    assert {case["exit"] for case in cases} == {0, 1, 2, 3, 4}
    assert replay(cases) == []


if __name__ == "__main__":
    cases = load_cases()
    differ = replay(cases)
    for line in differ:
        print(line)
    print(f"{len(cases) - len(differ)} of {len(cases)} cases replayed identically")
    sys.exit(1 if differ else 0)
