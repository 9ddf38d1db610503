"""The corpus comparer accepts a last-digit move and rejects every other change."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "corpus"))

from diff_corpus import MAX_MOVE, compare, main  # noqa: E402

Z = 0.9753016556384464

CASE = {
    "argv": ["classify", "--p0", "150", "--mode", "both", "--format", "csv"],
    "env": {},
    "argparse": False,
    "exit": 0,
    "stdout": (
        "p0,K,paper_label,selfconsistent_label,branch,z,z_prime,b,flags\n"
        f"150.0,3.7319292432266375,AnomalousFermionic,Condensation,bose,{Z!r},"
        "2.0882376210595703,2.141119733558311,near_threshold\n"
    ),
    "stderr": "",
    "files": {},
}
USAGE = {
    "argv": ["classify", "--p0", "x"], "env": {}, "argparse": True, "exit": 1, "stdout": "",
    "stderr": "usage: qgas classify [-h] --p0 P0\nusage error: argument --p0: invalid value\n",
    "files": {},
}
REPORT = {
    "call": "classify_both",
    "kwargs": {"p0": 150.0, "window": math.nan, "tol": 1e-12},
    "repr": (
        "RegimeReport(momentum=150.0, selfconsistent_label=<RegimeLabel.CONDENSATION: "
        f"'Condensation'>, fugacity=FugacityPair(z={Z!r}, z_prime=2.0882376210595703, "
        "b=2.141119733558311), flags=frozenset({'near_threshold'}))"
    ),
}


def _with(record, **changes):
    """``record`` through a JSON round trip, as a corpus file holds it, with ``changes``."""
    return {**json.loads(json.dumps(record)), **changes}


def _moved_stdout(factor):
    return CASE["stdout"].replace(repr(Z), repr(Z * factor))


def test_identical_corpora_move_nothing():
    assert compare([CASE, USAGE, REPORT], [_with(CASE), _with(USAGE), _with(REPORT)]) == ([], [])


def test_last_digit_move_is_accepted_and_counted():
    z, z_moved = repr(Z), repr(math.nextafter(Z, 1.0))
    text = _with(CASE, stdout=f"p0: 150.0\nz: {z}\nflags: near_threshold\n")
    old = [CASE, text, REPORT]
    new = [
        _with(CASE, stdout=CASE["stdout"].replace(z, z_moved)),
        _with(text, stdout=text["stdout"].replace(z, z_moved)),
        _with(REPORT, repr=REPORT["repr"].replace(z, z_moved)),
    ]
    problems, moved = compare(old, new)
    assert problems == []
    assert [(kind, column) for kind, column, _, _ in moved] == [
        ("classify", "z"), ("classify", "z"), ("classify_both", "z")
    ]
    assert all(0 < move < 2e-16 for _, _, move, _ in moved)


def test_argparse_text_is_compared_by_shape():
    other_release = _with(USAGE, stderr="usage: qgas classify [-h] --p0 P0\nerror\n")
    assert compare([USAGE], [other_release]) == ([], [])


@pytest.mark.parametrize(
    "new",
    [
        _with(CASE, stdout=CASE["stdout"].replace(",Condensation,", ",NormalBose,")),
        _with(CASE, stdout=CASE["stdout"].replace("near_threshold", "")),
        _with(CASE, exit=3),
        _with(CASE, stdout=_moved_stdout(1.0 + 1e-11)),
        _with(CASE, stderr="warning\n"),
        _with(CASE, files={"out.txt": ""}),
        _with(CASE, stdout=CASE["stdout"].replace("150.0,", "-150.0,")),
        _with(USAGE, exit=2),
    ],
    ids=["label", "flag", "exit", "move-1e-11", "stderr", "file", "sign", "argparse-exit"],
)
def test_other_changes_are_rejected(new):
    old = USAGE if new["argparse"] else CASE
    problems, _ = compare([old], [new])
    assert len(problems) == 1


@pytest.mark.parametrize(
    "new",
    [
        _with(REPORT, repr=REPORT["repr"].replace("CONDENSATION", "NORMAL_BOSE")),
        _with(REPORT, repr=REPORT["repr"].replace("'near_threshold'", "")),
        _with(REPORT, repr=REPORT["repr"].replace(repr(Z), repr(Z * (1.0 + 1e-11)))),
        _with(REPORT, kwargs={"p0": 150.0, "window": 0.01, "tol": 1e-12}),
        {"call": "classify_both", "kwargs": REPORT["kwargs"], "raised": ["DomainError", "p0"]},
    ],
    ids=["label", "flag", "move-1e-11", "kwargs", "raised"],
)
def test_report_changes_are_rejected(new):
    problems, _ = compare([REPORT], [new])
    assert len(problems) == 1


def test_the_bound_is_the_default_root_width():
    assert MAX_MOVE == 1e-12
    assert compare([CASE], [_with(CASE, stdout=_moved_stdout(1.0 + 0.9e-12))])[0] == []
    assert compare([CASE], [_with(CASE, stdout=_moved_stdout(1.0 + 1.1e-12))])[0] != []


def test_integers_and_the_sign_of_zero_must_not_change():
    text = 'numeric error: series did not converge within 10 terms at z=0.0\n'
    for changed in (text.replace("10", "11"), text.replace("z=0.0", "z=-0.0")):
        old = _with(CASE, stdout=text)
        assert compare([old], [_with(old, stdout=changed)])[0] != []


def test_records_must_line_up():
    assert compare([CASE, REPORT], [_with(CASE)])[0] != []
    assert compare([CASE, USAGE], [_with(USAGE), _with(CASE)])[0] != []


def _write(path, *records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    return str(path)


def test_command_line_reports_and_exits(tmp_path, capsys):
    old = _write(tmp_path / "old.jsonl", CASE, REPORT)
    new = _write(tmp_path / "new.jsonl", _with(CASE, stdout=_moved_stdout(1.0 + 4e-16)), REPORT)
    assert main([old, new]) == 0
    out = capsys.readouterr().out
    assert "1 of 2 records moved: classify 1" in out
    assert "1 numbers moved: z 1" in out
    assert "largest move" in out
    assert main([old, _write(tmp_path / "bad.jsonl", _with(CASE, exit=1), REPORT)]) == 1
    assert main([old]) == 2
