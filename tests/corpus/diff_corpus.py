"""Compare two versions of a behaviour corpus, allowing only last-digit moves.

Run from the repository root, on two versions of ``cli.jsonl`` or of
``reports.jsonl``::

    python tests/corpus/diff_corpus.py OLD NEW

The two files must hold the same records in the same order: the same argv
and env for CLI cases, the same call and keyword arguments for reports.
Exit codes, stderr, file names, ``raised`` records and every non-numeric
byte, labels and flags included, must be identical.  An ``"argparse": true``
case is compared as ``tests/test_corpus.py`` replays it: its exit code,
which streams are non-empty, and its files.

A number is a decimal float literal as ``repr`` prints it.  It may move by
at most ``MAX_MOVE`` relative, the default root width of the solvers.  An
integer literal, and a float whose text changes while its value does not
(``0.0`` and ``-0.0``), must stay identical.

Prints the moved cases per subcommand or classifier, the moved numbers per
column and the largest move, and exits 0.  Any other difference is printed,
and the exit code is 1.
"""

import json
import re
import sys
from collections import Counter

# The largest relative move a number may make: the default root width.
MAX_MOVE = 1e-12

# A numeric literal that is not part of a word, such as the 32 of g32.
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")
# The name a number is given on its line: "z": 0.5, z=0.5 or z: 0.5.
_NAMED = re.compile(r"""([A-Za-z_][\w']*)"?\s*[:=]\s*$""")


def _column(text, start):
    """The name of the number at ``text[start]``: its key, or its CSV header cell."""
    line_start = text.rfind("\n", 0, start) + 1
    prefix = text[line_start:start]
    line = prefix + text[start:].split("\n", 1)[0]
    if named := _NAMED.search(prefix):
        return named.group(1)
    header = text.split("\n", 1)[0].split(",")
    if "," in line and len(header) > 1:
        return header[prefix.count(",")]
    return "text"


def _is_float(literal):
    return any(mark in literal for mark in ".eE")


def compare_text(old, new):
    """Numbers moved from ``old`` to ``new``, as (column, relative move), or None if not allowed.

    ``old`` and ``new`` must have the same text between their numbers, the
    same integers, and floats within ``MAX_MOVE`` of each other.
    """
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    moves = []
    for was, now in zip(_NUMBER.finditer(old), _NUMBER.finditer(new)):
        a, b = was.group(), now.group()
        if a == b:
            continue
        if not (_is_float(a) and _is_float(b)) or float(a) == float(b):
            return None
        move = abs(float(a) - float(b)) / max(abs(float(a)), abs(float(b)))
        if not move <= MAX_MOVE:
            return None
        moves.append((_column(old, was.start()), move))
    return moves


def _cli_fields(case):
    """The exact fields of a CLI case, and its (name, text) pairs that may move."""
    exact = [case["argv"], case["env"], case["argparse"], case["exit"], sorted(case["files"])]
    if case["argparse"]:
        return [*exact, bool(case["stdout"]), bool(case["stderr"]), case["files"]], []
    return [*exact, case["stderr"]], [("stdout", case["stdout"]), *sorted(case["files"].items())]


def _report_fields(record):
    """The exact fields of a report record, and its (name, text) pairs that may move."""
    exact = [record["call"], record["kwargs"], record.get("raised"), "repr" in record]
    return exact, [("repr", record.get("repr", ""))]


def compare(old_records, new_records):
    """Compare two corpora record by record.

    Returns ``(problems, moved)``: one line per record that differs in more
    than its numbers' last digits, and one ``(kind, column, move, where)``
    per moved number, ``kind`` being the subcommand or classifier.
    """
    if len(old_records) != len(new_records):
        return [f"{len(old_records)} records, now {len(new_records)}"], []
    problems, moved = [], []
    for number, (old, new) in enumerate(zip(old_records, new_records), 1):
        fields = _cli_fields if "argv" in old else _report_fields
        what = old["argv"] if "argv" in old else [old.get("call"), old.get("kwargs")]
        where = f"record {number} {json.dumps(what)}"
        try:
            (old_exact, old_texts), (new_exact, new_texts) = fields(old), fields(new)
        except KeyError as exc:
            problems.append(f"{where}: no field {exc}")
            continue
        # As JSON text, since a NaN keyword argument is unequal to itself.
        if json.dumps(old_exact) != json.dumps(new_exact):
            problems.append(f"{where}: {new_exact!r}, was {old_exact!r}")
            continue
        kind = (old["argv"] or ["-"])[0] if "argv" in old else old["call"]
        for (name, was), (_, now) in zip(old_texts, new_texts):
            moves = compare_text(was, now)
            if moves is None:
                problems.append(f"{where} {name}: {now!r}, was {was!r}")
                break
            moved += [(kind, column, move, where) for column, move in moves]
    return problems, moved


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def main(argv):
    if len(argv) != 2:
        print("usage: diff_corpus.py OLD NEW", file=sys.stderr)
        return 2
    old, new = map(_load, argv)
    problems, moved = compare(old, new)
    for line in problems:
        print(line)
    cases = Counter(kind for kind, _ in {(kind, where) for kind, _, _, where in moved})
    columns = Counter(column for _, column, _, _ in moved)
    print(f"{sum(cases.values())} of {len(old)} records moved: "
          + (", ".join(f"{kind} {n}" for kind, n in sorted(cases.items())) or "none"))
    print(f"{len(moved)} numbers moved: "
          + (", ".join(f"{column} {n}" for column, n in sorted(columns.items())) or "none"))
    if moved:
        kind, column, move, where = max(moved, key=lambda m: m[2])
        print(f"largest move {move:.3g} relative, in {column} of {where}")
    if problems:
        print(f"{len(problems)} records differ in more than their last digits")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
