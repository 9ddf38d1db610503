"""The tables' vocabulary and text: CSV here, and JSON through ``_json_writer`` on first use."""

from operator import itemgetter

SWEEP_MODES = ("paper", "self", "both")
OCCUPATION_BRANCHES = ("bose", "fermi")


def _csv_cell(value) -> str:
    """The one CSV cell rule: None is empty, a float is its repr, flags join with '|'."""
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)  # as the JSON writer writes a float subclass, such as numpy's
    if isinstance(value, tuple):
        return "|".join(value)
    return str(value)


def _table_text(columns: tuple[str, ...], records) -> str:
    """``records``, dicts keyed by at least ``columns``, as CSV of those columns in that order.

    The CSV has a header, LF line ends and a trailing newline; no quoting,
    because no cell holds a comma, a quote or a line break.
    """
    lines = (columns, *map(itemgetter(*columns), records))  # two or more columns: a tuple each
    return "".join(",".join(map(_csv_cell, cells)) + "\n" for cells in lines)


def _json_text(payload) -> str:
    """``payload``, a dict or a list of flat dicts, as indented JSON with a trailing newline."""
    from ._json_writer import to_json  # on first use: only a process writing JSON compiles it
    return to_json(payload, "") + "\n"
