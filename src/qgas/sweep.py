"""Momentum sweeps over the regime classifiers and tabular serialization."""

__all__ = [
    "SweepRow",
    "SweepSpec",
    "emit_csv",
    "emit_json",
    "occupation_curve",
    "row_from_report",
    "run_sweep",
]

import math
from operator import itemgetter

from .errors import (
    _ABOVE_ZERO, _FINITE, _NONNEGATIVE, _POSITIVE, _UNIT, DomainError, _Record, _one_of, _real,
    _shown,
)
from .gas import occupation_bose, occupation_fermi
from .polylog import DEFAULT_SERIES_PARAMS, SeriesParams
from .regime import SERIES_VARIANTS, RegimeReport, _labels, _ordered_flags, coupling_from_momentum

SWEEP_MODES = ("paper", "self", "both")
OCCUPATION_BRANCHES = ("bose", "fermi")


class SweepSpec(_Record):
    """Parameters of a linear momentum sweep."""

    mode = "both"
    series = "truncated"
    window = 0.01
    tol = 1e-12

    def __init__(
        self, p_min: float, p_max: float, steps: int, mode: str = mode, series: str = series,
        window: float = window, tol: float = tol,
    ):
        p_min = _real(p_min, "p_min", _ABOVE_ZERO)
        p_min, p_max = _check_grid(p_min, p_max, steps, "p_min", "p_max")
        _one_of(mode, SWEEP_MODES, "mode")
        _one_of(series, SERIES_VARIANTS, "series variant")
        window, tol = _real(window, "window", _POSITIVE), _real(tol, "tol", _POSITIVE)
        vars(self).update(
            p_min=p_min, p_max=p_max, steps=steps, mode=mode, series=series, window=window, tol=tol
        )


class SweepRow(_Record):
    """One classified grid point, flattened for serialization."""

    def __init__(
        self, p0: float, K: float, paper_label: str | None, selfconsistent_label: str | None,
        branch: str | None, z: float | None, z_prime: float | None, b: float | None,
        flags: tuple[str, ...],
    ):
        vars(self).update(
            p0=p0, K=K, paper_label=paper_label, selfconsistent_label=selfconsistent_label,
            branch=branch, z=z, z_prime=z_prime, b=b, flags=flags,
        )


# The CSV columns and JSON keys, in order: the fields of SweepRow, as vars(row) lists them.
_COLUMNS = (
    "p0", "K", "paper_label", "selfconsistent_label", "branch", "z", "z_prime", "b", "flags"
)


def _row(p0: float, coupling: float, paper, selfc, pair, flags) -> SweepRow:
    """The row of one classification, from the fields of its RegimeReport in order."""
    return SweepRow(
        p0, coupling, paper and paper.value, selfc and selfc.value, pair and "bose",
        pair and pair.z, pair and pair.z_prime, pair and pair.b, _ordered_flags(flags),
    )


def row_from_report(report: RegimeReport) -> SweepRow:
    """Flatten a RegimeReport into the serializable row shape."""
    return _row(*vars(report).values())


def _check_grid(lo, hi, steps: int, lo_name: str, hi_name: str) -> tuple[float, float]:
    """The grid bounds as floats; DomainError when no finite grid can be built from them."""
    if not (hasattr(type(steps), "__index__") and steps >= 2):
        raise DomainError(f"steps must be an integer of at least 2, got {_shown(steps)}")
    _real(steps, "steps")  # the grid divides by steps - 1 as a float
    # Both convert before either is tested: a non-number outranks an infinite bound.
    lo, hi = _real(lo, lo_name), _real(hi, hi_name)
    lo, hi = _real(lo, lo_name, _FINITE), _real(hi, hi_name, _FINITE)
    if not hi > lo:
        raise DomainError(f"{hi_name} must exceed {lo_name}, got {lo_name}={lo!r} {hi_name}={hi!r}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"{hi_name} - {lo_name} overflows, got {lo_name}={lo!r} {hi_name}={hi!r}")
    return lo, hi


def _inclusive_grid(lo: float, hi: float, steps: int):
    """``steps`` evenly spaced points from ``lo``; the last lands exactly on ``hi``."""
    span = hi - lo
    for i in range(steps - 1):
        yield lo + span * i / (steps - 1)
    yield hi


def run_sweep(spec: SweepSpec, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> list[SweepRow]:
    """Classify every grid point of ``spec`` (which checked its settings); p0 is checked here."""
    return [
        _row(p0, *_labels(p0, coupling_from_momentum(p0), spec.mode, spec.window, spec.tol, params))
        for p0 in _inclusive_grid(spec.p_min, spec.p_max, spec.steps)
    ]


def _csv_cell(value) -> str:
    """The one CSV cell rule: None is empty, a float is its repr, flags join with '|'."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "|".join(value)
    return str(value)


def _json_text(payload) -> str:
    """``payload``, a dict or a list of flat dicts, as indented JSON with a trailing newline."""
    from ._json_writer import to_json  # on first use: `import qgas` need not compile the writer
    return to_json(payload, "") + "\n"


def _table_text(columns: tuple[str, ...], records) -> str:
    """``records``, dicts keyed by at least ``columns``, as CSV of those columns in that order.

    The CSV has a header, LF line ends and a trailing newline; no quoting,
    because no cell holds a comma, a quote or a line break.
    """
    lines = (columns, *map(itemgetter(*columns), records))  # two or more columns: a tuple each
    return "".join(",".join(map(_csv_cell, cells)) + "\n" for cells in lines)


def emit_csv(rows: list[SweepRow]) -> str:
    """Render rows as deterministic CSV (LF line ends, trailing newline)."""
    return _table_text(_COLUMNS, map(vars, rows))


def emit_json(rows: list[SweepRow]) -> str:
    """Render rows as a JSON array of objects in column order."""
    return _json_text(list(map(vars, rows)))


def occupation_curve(
    z: float,
    beta_eps_min: float,
    beta_eps_max: float,
    steps: int,
    branch: str = "bose",
) -> list[tuple[float, float]]:
    """Tabulate the occupation over an inclusive beta*eps grid.

    ``steps`` counts grid points (at least 2); the first point sits on
    ``beta_eps_min`` and the last exactly on ``beta_eps_max``.  For the
    Bose branch a singular grid point (z = 1, beta_eps = 0) raises
    SingularityError just as the point evaluation does.
    """
    lo, hi = _check_grid(beta_eps_min, beta_eps_max, steps, "beta_eps_min", "beta_eps_max")
    _one_of(branch, OCCUPATION_BRANCHES, "branch")
    if branch == "bose":  # name a negative bound, not its grid point; z is still named first
        _real(z, "z", _UNIT)
        _real(lo, "beta_eps_min", _NONNEGATIVE)
    occupation = occupation_bose if branch == "bose" else occupation_fermi
    return [(x, occupation(z, x)) for x in _inclusive_grid(lo, hi, steps)]
