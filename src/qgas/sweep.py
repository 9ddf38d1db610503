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
from numbers import Integral

from .errors import _ABOVE_ZERO, _FINITE, _POSITIVE, DomainError, _Record, _one_of, _real, _shown
from .gas import occupation_bose, occupation_fermi
from .polylog import DEFAULT_SERIES_PARAMS, SeriesParams
from .regime import (
    SERIES_VARIANTS, RegimeReport, _ordered_flags, classify_both, classify_paper,
    classify_selfconsistent,
)

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


def row_from_report(report: RegimeReport) -> SweepRow:
    """Flatten a RegimeReport into the serializable row shape."""
    pair = report.fugacity
    return SweepRow(
        p0=report.momentum,
        K=report.coupling,
        paper_label=report.paper_label.value if report.paper_label else None,
        selfconsistent_label=(
            report.selfconsistent_label.value if report.selfconsistent_label else None
        ),
        branch="bose" if pair else None,
        z=pair.z if pair else None,
        z_prime=pair.z_prime if pair else None,
        b=pair.b if pair else None,
        flags=_ordered_flags(report.flags),
    )


def _check_grid(lo, hi, steps: int, lo_name: str, hi_name: str) -> tuple[float, float]:
    """The grid bounds as floats; DomainError when no finite grid can be built from them."""
    if not (isinstance(steps, Integral) and steps >= 2):
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


def _classify(
    p0: float, mode: str, window: float, series: str, tol: float, params: SeriesParams
) -> RegimeReport:
    """The report of the classifier that ``mode`` (one of SWEEP_MODES) names."""
    if mode == "paper":
        return classify_paper(p0, window)
    if mode == "self":
        return classify_selfconsistent(p0, series, tol, params)
    return classify_both(p0, window, series, tol, params)


def run_sweep(
    spec: SweepSpec, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> list[SweepRow]:
    """Classify every point of the linear grid described by ``spec``."""
    return [
        row_from_report(_classify(p0, spec.mode, spec.window, spec.series, spec.tol, params))
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
    """Deterministic JSON: two-space indent, keys in insertion order, trailing newline."""
    import json  # on first use: the CSV and text paths never load it
    return json.dumps(payload, indent=2) + "\n"


def _table_text(fmt: str, columns: tuple[str, ...], records) -> str:
    """``records``, dicts keyed by ``columns`` in that order, as a JSON array of objects or as CSV.

    The CSV has a header, LF line ends and a trailing newline; no quoting,
    because no cell holds a comma, a quote or a line break.
    """
    if fmt == "json":
        return _json_text(list(records))
    lines = (columns, *map(dict.values, records))
    return "".join(",".join(map(_csv_cell, cells)) + "\n" for cells in lines)


def emit_csv(rows: list[SweepRow]) -> str:
    """Render rows as deterministic CSV (LF line ends, trailing newline)."""
    return _table_text("csv", _COLUMNS, map(vars, rows))


def emit_json(rows: list[SweepRow]) -> str:
    """Render rows as a JSON array of objects in column order."""
    return _table_text("json", _COLUMNS, map(vars, rows))


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
    occupation = occupation_bose if branch == "bose" else occupation_fermi
    return [(x, occupation(z, x)) for x in _inclusive_grid(lo, hi, steps)]
