"""Momentum sweeps over the regime classifiers and tabular serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral

from .errors import DomainError, _real, _set_positive
from .gas import occupation_bose, occupation_fermi
from .polylog import DEFAULT_SERIES_PARAMS, SeriesParams
from .regime import (
    FLAG_ORDER, RegimeReport, _check_series, classify_both, classify_paper, classify_selfconsistent
)

SWEEP_MODES = ("paper", "self", "both")


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of a linear momentum sweep."""

    p_min: float
    p_max: float
    steps: int
    mode: str = "both"
    series: str = "truncated"
    window: float = 0.01
    tol: float = 1e-12

    def __post_init__(self) -> None:
        p_min = _real(self.p_min, "p_min")
        if not p_min > 0.0:
            raise DomainError(f"p_min must be positive, got {p_min!r}")
        bounds = _check_grid(p_min, self.p_max, self.steps, "p_min", "p_max")
        for name, value in zip(("p_min", "p_max"), bounds):
            object.__setattr__(self, name, value)
        if self.mode not in SWEEP_MODES:
            raise DomainError(f"mode must be one of {SWEEP_MODES}, got {self.mode!r}")
        _check_series(self.series)
        _set_positive(self, "window", "tol")


@dataclass(frozen=True)
class SweepRow:
    """One classified grid point, flattened for serialization."""

    p0: float
    K: float
    paper_label: str | None
    selfconsistent_label: str | None
    branch: str | None
    z: float | None
    z_prime: float | None
    b: float | None
    flags: tuple[str, ...]

    def to_record(self) -> dict:
        """The row as a JSON-ready dict: keys in column order, flags as a list."""
        return {**vars(self), "flags": list(self.flags)}


# The CSV columns and JSON keys, in this order, are the fields of SweepRow;
# flags comes last.
_COLUMNS = tuple(f.name for f in fields(SweepRow))


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
        flags=tuple(f for f in FLAG_ORDER if f in report.flags),
    )


def _check_grid(lo, hi, steps: int, lo_name: str, hi_name: str) -> tuple[float, float]:
    """The grid bounds as floats; DomainError when no finite grid can be built from them."""
    if not (isinstance(steps, Integral) and steps >= 2):
        raise DomainError(f"steps must be an integer of at least 2, got {steps!r}")
    lo, hi = _real(lo, lo_name), _real(hi, hi_name)
    for name, value in ((lo_name, lo), (hi_name, hi)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
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


def _csv_table(header, rows) -> str:
    """Deterministic CSV of ``header`` and the cell sequences in ``rows``.

    LF line ends and a trailing newline; no quoting, because no cell holds a
    comma, a quote or a line break.
    """
    return "".join(",".join(map(_csv_cell, cells)) + "\n" for cells in (header, *rows))


def _json_text(payload) -> str:
    """Deterministic JSON: two-space indent, keys in insertion order, trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


def emit_csv(rows: list[SweepRow]) -> str:
    """Render rows as deterministic CSV (LF line ends, trailing newline)."""
    # vars() lists a dataclass's fields in declaration order, the order of _COLUMNS.
    return _csv_table(_COLUMNS, (vars(row).values() for row in rows))


def emit_json(rows: list[SweepRow]) -> str:
    """Render rows as a JSON array of objects in column order."""
    return _json_text([row.to_record() for row in rows])


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
    if branch == "bose":
        occupation = occupation_bose
    elif branch == "fermi":
        occupation = occupation_fermi
    else:
        raise DomainError(f"branch must be 'bose' or 'fermi', got {branch!r}")
    return [(x, occupation(z, x)) for x in _inclusive_grid(lo, hi, steps)]
