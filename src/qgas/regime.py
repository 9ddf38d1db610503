"""Self-consistency of the single-momentum normalization and regime labels.

Eliminating the specific volume from the normalization condition leaves a
single relation between the coupling K = (4*pi)**2.5 / p0 and the
fugacity.  With z' expressed through the order-3/2 series, the relation
reads K = H(z) on the Bose side and K = Phi(z) on the Fermi side, where

    H(z)   = e * g(z)/z - g(z)        (g = bose_g32)
    Phi(z) = e * f(z)/z + f(z)        (f = one of the fermi_f32 variants)

Both sides tend to e as z -> 0.  Phi increases strictly on (0, 1].  H is
*not* monotone: because e < 2**1.5, H dips slightly below e on
(0, ~0.19), reaching about e - 2.04e-3 near z = 0.1, before rising to
(e - 1) * ZETA_3_2 at z = 1.  Roots are therefore unique exactly for
couplings strictly between e and the z = 1 endpoint value; couplings at
or below e report no root on the dilution side (the shallow dip admits a
pair of near-dilution solutions that the bracketing convention here
deliberately does not chase).

Phi(1) < 3.12 < H(1), so no coupling above the Bose window has a root on
the Fermi side either: the self-consistent classifier reports such
couplings as OutOfModelRange without solving Phi(z) = K.  solve_fermi
solves the Fermi relation for callers that ask for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError
from .gas import FugacityPair
from .polylog import (
    DEFAULT_SERIES_PARAMS,
    SeriesParams,
    bose_g32,
    fermi_f32_full,
    fermi_f32_truncated,
)

# (4*pi)**2.5, the numerator of the coupling K = (4*pi)**2.5 / p0.
COUPLING_CONSTANT = 32.0 * math.pi ** 2.5

# Nominal b values behind the named thresholds.
B_DILUTION_NOMINAL = 1.0
B_CONDENSATION_NOMINAL = 1.4

# H(1) = (e - 1) * zeta(3/2), correctly rounded.  Computing e*g - g from
# g(1) = ZETA_3_2 rounds one ulp low, which would put the coupling H(1)
# itself outside the solvable window.
_H_AT_1 = 4.488797090760637

# Lower end of the root bracket; z = 0 itself is excluded because b and
# the residuals are defined through g(z)/z.
_BRACKET_LO = 1e-9
_MAX_BISECTIONS = 200

FLAG_OVERLAPS_FERMIONIC = "overlaps_fermionic_range"
FLAG_NO_BOSE_ROOT = "no_bose_root"
FLAG_NO_FERMI_ROOT = "no_fermi_root"
FLAG_NEAR_THRESHOLD = "near_threshold"

# Canonical order for serialized flag lists.
FLAG_ORDER = (
    FLAG_OVERLAPS_FERMIONIC,
    FLAG_NO_BOSE_ROOT,
    FLAG_NO_FERMI_ROOT,
    FLAG_NEAR_THRESHOLD,
)

SERIES_VARIANTS = ("full", "truncated")


class RegimeLabel(Enum):
    """Physical regime assignments for one momentum value."""

    CONDENSATION = "Condensation"
    DILUTION = "Dilution"
    ANOMALOUS_FERMIONIC = "AnomalousFermionic"
    NORMAL_BOSE = "NormalBose"
    ABOVE_DILUTION = "AboveDilution"
    OUT_OF_MODEL_RANGE = "OutOfModelRange"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a bracketed residual solve.

    Exactly one of the two fields is set: ``z`` on success, or
    ``no_root_side`` ("below" when the coupling sits below the solvable
    window, "above" when it sits above it).
    """

    z: float | None
    no_root_side: str | None

    @property
    def found(self) -> bool:
        return self.z is not None


@dataclass(frozen=True)
class RegimeReport:
    """Combined output of the regime classifiers for one momentum."""

    momentum: float
    coupling: float
    paper_label: RegimeLabel | None
    selfconsistent_label: RegimeLabel | None
    branch: str  # "bose" | "none": no classifier takes the Fermi branch (module notes)
    fugacity: FugacityPair | None
    flags: frozenset[str]
    labels_differ: bool | None = None


def coupling_from_momentum(p0: float) -> float:
    """Coupling K = (4*pi)**2.5 / p0 for momentum p0 > 0."""
    if not (isinstance(p0, (int, float)) and math.isfinite(p0) and p0 > 0):
        raise DomainError(f"p0 must be positive and finite, got {p0!r}")
    return COUPLING_CONSTANT / p0


def _check_series(series: str) -> None:
    if series not in SERIES_VARIANTS:
        raise DomainError(f"unknown series variant {series!r}, expected one of {SERIES_VARIANTS}")


def _fermi_series(z: float, series: str, params: SeriesParams) -> float:
    _check_series(series)
    return fermi_f32_full(z, params) if series == "full" else fermi_f32_truncated(z)


def bose_constraint_lhs(z: float, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> float:
    """H(z) = e*g(z)/z - g(z), the Bose side of the normalization relation."""
    if not 0.0 < z <= 1.0:
        raise DomainError(f"z must lie in (0, 1], got {z!r}")
    g = bose_g32(z, params)
    if z == 1.0:
        return _H_AT_1
    return math.e * g / z - g


def fermi_constraint_lhs(
    z: float, series: str = "truncated", params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> float:
    """Phi(z) = e*f(z)/z + f(z), the Fermi side of the normalization relation."""
    if not 0.0 < z <= 1.0:
        raise DomainError(f"z must lie in (0, 1], got {z!r}")
    f = _fermi_series(z, series, params)
    return math.e * f / z + f


def bose_residual(
    z: float, coupling: float, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> float:
    """Signed residual H(z) - K of the Bose self-consistency relation."""
    return bose_constraint_lhs(z, params) - coupling


def fermi_residual(
    z: float,
    coupling: float,
    series: str = "truncated",
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> float:
    """Signed residual Phi(z) - K of the Fermi self-consistency relation."""
    return fermi_constraint_lhs(z, series, params) - coupling


def _checked_solver_args(coupling: float, tol: float) -> None:
    if not (math.isfinite(coupling) and coupling > 0.0):
        raise DomainError(f"coupling must be positive and finite, got {coupling!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _bracketed_bisect(residual, tol: float) -> SolveOutcome:
    # Verify a sign change over [_BRACKET_LO, 1] before bisecting.
    lo, hi = _BRACKET_LO, 1.0
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        return SolveOutcome(z=lo, no_root_side=None)
    if r_hi == 0.0:
        return SolveOutcome(z=hi, no_root_side=None)
    if r_lo > 0.0 and r_hi > 0.0:
        return SolveOutcome(z=None, no_root_side="below")
    if r_lo < 0.0 and r_hi < 0.0:
        return SolveOutcome(z=None, no_root_side="above")
    for _ in range(_MAX_BISECTIONS):
        if hi - lo < tol:
            return SolveOutcome(z=0.5 * (lo + hi), no_root_side=None)
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid == 0.0:
            return SolveOutcome(z=mid, no_root_side=None)
        if (r_mid > 0.0) == (r_hi > 0.0):
            hi, r_hi = mid, r_mid
        else:
            lo, r_lo = mid, r_mid
    raise ConvergenceError(
        f"bisection did not reach width {tol!r} within {_MAX_BISECTIONS} iterations"
    )


def solve_bose(
    coupling: float, tol: float = 1e-12, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> SolveOutcome:
    """Solve H(z) = coupling for z in (0, 1] by bracketing bisection.

    Couplings in (e, H(1)] have a unique root (see the module notes on the
    shallow dip of H below e).  Couplings at or below e return no-root
    "below"; couplings above H(1) return no-root "above".
    """
    _checked_solver_args(coupling, tol)
    return _bracketed_bisect(lambda z: bose_residual(z, coupling, params), tol)


def solve_fermi(
    coupling: float,
    series: str = "truncated",
    tol: float = 1e-12,
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> SolveOutcome:
    """Solve Phi(z) = coupling for z in (0, 1] by bracketing bisection.

    Phi increases strictly from e to its z = 1 endpoint value, so the root
    is unique whenever it exists.
    """
    _checked_solver_args(coupling, tol)
    return _bracketed_bisect(lambda z: fermi_residual(z, coupling, series, params), tol)


def threshold_condensation(b: float) -> float:
    """Momentum (4*pi)**2.5 / (e*b - 1) below which condensation sets in."""
    if not (math.isfinite(b) and math.e * b - 1.0 > 0.0):
        raise DomainError(f"b must satisfy e*b > 1, got {b!r}")
    return COUPLING_CONSTANT / (math.e * b - 1.0)


def threshold_dilution(b: float) -> float:
    """Momentum (4*pi)**2.5 / (e*b) above which the gas is effectively dilute."""
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"b must be positive and finite, got {b!r}")
    return COUPLING_CONSTANT / (math.e * b)


def condensation_fixed_point(
    params: SeriesParams = DEFAULT_SERIES_PARAMS, tol: float = 1e-12
) -> FugacityPair:
    """Fugacity pair at the onset of condensation, where g(z) = 1.

    The matching momentum is ``threshold_condensation(pair.b)``, since at
    z' = 1 the coupling is exactly e*b - 1.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    # The term cap grows with z, so evaluating the first midpoint before the
    # bracket ends makes a TruncationError name that midpoint, not z = 1e-9.
    bose_g32(0.5 * (_BRACKET_LO + 1.0), params)
    # g is strictly increasing with g(0+) = 0 and g(1) > 1: the root exists.
    outcome = _bracketed_bisect(lambda z: bose_g32(z, params) - 1.0, tol)
    return FugacityPair.from_branch(outcome.z, "bose", params)


def _named_thresholds() -> tuple[float, float]:
    return (
        threshold_condensation(B_CONDENSATION_NOMINAL),
        threshold_dilution(B_DILUTION_NOMINAL),
    )


def classify_paper(p0: float, window: float = 0.01) -> RegimeReport:
    """Classify p0 against the two named thresholds with a relative window.

    Matches within ``window`` of the condensation threshold win first, then
    dilution; remaining momenta below the dilution threshold are labelled
    AnomalousFermionic and the rest AboveDilution.  A Condensation label
    always carries the overlaps_fermionic_range flag, because the whole
    condensation window sits inside the Fermionic inequality range; that
    overlap is disclosed, never hidden.
    """
    coupling = coupling_from_momentum(p0)
    if not (math.isfinite(window) and window > 0.0):
        raise DomainError(f"window must be positive and finite, got {window!r}")
    p_cond, p_dil = _named_thresholds()
    flags: set[str] = set()
    if abs(p0 - p_cond) <= window * p_cond:
        label = RegimeLabel.CONDENSATION
        flags.add(FLAG_OVERLAPS_FERMIONIC)
    elif abs(p0 - p_dil) <= window * p_dil:
        label = RegimeLabel.DILUTION
    elif p0 < p_dil:
        label = RegimeLabel.ANOMALOUS_FERMIONIC
    else:
        label = RegimeLabel.ABOVE_DILUTION
    if label in (RegimeLabel.ANOMALOUS_FERMIONIC, RegimeLabel.ABOVE_DILUTION) and (
        abs(p0 - p_cond) <= 2.0 * window * p_cond or abs(p0 - p_dil) <= 2.0 * window * p_dil
    ):
        flags.add(FLAG_NEAR_THRESHOLD)
    return RegimeReport(
        momentum=float(p0),
        coupling=coupling,
        paper_label=label,
        selfconsistent_label=None,
        branch="none",
        fugacity=None,
        flags=frozenset(flags),
    )


def classify_selfconsistent(
    p0: float,
    series: str = "truncated",
    tol: float = 1e-12,
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> RegimeReport:
    """Classify p0 by actually solving the self-consistency relation.

    A Bose root maps to Condensation (z' >= 1), NormalBose (tol < z' < 1)
    or Dilution (z' <= tol, or coupling within tol of e).  Couplings above
    the Bose window map to OutOfModelRange with the no_fermi_root flag:
    the Fermi relation cannot absorb them, because Phi(1) < 3.12 < H(1),
    so this classifier never returns AnomalousFermionic.  Couplings below e
    map to AboveDilution with the no_bose_root flag.  ``series`` names the
    Fermi variant; it is validated but changes no label.
    """
    coupling = coupling_from_momentum(p0)
    _check_series(series)
    flags: set[str] = set()
    bose = solve_bose(coupling, tol, params)
    if bose.found:
        pair = FugacityPair.from_branch(bose.z, "bose", params)
        if pair.z_prime >= 1.0:
            label = RegimeLabel.CONDENSATION
        # Roots exist only for z > ~0.19, so z' <= tol decides the label
        # only at a tolerance of order 1.
        elif pair.z_prime <= tol or abs(coupling - math.e) <= tol:
            label = RegimeLabel.DILUTION
        else:
            label = RegimeLabel.NORMAL_BOSE
        branch, fugacity = "bose", pair
    elif abs(coupling - math.e) <= tol:
        label = RegimeLabel.DILUTION
        branch, fugacity = "none", None
    elif bose.no_root_side == "above":
        # Phi(1) < 3.12 < H(1): no Fermi root exists above the Bose window.
        label = RegimeLabel.OUT_OF_MODEL_RANGE
        flags.add(FLAG_NO_FERMI_ROOT)
        branch, fugacity = "none", None
    else:
        label = RegimeLabel.ABOVE_DILUTION
        flags.add(FLAG_NO_BOSE_ROOT)
        branch, fugacity = "none", None
    return RegimeReport(
        momentum=float(p0),
        coupling=coupling,
        paper_label=None,
        selfconsistent_label=label,
        branch=branch,
        fugacity=fugacity,
        flags=frozenset(flags),
    )


def classify_both(
    p0: float,
    window: float = 0.01,
    series: str = "truncated",
    tol: float = 1e-12,
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> RegimeReport:
    """Run both classifiers and merge them into one report.

    When the two labels disagree the report says so (labels_differ) and
    gains the near_threshold flag: disagreement happens where the nominal
    windows and the solved relation pull apart.
    """
    paper = classify_paper(p0, window)
    selfc = classify_selfconsistent(p0, series, tol, params)
    flags = set(paper.flags | selfc.flags)
    differ = paper.paper_label != selfc.selfconsistent_label
    if differ:
        flags.add(FLAG_NEAR_THRESHOLD)
    return RegimeReport(
        momentum=float(p0),
        coupling=paper.coupling,
        paper_label=paper.paper_label,
        selfconsistent_label=selfc.selfconsistent_label,
        branch=selfc.branch,
        fugacity=selfc.fugacity,
        flags=frozenset(flags),
        labels_differ=differ,
    )
