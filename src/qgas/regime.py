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
(e - 1) * ZETA_3_2 at z = 1.  The solvers bracket z in [1e-9, 1], and
H(1e-9) = e - 3.894e-11 lies in the dip, so each coupling in
(H(1e-9), H(1)], e included, has one root in the bracket, past the dip.
Couplings below H(1e-9) report no root on the dilution side (the dip's
pair of near-dilution solutions is deliberately not chased).

Phi(1) < 3.12 < H(1), so no coupling above the Bose window has a root on
the Fermi side either: the self-consistent classifier reports such
couplings as OutOfModelRange without solving Phi(z) = K.  solve_fermi
solves the Fermi relation for callers that ask for it.
"""

__all__ = [
    "COUPLING_CONSTANT",
    "FLAG_NEAR_THRESHOLD",
    "FLAG_NO_BOSE_ROOT",
    "FLAG_NO_FERMI_ROOT",
    "FLAG_ORDER",
    "FLAG_OVERLAPS_FERMIONIC",
    "RegimeLabel",
    "RegimeReport",
    "SolveOutcome",
    "bose_constraint_lhs",
    "bose_residual",
    "classify_both",
    "classify_paper",
    "classify_selfconsistent",
    "condensation_fixed_point",
    "coupling_from_momentum",
    "fermi_constraint_lhs",
    "fermi_residual",
    "solve_bose",
    "solve_fermi",
    "threshold_condensation",
    "threshold_dilution",
]

import math
from enum import Enum

from .errors import (
    _POSITIVE, _UNIT_NO_ZERO, ConvergenceError, DomainError, _Record, _one_of, _real, _shown,
)
from .gas import FugacityPair
from .polylog import DEFAULT_SERIES_PARAMS, SeriesParams, _branch_series, bose_g32

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


def _ordered_flags(flags) -> tuple[str, ...]:
    """``flags`` in FLAG_ORDER, then any flag that no classifier sets, sorted."""
    known = tuple(f for f in FLAG_ORDER if f in flags)
    return known if len(known) == len(flags) else known + tuple(sorted(set(flags) - set(FLAG_ORDER)))


class RegimeLabel(Enum):
    """Physical regime assignments for one momentum value."""

    CONDENSATION = "Condensation"
    DILUTION = "Dilution"
    ANOMALOUS_FERMIONIC = "AnomalousFermionic"
    NORMAL_BOSE = "NormalBose"
    ABOVE_DILUTION = "AboveDilution"
    OUT_OF_MODEL_RANGE = "OutOfModelRange"


class SolveOutcome(_Record):
    """Result of a bracketed residual solve.

    Exactly one of the two fields is set: ``z`` on success, or
    ``no_root_side`` ("below" when the coupling sits below the solvable
    window, "above" when it sits above it).
    """

    def __init__(self, z: float | None, no_root_side: str | None):
        vars(self).update(z=z, no_root_side=no_root_side)

    @property
    def found(self) -> bool:
        return self.z is not None


class RegimeReport(_Record):
    """Combined output of the regime classifiers for one momentum."""

    def __init__(
        self, momentum: float, coupling: float, paper_label: RegimeLabel | None,
        selfconsistent_label: RegimeLabel | None, fugacity: FugacityPair | None,
        flags: frozenset[str],
    ):
        vars(self).update(
            momentum=momentum, coupling=coupling, paper_label=paper_label,
            selfconsistent_label=selfconsistent_label, fugacity=fugacity, flags=flags,
        )

    @property
    def branch(self) -> str:
        """``"bose"`` when a Bose root set ``fugacity``, else ``"none"``.

        No classifier takes the Fermi branch (module notes).
        """
        return "bose" if self.fugacity is not None else "none"

    @property
    def labels_differ(self) -> bool | None:
        """Whether the two labels differ; ``None`` unless both are set."""
        if self.paper_label is None or self.selfconsistent_label is None:
            return None
        return self.paper_label != self.selfconsistent_label

    def __repr__(self) -> str:
        # The record repr with flags in FLAG_ORDER: a frozenset prints in string-hash order.
        shown = [f"{name}={value!r}" for name, value in vars(self).items() if name != "flags"]
        flags = ", ".join(map(repr, _ordered_flags(self.flags)))
        return f"RegimeReport({', '.join(shown)}, flags=frozenset({flags and '{' + flags + '}'}))"


def coupling_from_momentum(p0: float) -> float:
    """Coupling K = (4*pi)**2.5 / p0 for momentum p0 > 0."""
    if not isinstance(p0, (int, float)):
        raise DomainError(f"p0 must be positive and finite, got {_shown(p0)}")
    coupling = COUPLING_CONSTANT / _real(p0, "p0", _POSITIVE)
    if math.isinf(coupling):
        raise DomainError(f"p0 is too small for a finite coupling (4*pi)**2.5 / p0, got {p0!r}")
    return coupling


def bose_constraint_lhs(z: float, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> float:
    """H(z) = e*g(z)/z - g(z), the Bose side of the normalization relation."""
    return _bose_lhs(_real(z, "z", _UNIT_NO_ZERO), params)


def _bose_lhs(z: float, params: SeriesParams) -> float:
    """H(z) for a checked z in (0, 1]; g(1) is computed and discarded, as perfbench counts it."""
    g = bose_g32(z, params)
    if z == 1.0:
        return _H_AT_1
    return math.e * g / z - g


def fermi_constraint_lhs(
    z: float, series: str = "truncated", params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> float:
    """Phi(z) = e*f(z)/z + f(z), the Fermi side of the normalization relation."""
    return _fermi_lhs(_real(z, "z", _UNIT_NO_ZERO), series, params)


def _fermi_lhs(z: float, series: str, params: SeriesParams) -> float:
    """Phi(z) for a checked z in (0, 1]; ``series`` is checked on every call."""
    _one_of(series, SERIES_VARIANTS, "series variant")
    f = _branch_series(z, f"fermi-{series}", params)
    return math.e * f / z + f


def bose_residual(
    z: float, coupling: float, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> float:
    """Signed residual H(z) - K of the Bose self-consistency relation."""
    return bose_constraint_lhs(z, params) - _real(coupling, "coupling", _POSITIVE)


def fermi_residual(
    z: float,
    coupling: float,
    series: str = "truncated",
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> float:
    """Signed residual Phi(z) - K of the Fermi self-consistency relation."""
    return fermi_constraint_lhs(z, series, params) - _real(coupling, "coupling", _POSITIVE)


def _bracketed_bisect(curve, coupling: float, tol: float) -> SolveOutcome:
    """Bisect ``curve(z) - coupling`` to width ``tol``, if it changes sign over [_BRACKET_LO, 1]."""
    coupling = _real(coupling, "coupling", _POSITIVE)
    tol = _real(tol, "tol", _POSITIVE)
    lo, hi = _BRACKET_LO, 1.0
    if tol > hi - lo:
        raise DomainError(
            f"tol must be at most the bracket width {hi - lo!r} of [{lo!r}, {hi!r}], got {tol!r}"
        )
    r_lo, r_hi = curve(lo) - coupling, curve(hi) - coupling
    if r_lo == 0.0:
        return SolveOutcome(z=lo, no_root_side=None)
    if r_hi == 0.0:
        return SolveOutcome(z=hi, no_root_side=None)
    if r_lo > 0.0 and r_hi > 0.0:
        return SolveOutcome(z=None, no_root_side="below")
    if r_lo < 0.0 and r_hi < 0.0:
        return SolveOutcome(z=None, no_root_side="above")
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles: the bracket can shrink no further
            raise ConvergenceError(
                f"bisection cannot narrow [{lo!r}, {hi!r}] to width {tol!r}: "
                "no double lies strictly between its ends"
            )
        r_mid = curve(mid) - coupling
        if r_mid == 0.0:
            return SolveOutcome(z=mid, no_root_side=None)
        if (r_mid > 0.0) == (r_hi > 0.0):
            hi, r_hi = mid, r_mid
        else:
            lo = mid
    return SolveOutcome(z=0.5 * (lo + hi), no_root_side=None)


def solve_bose(
    coupling: float, tol: float = 1e-12, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> SolveOutcome:
    """Solve H(z) = coupling for z in (0, 1] by bracketing bisection.

    Couplings in [H(1e-9), H(1)] have a root, e included (see the module
    notes on the dip of H below e).  Couplings below H(1e-9) = e - 3.894e-11
    return no-root "below"; couplings above H(1) return no-root "above".
    """
    return _bracketed_bisect(lambda z: _bose_lhs(z, params), coupling, tol)


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
    return _bracketed_bisect(lambda z: _fermi_lhs(z, series, params), coupling, tol)


def _threshold_momentum(name: str, b: float, denominator: float) -> float:
    # e*b overflows for b near the largest double, and the quotient overflows
    # for a subnormal b: neither is a momentum.
    p0 = COUPLING_CONSTANT / denominator
    if not 0.0 < p0 < math.inf:
        raise DomainError(
            f"b is out of range for a finite positive {name} momentum (it gives {p0!r}), got {b!r}"
        )
    return p0


def threshold_condensation(b: float) -> float:
    """Momentum (4*pi)**2.5 / (e*b - 1) below which condensation sets in."""
    b = _real(b, "b")
    if not (math.isfinite(b) and math.e * b - 1.0 > 0.0):
        raise DomainError(f"b must satisfy e*b > 1, got {b!r}")
    return _threshold_momentum("condensation", b, math.e * b - 1.0)


def threshold_dilution(b: float) -> float:
    """Momentum (4*pi)**2.5 / (e*b) above which the gas is effectively dilute."""
    b = _real(b, "b", _POSITIVE)
    return _threshold_momentum("dilution", b, math.e * b)


# The two named threshold momenta, at the nominal b values.
P_CONDENSATION_NOMINAL = threshold_condensation(B_CONDENSATION_NOMINAL)
P_DILUTION_NOMINAL = threshold_dilution(B_DILUTION_NOMINAL)


def condensation_fixed_point(
    params: SeriesParams = DEFAULT_SERIES_PARAMS, tol: float = 1e-12
) -> FugacityPair:
    """Fugacity pair at the onset of condensation, where g(z) = 1.

    The matching momentum is ``threshold_condensation(pair.b)``, since at
    z' = 1 the coupling is exactly e*b - 1.
    """
    # g is strictly increasing with g(0+) = 0 and g(1) > 1: the root exists.
    outcome = _bracketed_bisect(lambda z: bose_g32(z, params), 1.0, tol)
    return FugacityPair.from_branch(outcome.z, "bose", params)


def _paper_label(p0: float, window: float) -> tuple[RegimeLabel, frozenset[str]]:
    """The label of p0 against the two nominal thresholds, with its flags."""
    p_cond, p_dil = P_CONDENSATION_NOMINAL, P_DILUTION_NOMINAL
    if abs(p0 - p_cond) <= window * p_cond:
        return RegimeLabel.CONDENSATION, frozenset({FLAG_OVERLAPS_FERMIONIC})
    if abs(p0 - p_dil) <= window * p_dil:
        return RegimeLabel.DILUTION, frozenset()
    label = RegimeLabel.ANOMALOUS_FERMIONIC if p0 < p_dil else RegimeLabel.ABOVE_DILUTION
    near = abs(p0 - p_cond) <= 2.0 * window * p_cond or abs(p0 - p_dil) <= 2.0 * window * p_dil
    return label, frozenset({FLAG_NEAR_THRESHOLD} if near else ())


def _selfconsistent_label(
    coupling: float, tol: float, params: SeriesParams
) -> tuple[RegimeLabel, frozenset[str], FugacityPair | None]:
    """The label of a solved coupling, with its flags and Bose fugacity pair (if a root exists)."""
    bose = solve_bose(coupling, tol, params)
    pair = FugacityPair.from_branch(bose.z, "bose", params) if bose.found else None
    if pair is not None and pair.z_prime >= 1.0:
        return RegimeLabel.CONDENSATION, frozenset(), pair
    if abs(coupling - math.e) <= tol:
        return RegimeLabel.DILUTION, frozenset(), pair
    if pair is not None:
        return RegimeLabel.NORMAL_BOSE, frozenset(), pair
    if bose.no_root_side == "above":
        # Phi(1) < 3.12 < H(1): no Fermi root exists above the Bose window.
        return RegimeLabel.OUT_OF_MODEL_RANGE, frozenset({FLAG_NO_FERMI_ROOT}), None
    return RegimeLabel.ABOVE_DILUTION, frozenset({FLAG_NO_BOSE_ROOT}), None


def _labels(p0: float, coupling: float, mode: str, window: float, tol: float, params: SeriesParams):
    """The report fields after p0 (coupling, both labels, pair, flags) for checked arguments."""
    paper, selfc, pair, flags = None, None, None, frozenset()
    if mode != "self":
        paper, flags = _paper_label(p0, window)
    if mode != "paper":  # under "both", labels that differ add the near_threshold flag
        selfc, more, pair = _selfconsistent_label(coupling, tol, params)
        flags |= more | ({FLAG_NEAR_THRESHOLD} if paper not in (None, selfc) else set())
    return coupling, paper, selfc, pair, flags


def _classify(p0: float, mode: str, window: float, tol: float, params: SeriesParams) -> RegimeReport:
    """The report of p0 under the rules ``mode`` names: "paper", "self" or "both"."""
    coupling = coupling_from_momentum(p0)
    window = _real(window, "window", _POSITIVE) if mode != "self" else None
    tol = _real(tol, "tol", _POSITIVE) if mode != "paper" else None
    return RegimeReport(float(p0), *_labels(p0, coupling, mode, window, tol, params))


def classify_paper(p0: float, window: float = 0.01) -> RegimeReport:
    """Classify p0 against the two named thresholds with a relative window.

    Matches within ``window`` of the condensation threshold win first, then
    dilution; remaining momenta below the dilution threshold are labelled
    AnomalousFermionic and the rest AboveDilution.  A Condensation label
    always carries the overlaps_fermionic_range flag, because the whole
    condensation window sits inside the Fermionic inequality range; that
    overlap is disclosed, never hidden.  Outside both windows, a momentum
    within twice either window carries the near_threshold flag.
    """
    return _classify(p0, "paper", window, None, None)


def classify_selfconsistent(
    p0: float, tol: float = 1e-12, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> RegimeReport:
    """Classify p0 by actually solving the self-consistency relation.

    A Bose root maps to Condensation (z' >= 1); otherwise a coupling within
    tol of e maps to Dilution, and a Bose root to NormalBose (z' < 1).
    Couplings above the Bose window map to OutOfModelRange with the
    no_fermi_root flag: the Fermi relation cannot absorb them, because
    Phi(1) < 3.12 < H(1), so this classifier never returns
    AnomalousFermionic.  Couplings below H(1e-9) = e - 3.894e-11 and not
    within tol of e map to AboveDilution with the no_bose_root flag.
    """
    return _classify(p0, "self", None, tol, params)


def classify_both(
    p0: float,
    window: float = 0.01,
    tol: float = 1e-12,
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> RegimeReport:
    """Apply both classifiers' rules and merge them into one report.

    When the two labels disagree the report says so (labels_differ) and
    gains the near_threshold flag: disagreement happens where the nominal
    windows and the solved relation pull apart.
    """
    return _classify(p0, "both", window, tol, params)
