"""Order-3/2 polylogarithm functions for ideal quantum gas statistics.

Three evaluations of the same family are provided:

* :func:`bose_g32` is ``g(z) = sum_{k>=1} z**k / k**1.5`` (all terms positive),
* :func:`fermi_f32_full` is the alternating counterpart
  ``f(z) = sum_{k>=1} (-1)**(k+1) z**k / k**1.5``,
* :func:`fermi_f32_truncated` evaluates only the first three terms of the
  alternating series, which is a common closed-form shorthand for the
  Fermi branch.

``g`` is computed by one scalar evaluator built on :mod:`math` alone: the
power series by Horner's rule for z <= 1/2, and Robinson's expansion around
z = 1 above that.  ``f`` follows from the duplication identity
``f(z) = g(z) - 2**-0.5 * g(z*z)``.  Both are accurate to about 1e-15
relative on all of [0, 1].

:func:`bose_g32_quadrature` evaluates the Bose function through its
integral representation instead, by an exp-sinh rule with a step-halving
check.  It exists as an independent cross-check route and deliberately
shares no code with the evaluator.
"""

__all__ = [
    "DEFAULT_SERIES_PARAMS",
    "ETA_3_2",
    "ZETA_3_2",
    "SeriesParams",
    "bose_g32",
    "bose_g32_quadrature",
    "clear_series_cache",
    "fermi_f32_full",
    "fermi_f32_truncated",
]

import math

from .errors import (
    _UNIT, DomainError, QuadratureError, TruncationError, _Record, _one_of, _real, _shown,
)

# Value of the Bose series at z = 1 (Riemann zeta at 3/2), the supremum of
# bose_g32 on [0, 1].
ZETA_3_2 = 2.612375348685488

# Value of the full alternating series at z = 1 (Dirichlet eta at 3/2).
ETA_3_2 = 0.7651470246254079

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)

# Split between the two routes of _g32, as a = -ln z: the power series runs
# for z <= 1/2, and Robinson's expansion above, where its cancellation
# against the sqrt term costs a few ulp at most.
_A_SPLIT = math.log(2.0)

# _INV_K32[n] is 1 / k**1.5 for k = n down to 1, for Horner's rule.  With
# (n - 1) * a > _LN_1E17 the first omitted term is below 1e-17 of the first;
# at the cap n = 49, reached from z = 0.435 on, it stays below 5.1e-18 of it.
_LN_1E17 = 17.0 * math.log(10.0)
_INV_K32 = tuple(tuple(k ** -1.5 for k in range(n, 0, -1)) for n in range(50))

# Robinson's expansion of the order-3/2 function around z = 1,
#   g(e**-a) = -2*sqrt(pi*a) + sum_n c_n * a**n,  |a| < 2*pi,
# with c_n = zeta(3/2 - n) * (-1)**n / n!  (J. E. Robinson, Phys. Rev. 83,
# 678 (1951); DLMF 25.12(ii)).  Values from mpmath at 40 digits, rounded to
# doubles; listed from n = 16 down to n = 1 for Horner's rule, c_0 being
# ZETA_3_2.  At a = ln 2 the first omitted term is below 1e-17 of the value.
_ROBINSON_C = (
    9.615068088964928e-15,
    6.666434552781358e-14,
    -4.654251296129395e-13,
    -3.2755597533804275e-12,
    2.3269489024551932e-11,
    1.6715198353742387e-10,
    -1.216940275850113e-09,
    -9.008596705798667e-09,
    6.812420484962472e-08,
    5.300511944244494e-07,
    -4.293985065577547e-06,
    -3.7008427795661934e-05,
    0.00035487203241043046,
    0.004247533648305506,
    -0.10394311248867728,
    1.4603545088095868,
)


class SeriesParams(_Record):
    """Truncation controls of the direct series ``sum_k z**k / k**1.5``.

    ``max_terms`` caps the number of summed terms and ``tolerance`` is the
    size below which a term ends the sum.  The evaluators compute their
    values in closed form; these controls only decide whether the direct
    series would have converged within the cap (see :func:`bose_g32`).
    """

    tolerance = 1e-12
    max_terms = 100_000
    __slots__ = ("_cap_from",)

    def __init__(self, tolerance: float = tolerance, max_terms: int = max_terms):
        if not (isinstance(tolerance, float) and math.isfinite(tolerance) and tolerance > 0):
            raise DomainError(f"tolerance must be a positive finite float, got {_shown(tolerance)}")
        if not (isinstance(max_terms, int) and not isinstance(max_terms, bool) and max_terms >= 1):
            raise DomainError(f"max_terms must be a positive integer, got {_shown(max_terms)}")
        vars(self).update(tolerance=tolerance, max_terms=max_terms)
        # The cap trips only from z_cap = (tolerance * m**1.5)**(1/min(m, 2**20)) up. The evaluators
        # check it from z_cap * (1 - 1e-9), far past rounding, and always for a subnormal tolerance.
        log_cap = (math.log(tolerance) + 1.5 * math.log(max_terms)) / min(max_terms, 2**20)
        cap_from = math.exp(log_cap) * (1.0 - 1e-9) if tolerance >= 2.0**-1022 else 0.0
        object.__setattr__(self, "_cap_from", cap_from)

    def __reduce__(self):  # rebuild the slot: copying and unpickling would set it, which is refused
        return self.__class__, (self.tolerance, self.max_terms)


DEFAULT_SERIES_PARAMS = SeriesParams()


def _g32(z: float, a: float) -> float:
    """Order-3/2 Bose function at ``z = exp(-a)``, for 0 <= z <= 1.

    Both arguments are taken so that a caller holding an exact ``a`` (the
    Fermi duplication passes ``2*a`` for ``z*z``) keeps it on the route
    near z = 1, where the ``sqrt(a)`` term amplifies any rounding of ``z``.
    """
    if a < _A_SPLIT:
        s = 0.0
        for c in _ROBINSON_C:
            s = s * a + c
        # Near the split c_0 and the sqrt term nearly cancel; their
        # difference is exact, so taking it first saves ~1 ulp.
        return (ZETA_3_2 - _TWO_SQRT_PI * math.sqrt(a)) + s * a
    # Power series by Horner's rule; a conditional, not min(), on a hot path.
    n = 2 + int(_LN_1E17 / a)
    s = 0.0
    for c in _INV_K32[n if n < 49 else 49]:
        s = s * z + c
    return s * z


def _check_term_cap(z: float, params: SeriesParams, alternating: bool) -> None:
    """Raise TruncationError when the direct series would miss ``params``.

    The terms z**k / k**1.5 decrease, so the direct series stops within
    ``max_terms`` exactly when its term at the cap is below ``tolerance``.
    The evaluators call this only for z <= 0.999: above it no practical cap
    meets a tight tolerance, and the closed form needs none.
    """
    m = params.max_terms
    # m as a float overflows from 2**1024 on, and z ** 2**20 is already 0.0 for z <= 0.999.
    last_term = z ** min(m, 2**20) * math.exp(-1.5 * math.log(m))
    if last_term < params.tolerance:
        return
    sign = -1.0 if alternating else 1.0
    partial = sign * math.fsum((sign * z) ** k * k ** -1.5 for k in range(1, m + 1))
    raise TruncationError(
        f"series did not converge within {m} terms at z={z!r} "
        f"(partial sum {partial!r}, last term {last_term!r})",
        partial_sum=partial,
        last_term=last_term,
    )


def bose_g32(z: float, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> float:
    """Bose order-3/2 polylogarithm ``sum_{k>=1} z**k / k**1.5``.

    The power series runs for z <= 1/2, summed by Horner's rule, and
    Robinson's expansion around z = 1 above that; the value is accurate to
    about 1e-15 relative on all of [0, 1].

    Parameters
    ----------
    z : float
        Fugacity in [0, 1].
    params : SeriesParams
        Truncation controls of the direct series.  They decide only whether
        that series would have converged (see Raises), not the value.

    Returns
    -------
    float
        Value in [0, ZETA_3_2].  Nondecreasing on [0, 1/2] by construction;
        above it a step between neighbouring floats can fall by up to 3 ulp.

    Raises
    ------
    DomainError
        If z is outside [0, 1].
    TruncationError
        If 0 < z <= 0.999 and the direct series term at ``params.max_terms``
        is still at or above ``params.tolerance``.  The error carries the
        sum of the first ``max_terms`` terms and that last term.  Near z = 1
        no cap is enforced.
    """
    z = _real(z, "z", _UNIT)
    if z == 0.0:
        return 0.0
    if params._cap_from <= z <= 0.999:
        _check_term_cap(z, params, alternating=False)
    return _g32(z, -math.log(z))


def fermi_f32_full(z: float, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> float:
    """Full alternating order-3/2 series ``sum_{k>=1} (-1)**(k+1) z**k / k**1.5``.

    Evaluated through the duplication identity
    ``f(z) = g(z) - 2**-0.5 * g(z*z)`` with ``g`` as in :func:`bose_g32`;
    the value is accurate to about 1e-15 relative on all of [0, 1].  Same
    truncation contract as :func:`bose_g32`; a TruncationError carries the
    alternating partial sum.
    """
    z = _real(z, "z", _UNIT)
    if z == 0.0:
        return 0.0
    if params._cap_from <= z <= 0.999:
        _check_term_cap(z, params, alternating=True)
    a = -math.log(z)
    return _g32(z, a) - 2.0 ** -0.5 * _g32(z * z, 2.0 * a)


def fermi_f32_truncated(z: float) -> float:
    """Three-term shorthand ``z - z**2/2**1.5 + z**3/3**1.5``.

    Exact arithmetic, no truncation parameters.  Differs from
    :func:`fermi_f32_full` by at most ``z**4 / 8``.
    """
    z = _real(z, "z", _UNIT)
    return z - z * z * 0.5 ** 1.5 + z * z * z * 3.0 ** -1.5


BRANCHES = ("bose", "fermi-full", "fermi-truncated")


def _branch_series(z: float, branch: str, params: SeriesParams) -> float:
    """The series that ``branch`` (one of BRANCHES) names, evaluated at z."""
    _one_of(branch, BRANCHES, "branch")
    if branch == "bose":
        return bose_g32(z, params)
    if branch == "fermi-full":
        return fermi_f32_full(z, params)
    return fermi_f32_truncated(z)


def bose_g32_quadrature(z: float) -> float:
    """Bose order-3/2 function via its integral representation.

    Evaluates ``(1/Gamma(3/2)) * integral_0^inf sqrt(x) / (exp(x)/z - 1) dx``
    by the exp-sinh rule of Takahasi and Mori (Publ. RIMS 9, 721 (1974)):
    after ``x = exp(pi/2 * sinh(t))`` the trapezoidal rule at step 1/32 over
    t in [-6, 4] converges on all of [0, 1], the z = 1 endpoint included, and
    every other node forms the step-1/16 rule it is checked against.
    Independent of :func:`bose_g32` by construction; intended as a
    cross-check oracle rather than a fast evaluator.

    Raises
    ------
    DomainError
        If z is outside [0, 1].
    QuadratureError
        If the step-1/16 and step-1/32 sums differ by more than 1e-9 in
        units of the latter.
    """
    z = _real(z, "z", _UNIT)
    if z == 0.0:
        return 0.0
    # Trapezoidal sums over the nodes t = k/32 in [-6, 4], for even and odd k.
    sums = [0.0, 0.0]
    for k in range(-192, 129):
        t = k / 32.0
        x = math.exp(0.5 * math.pi * math.sinh(t))
        if x > 745.0:  # exp(-x) underflows to 0 from here on
            break
        # 1 - z*exp(-x), without cancellation as z -> 1 and x -> 0.
        denom = (1.0 - z) - z * math.expm1(-x)
        sums[k % 2] += x * math.sqrt(x) * math.exp(-x) * math.cosh(t) / denom
    fine = (sums[0] + sums[1]) / 32.0
    coarse = sums[0] / 16.0
    if abs(fine - coarse) > 1e-9 * fine:
        raise QuadratureError(f"step-1/16 and step-1/32 sums differ by more than 1e-9 at z={z!r}")
    # dx = x * pi/2 * cosh(t) dt, and (pi/2) / Gamma(3/2) = sqrt(pi).  z stays
    # outside the sum so that a subnormal z does not underflow to 0.
    return z * (math.sqrt(math.pi) * fine)


def clear_series_cache() -> None:
    """Do nothing: the evaluators keep no memo, so every call is already cold."""
