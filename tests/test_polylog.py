"""Series evaluators against brute-force oracles and frozen references."""

import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgas
from qgas.errors import _UNIT, DomainError, TruncationError, _real
from qgas.polylog import (
    ETA_3_2,
    ZETA_3_2,
    SeriesParams,
    bose_g32,
    bose_g32_quadrature,
    clear_series_cache,
    fermi_f32_full,
    fermi_f32_truncated,
)

# Frozen references, computed once with 40-digit arithmetic and rounded to
# the nearest double.
G32_AT_0_7 = 1.0031228114191315
G32_AT_0_6986 = 0.9999676875229396
F32_FULL_AT_0_5 = 0.4298873215805793
F32_TRUNC_AT_1 = 0.8388966991366015
F32_TRUNC_AT_0_1 = 0.09665691618379714

TENTHS = [k / 10.0 for k in range(1, 10)]

unit_z = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# The points where the power series below z = 1/2 gains a term,
# z = exp(-17 ln 10 / j); from j = 47 on the count is capped at 49.
TERM_COUNT_SEAMS = [math.exp(-17.0 * math.log(10.0) / j) for j in range(1, 48)]

# Oracle points: the subnormal and tiny end, both sides of the z = 1/2 split
# between power series and z -> 1 expansion (and of z = sqrt(1/2), where the
# Fermi duplication's g(z*z) crosses it), four of the term-count seams, a
# mid-band grid, and the approach to z = 1.  mpmath's polylog(1.5, -z) takes
# ~70 ms for z above ~0.89, so the grid stops at 7/8 and the approach uses
# few points.
_SPLITS = (0.5, math.sqrt(0.5), *(TERM_COUNT_SEAMS[j - 1] for j in (3, 10, 30, 47)))
ORACLE_Z = sorted(
    {5e-324, 1e-300, 1e-9, 1e-3}
    | {math.nextafter(z, toward) for z in _SPLITS for toward in (0.0, 1.0)}
    | set(_SPLITS)
    | {k / 32.0 for k in range(1, 29)}
    | {0.95, 1.0 - 1e-4, 1.0 - 1e-10, 1.0 - 1e-15, math.nextafter(1.0, 0.0), 1.0}
)


def brute_bose(z: float, terms: int = 5000) -> float:
    # Deliberately naive: plain loop, no tail handling.  Only trustworthy
    # for z well below 1, where the geometric decay kills the remainder.
    total = 0.0
    for k in range(1, terms + 1):
        total += z**k / k**1.5
    return total


def brute_fermi(z: float, terms: int = 5000) -> float:
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1.0) ** (k + 1) * z**k / k**1.5
    return total


class TestBoseG32:
    def test_zero(self):
        assert bose_g32(0.0) == 0.0

    def test_at_one_is_zeta(self):
        assert bose_g32(1.0) == pytest.approx(2.612375, abs=1e-5)
        assert bose_g32(1.0) == pytest.approx(ZETA_3_2, abs=5e-13)

    def test_at_0_7(self):
        assert bose_g32(0.7) == pytest.approx(1.0031, abs=1e-4)
        assert bose_g32(0.7) == pytest.approx(G32_AT_0_7, abs=5e-13)

    def test_near_unit_value_of_g(self):
        # g passes through 1 close to z = 0.7, the coarse anchor the
        # fixed-point tests sharpen later.
        assert bose_g32(0.6986) == pytest.approx(G32_AT_0_6986, abs=5e-13)

    @pytest.mark.parametrize("z", TENTHS)
    def test_matches_brute_force(self, z):
        assert bose_g32(z) == pytest.approx(brute_bose(z), abs=1e-11)

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, 1.5, math.nan, math.inf, -math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bose_g32(bad)

    def test_truncation_failure_reports_partials(self):
        params = SeriesParams(tolerance=1e-12, max_terms=50)
        with pytest.raises(TruncationError) as err:
            bose_g32(0.9, params)
        assert 0.0 < err.value.partial_sum < ZETA_3_2
        assert err.value.last_term >= 1e-12

    def test_slow_decay_path_still_converges(self):
        # Just below z = 1 the term cutoff can never be reached; no cap is
        # enforced there and the value must come back instead of an error.
        params = SeriesParams(tolerance=1e-12, max_terms=100_000)
        assert bose_g32(0.9999, params) == pytest.approx(brute_bose(0.9999, 400_000), abs=1e-9)


class TestFermiF32:
    def test_zero(self):
        assert fermi_f32_full(0.0) == 0.0
        assert fermi_f32_truncated(0.0) == 0.0

    def test_full_at_one_is_eta(self):
        value = fermi_f32_full(1.0)
        assert value == pytest.approx(0.765147, abs=1e-5)
        assert value == pytest.approx((1.0 - 2.0**-0.5) * ZETA_3_2, abs=1e-12)
        assert value == pytest.approx(ETA_3_2, abs=5e-13)

    def test_full_at_half(self):
        assert fermi_f32_full(0.5) == pytest.approx(0.429825, abs=1e-4)
        assert fermi_f32_full(0.5) == pytest.approx(F32_FULL_AT_0_5, abs=5e-13)

    def test_truncated_values(self):
        assert fermi_f32_truncated(1.0) == pytest.approx(0.838897, abs=1e-6)
        assert fermi_f32_truncated(1.0) == pytest.approx(1.0 - 2.0**-1.5 + 3.0**-1.5, abs=1e-15)
        assert fermi_f32_truncated(1.0) == pytest.approx(F32_TRUNC_AT_1, abs=1e-15)
        assert fermi_f32_truncated(0.1) == pytest.approx(0.096657, abs=1e-6)
        assert fermi_f32_truncated(0.1) == pytest.approx(F32_TRUNC_AT_0_1, abs=1e-15)

    @pytest.mark.parametrize("z", TENTHS)
    def test_full_matches_brute_force(self, z):
        assert fermi_f32_full(z) == pytest.approx(brute_fermi(z), abs=1e-11)

    @pytest.mark.parametrize("func", [fermi_f32_full, fermi_f32_truncated])
    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, math.nan, math.inf])
    def test_domain(self, func, bad):
        with pytest.raises(DomainError):
            func(bad)


class TestSeriesParams:
    def test_defaults(self):
        params = SeriesParams()
        assert params.tolerance == 1e-12
        assert params.max_terms == 100_000

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            SeriesParams(tolerance=tol)

    @pytest.mark.parametrize("cap", [0, -5, True])
    def test_bad_max_terms(self, cap):
        with pytest.raises(DomainError, match=f"max_terms must be a positive integer, got {cap}$"):
            SeriesParams(max_terms=cap)

    @pytest.mark.parametrize("func", [bose_g32, fermi_f32_full])
    def test_cap_beyond_float_range(self, func):
        # 10**400 has no float value; the cap check must not convert it.
        assert func(0.5, SeriesParams(max_terms=10**400)) == func(0.5)


def _cap_rule(z, params):
    """The term cap's rule as every evaluation once applied it: (trips, last term)."""
    m = params.max_terms
    last_term = z ** (m if m < 2**20 else 2**20) * math.exp(-1.5 * math.log(m))
    return z <= 0.999 and last_term >= params.tolerance, last_term


def _first_trip(params):
    """The smallest float z <= 0.999 at which the rule trips, or None."""
    lo, hi = 0.0, 0.999
    if not _cap_rule(hi, params)[0]:
        return None
    while math.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _cap_rule(mid, params)[0] else (mid, hi)
    return hi


@pytest.mark.parametrize("func,alternating", [(bose_g32, False), (fermi_f32_full, True)])
@pytest.mark.parametrize(
    "tolerance,max_terms",
    [(1e-12, 1), (1e-12, 50), (1e-10, 50), (1e-3, 10), (1e-12, 5000), (1e-320, 3),
     (1e-12, 2**20 + 1), (1e-12, 2**1030), (SeriesParams.tolerance, SeriesParams.max_terms)],
    ids=[
        "1e-12,1", "1e-12,50", "1e-10,50", "1e-3,10", "1e-12,5000", "1e-320,3", "1e-12,2**20+1",
        "1e-12,2**1030", "defaults",
    ],
)
def test_cap_skip_matches_the_per_call_rule(func, alternating, tolerance, max_terms):
    # The evaluators skip the cap below a bound decided once per SeriesParams.  Around that
    # bound, the rule's own first trip and z = 0.999 they must raise or return exactly as the
    # rule applied on every call did, with the same message, partial sum and last term.
    params = SeriesParams(tolerance, max_terms)
    first = _first_trip(params)
    assert first is None or params._cap_from <= first
    centres = [c for c in (params._cap_from, first, 0.999) if c is not None and c <= 1.0]
    points = {z for c in centres for z in _floats_around(c, 4) if z > 0.0}
    outcomes = set()
    for z in sorted(points):
        trips, last_term = _cap_rule(z, params)
        outcomes.add(trips)
        if not trips:
            assert func(z, params) == func(z)
            continue
        with pytest.raises(TruncationError) as err:
            func(z, params)
        sign = -1.0 if alternating else 1.0
        partial = math.fsum(sign ** (k + 1) * z ** k * k ** -1.5 for k in range(1, max_terms + 1))
        assert (err.value.partial_sum, err.value.last_term) == (partial, last_term)
        assert str(err.value) == (
            f"series did not converge within {max_terms} terms at z={z!r} "
            f"(partial sum {partial!r}, last term {last_term!r})"
        )
    assert outcomes == ({False} if first is None else {False, True})


@given(z=unit_z)
def test_bose_bounds(z):
    value = bose_g32(z)
    assert z - 1e-12 <= value <= z * ZETA_3_2 + 1e-10


@given(z=unit_z)
def test_fermi_partial_sum_bracketing(z):
    # Alternating series with decreasing terms: consecutive partial sums
    # bracket the limit.
    value = fermi_f32_full(z)
    assert value <= z + 1e-12
    assert value >= z - z * z / 2.0**1.5 - 1e-12


@given(z=unit_z)
def test_truncation_remainder_bound(z):
    # First omitted term of the alternating series is z**4/4**1.5 = z**4/8.
    assert abs(fermi_f32_full(z) - fermi_f32_truncated(z)) <= z**4 / 8.0 + 1e-12


@given(z=unit_z)
@settings(max_examples=150)
def test_duplication_identity(z):
    lhs = fermi_f32_full(z)
    rhs = bose_g32(z) - 2.0**-0.5 * bose_g32(z * z)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_strict_monotonicity_on_grid():
    grid = [k / 100.0 for k in range(101)]
    g_values = [bose_g32(z) for z in grid]
    f_values = [fermi_f32_full(z) for z in grid]
    for prev, curr in zip(g_values, g_values[1:]):
        assert prev < curr
    for prev, curr in zip(f_values, f_values[1:]):
        assert prev < curr


def _floats_around(z, count):
    """``z`` and the ``count`` floats on each side of it, in increasing order."""
    below, above = [z], [z]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


def test_nondecreasing_through_the_power_series_seams():
    # Below z = 1/2 every Horner step is monotone in z and a larger z never
    # sums fewer terms, so no step between neighbouring floats goes down:
    # through each term-count seam, and up to 1/2 and across the route split.
    walks = [_floats_around(z, 400) for z in TERM_COUNT_SEAMS]
    walks.append(_floats_around(0.5, 400)[:402])
    for zs in walks:
        values = [bose_g32(z) for z in zs]
        assert all(prev <= curr for prev, curr in zip(values, values[1:]))


def test_steps_above_one_half_fall_by_at_most_3_ulp():
    # Robinson's route is not monotone between neighbouring floats: its
    # rounding can take a step down.  Pin how far, on walks of 300 floats up
    # from 101 points spread over [1/2, 1] and from 1 - 10**-k.
    worst = 0.0
    for start in [0.5 + k / 200.0 for k in range(101)] + [1.0 - 10.0**-k for k in range(3, 16)]:
        z, prev = start, bose_g32(start)
        for _ in range(300):
            z = math.nextafter(z, 2.0)
            if z > 1.0:
                break
            curr = bose_g32(z)
            worst = max(worst, (prev - curr) / math.ulp(curr))
            prev = curr
    assert worst <= 3.0


# The evaluator in loop form, the reference its straight-line Horner steps must match bit for
# bit: Robinson's coefficients c_16 .. c_1 as a tuple, and the power series' 1 / k**1.5.
ROBINSON_C = (
    9.615068088964928e-15, 6.666434552781358e-14, -4.654251296129395e-13,
    -3.2755597533804275e-12, 2.3269489024551932e-11, 1.6715198353742387e-10,
    -1.216940275850113e-09, -9.008596705798667e-09, 6.812420484962472e-08,
    5.300511944244494e-07, -4.293985065577547e-06, -3.7008427795661934e-05,
    0.00035487203241043046, 0.004247533648305506, -0.10394311248867728, 1.4603545088095868,
)


def power_loop(z, a):
    """The power series by Horner's rule, with as many terms as the evaluator sums."""
    s = 0.0
    for k in range(min(2 + int(17.0 * math.log(10.0) / a), 49), 0, -1):
        s = s * z + k ** -1.5
    return s * z


def g_loop(z, a):
    """g(z) at z = exp(-a): Robinson's expansion for a < ln 2, else the power series."""
    if not a < math.log(2.0):
        return power_loop(z, a)
    s = 0.0
    for c in ROBINSON_C:
        s = s * a + c
    return (ZETA_3_2 - 2.0 * math.sqrt(math.pi) * math.sqrt(a)) + s * a


def f_loop(z, a):
    return g_loop(z, a) - 2.0 ** -0.5 * g_loop(z * z, 2.0 * a)


def test_evaluators_match_the_loop_form_bit_for_bit():
    rng = random.Random(1951)
    zs = [1.0 - 0.5 * rng.random() for _ in range(200_000)]  # (1/2, 1]
    zs += sorted({z for centre in (0.5, 0.999, 1.0) for z in _floats_around(centre, 50)})
    bose = [z for z in zs if bose_g32(z) != g_loop(z, -math.log(z))]
    fermi = [z for z in zs if fermi_f32_full(z) != f_loop(z, -math.log(z))]
    assert (bose, fermi) == ([], [])


def test_one_half_and_below_take_the_power_series():
    # The route split is a < ln 2, and -ln(1/2) is ln 2 itself: 1/2 sums the power series.
    zs = _floats_around(0.5, 50)[:51]
    assert [bose_g32(z) for z in zs] == [power_loop(z, -math.log(z)) for z in zs]
    assert [fermi_f32_full(z) for z in zs] == [
        power_loop(z, -math.log(z)) - 2.0 ** -0.5 * power_loop(z * z, -2.0 * math.log(z))
        for z in zs
    ]


class _Float(float):
    pass


def _decides_like_the_range_check(func, loop, z):
    # Only a float in (0, 1] skips _real; anything else is converted, refused or returned
    # exactly as _real and the z = 0 return decide, with the same message.
    try:
        checked = _real(z, "z", _UNIT)
    except DomainError as exc:
        with pytest.raises(DomainError) as refused:
            func(z)
        assert str(refused.value) == str(exc)
        return
    expected = 0.0 if checked == 0.0 else loop(checked, -math.log(checked))
    assert repr(func(z)) == repr(expected)


GUARD_INPUTS = {
    "0": 0, "1": 1, "True": True, "False": False, "-0.0": -0.0, "0.0": 0.0, "5e-324": 5e-324,
    "-5e-324": -5e-324, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "float-subclass": _Float(0.25), "str": "0.5", "None": None, "10**400": 10**400,
}


@pytest.mark.parametrize("func,loop", [(bose_g32, g_loop), (fermi_f32_full, f_loop)])
@pytest.mark.parametrize("z", GUARD_INPUTS.values(), ids=GUARD_INPUTS.keys())
def test_the_float_guard_decides_like_the_range_check(func, loop, z):
    _decides_like_the_range_check(func, loop, z)


@pytest.mark.parametrize("func,loop", [(bose_g32, g_loop), (fermi_f32_full, f_loop)])
def test_the_floats_past_one_are_refused_like_the_range_check(func, loop):
    z = 1.0
    for _ in range(50):
        z = math.nextafter(z, 2.0)
        _decides_like_the_range_check(func, loop, z)


@pytest.mark.parametrize("z", ORACLE_Z)
def test_relative_error_against_mpmath(z):
    with mpmath.workdps(30):
        g_ref = mpmath.re(mpmath.polylog(1.5, z))
        f_ref = -mpmath.re(mpmath.polylog(1.5, -z))
        assert abs(bose_g32(z) - g_ref) <= 1e-15 * g_ref
        assert abs(bose_g32_quadrature(z) - g_ref) <= 1e-14 * g_ref
        assert abs(fermi_f32_full(z) - f_ref) <= 1e-14 * f_ref


def test_import_loads_neither_numpy_nor_scipy():
    probe = (
        "import sys, qgas; qgas.bose_g32_quadrature(0.5); "
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(qgas.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestQuadratureOracle:
    def test_zero(self):
        assert bose_g32_quadrature(0.0) == 0.0

    @pytest.mark.parametrize("z", [0.5, 0.9])
    def test_named_crosschecks(self, z):
        assert bose_g32_quadrature(z) == pytest.approx(bose_g32(z), abs=1e-8)

    @pytest.mark.parametrize("z", TENTHS)
    def test_agrees_with_series_on_grid(self, z):
        assert bose_g32_quadrature(z) == pytest.approx(bose_g32(z), abs=1e-8)

    def test_endpoint(self):
        # The substituted integrand stays finite at z = 1, so the oracle
        # covers the zeta endpoint as well.
        assert bose_g32_quadrature(1.0) == pytest.approx(ZETA_3_2, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            bose_g32_quadrature(1.2)


def test_thread_safety():
    clear_series_cache()
    zs = [k / 64.0 for k in range(65)]
    expected = {z: bose_g32(z) for z in zs}
    clear_series_cache()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bose_g32, zs))
    assert results == [expected[z] for z in zs]
