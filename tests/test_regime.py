"""Self-consistency solvers, thresholds and the two classifiers.

The constraint curve H(z) = e*g(z)/z - g(z) is not monotone at small z
(it dips slightly below its z -> 0 limit e before rising), and several
tests below pin that behaviour deliberately instead of assuming a clean
monotone picture.
"""

import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qgas
from qgas.errors import ConvergenceError, DomainError, _real
from qgas.gas import (
    FugacityPair,
    NaturalUnits,
    NormalizationScenario,
    b_factor,
    mono_energetic_state,
    occupation_bose,
    occupation_fermi,
    reduced_fugacity,
    specific_volume_from_constraint,
)
from qgas.polylog import SeriesParams, bose_g32, bose_g32_quadrature, fermi_f32_full, fermi_f32_truncated
from qgas.regime import (
    COUPLING_CONSTANT,
    RegimeReport,
    FLAG_NEAR_THRESHOLD,
    FLAG_NO_BOSE_ROOT,
    FLAG_NO_FERMI_ROOT,
    FLAG_OVERLAPS_FERMIONIC,
    RegimeLabel,
    bose_constraint_lhs,
    bose_residual,
    classify_both,
    classify_paper,
    classify_selfconsistent,
    condensation_fixed_point,
    coupling_from_momentum,
    fermi_constraint_lhs,
    fermi_residual,
    solve_bose,
    solve_fermi,
    threshold_condensation,
    threshold_dilution,
)
from qgas.sweep import SweepSpec, occupation_curve, row_from_report

# Frozen references (40-digit arithmetic, rounded to double).
H_AT_1 = 4.488797090760637  # (e - 1) * zeta(3/2)
PHI_FULL_AT_1 = 2.845032277764160
PHI_TRUNC_AT_1 = 3.119254352353900
FIXED_POINT_Z = 0.6986143591350650
FIXED_POINT_B = 1.4314048758431936
FIXED_POINT_MOMENTUM = 193.6343033836300
P_DILUTION = 205.9350066734369
P_CONDENSATION_NOMINAL = 199.5261163164603
# The dip of H below e: minimum location/value, and the fugacity where H
# re-crosses e from below.
H_MIN_Z = 0.1001816
H_RECROSS_Z = 0.1918395


class TestCoupling:
    def test_constant(self):
        assert COUPLING_CONSTANT == pytest.approx(559.7896, abs=1e-3)
        assert COUPLING_CONSTANT == pytest.approx(559.7893864839956, rel=1e-15)

    def test_identity_momentum(self):
        assert coupling_from_momentum(COUPLING_CONSTANT) == pytest.approx(1.0, abs=1e-9)

    def test_dilution_scale(self):
        assert coupling_from_momentum(205.93) == pytest.approx(2.71835, abs=1e-4)

    def test_hundred(self):
        assert coupling_from_momentum(100.0) == pytest.approx(5.597896, abs=1e-5)

    @pytest.mark.parametrize("p0", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, p0):
        with pytest.raises(DomainError):
            coupling_from_momentum(p0)

    def test_subnormal_momentum_overflows(self):
        # (4*pi)**2.5 / 1e-320 is inf: refused, naming p0.
        with pytest.raises(DomainError, match=r"^p0 .*got 1e-320$"):
            coupling_from_momentum(1e-320)

    @pytest.mark.parametrize(
        "call", [coupling_from_momentum, classify_paper, classify_selfconsistent, classify_both]
    )
    def test_huge_int_momentum_is_domain(self, call):
        # float(10**400) overflows: the momentum is refused by the number rule.
        with pytest.raises(DomainError) as err:
            call(10**400)
        assert str(err.value) == f"p0 must be a real number, got {10**400!r}"

    def test_numeric_string_still_refused(self):
        with pytest.raises(DomainError, match=r"^p0 must be positive and finite, got '150'$"):
            coupling_from_momentum("150")


class TestConstraintCurves:
    def test_bose_endpoint(self):
        value = bose_constraint_lhs(1.0)
        assert value == pytest.approx((math.e - 1.0) * bose_g32(1.0), rel=1e-14)
        assert value == pytest.approx(H_AT_1, abs=5e-13)

    def test_bose_small_z_limit(self):
        assert bose_constraint_lhs(1e-7) == pytest.approx(math.e, abs=1e-7)

    def test_residual_near_fixed_point_root(self):
        assert abs(bose_residual(0.6986, 2.8911)) < 1e-3

    def test_residual_at_exact_endpoint(self):
        assert bose_residual(1.0, H_AT_1) == pytest.approx(0.0, abs=5e-13)

    def test_fermi_endpoints(self):
        assert fermi_constraint_lhs(1.0, "full") == pytest.approx(2.84503, abs=1e-4)
        assert fermi_constraint_lhs(1.0, "full") == pytest.approx(PHI_FULL_AT_1, abs=5e-13)
        assert fermi_constraint_lhs(1.0, "truncated") == pytest.approx(3.11925, abs=1e-4)
        assert fermi_constraint_lhs(1.0, "truncated") == pytest.approx(PHI_TRUNC_AT_1, abs=5e-13)

    def test_fermi_small_z_limit(self):
        for series in ("full", "truncated"):
            assert fermi_constraint_lhs(1e-7, series) == pytest.approx(math.e, abs=1e-7)

    def test_fermi_residual_examples(self):
        assert abs(fermi_residual(1.0, 3.11925, "truncated")) < 1e-4
        assert abs(fermi_residual(1.0, 2.84503, "full")) < 1e-4

    @pytest.mark.parametrize("z", [0.0, -0.2, 1.1])
    def test_domain(self, z):
        with pytest.raises(DomainError):
            bose_constraint_lhs(z)
        with pytest.raises(DomainError):
            fermi_constraint_lhs(z)

    def test_unknown_series(self):
        with pytest.raises(DomainError):
            fermi_constraint_lhs(0.5, "pade")


class TestConstraintDip:
    """Pins of the non-monotone stretch of H near z = 0.

    Because e < 2**1.5, the z**2 coefficient of H is negative and
    H'(0+) = e/2**1.5 - 1 < 0: H starts at e and *decreases* before the
    higher terms turn it around.
    """

    def test_H_decreases_just_above_zero(self):
        assert bose_constraint_lhs(0.005) > bose_constraint_lhs(0.010)

    def test_H_below_e_inside_dip(self):
        for z in (0.05, 0.10, 0.15):
            assert bose_constraint_lhs(z) < math.e

    def test_H_above_e_past_recrossing(self):
        assert bose_constraint_lhs(0.20) > math.e

    def test_dip_minimum_location(self):
        h_min = bose_constraint_lhs(H_MIN_Z)
        assert h_min < bose_constraint_lhs(0.05)
        assert h_min < bose_constraint_lhs(0.15)
        assert h_min == pytest.approx(2.716243588, abs=1e-8)

    def test_recrossing_point(self):
        assert bose_constraint_lhs(H_RECROSS_Z) == pytest.approx(math.e, abs=1e-6)

    def test_mirror_fugacities_share_coupling(self):
        # Two fugacities on opposite dip walls give the same H value.
        target = bose_constraint_lhs(0.15)
        assert bose_constraint_lhs(0.0479479) == pytest.approx(target, abs=1e-7)

    def test_solver_reports_dip_couplings_as_no_root(self):
        # H(0.15) < e, so the endpoint sign check sees no bracket; the
        # solver deliberately refuses to chase dip roots.
        outcome = solve_bose(bose_constraint_lhs(0.15))
        assert not outcome.found
        assert outcome.no_root_side == "below"

    def test_phi_has_no_dip(self):
        # The Fermi curve is genuinely monotone; its z**2 coefficient is
        # e/2**1.5 + (terms of the same sign), safely positive.
        grid = [k * 0.005 for k in range(1, 201)]
        for series in ("full", "truncated"):
            values = [fermi_constraint_lhs(z, series) for z in grid]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestSolveBose:
    def test_near_fixed_point_coupling(self):
        outcome = solve_bose(2.8911)
        assert outcome.found
        assert outcome.z == pytest.approx(0.6986, abs=1e-3)
        assert bose_g32(outcome.z) == pytest.approx(1.000, abs=1e-3)
        assert outcome.z == pytest.approx(0.6987618672207778, abs=1e-9)

    def test_endpoint_coupling(self):
        outcome = solve_bose(H_AT_1)
        assert outcome.found
        assert outcome.z == pytest.approx(1.0, abs=1e-4)

    def test_below_window(self):
        outcome = solve_bose(2.0)
        assert outcome.z is None
        assert outcome.no_root_side == "below"

    def test_above_window(self):
        outcome = solve_bose(5.6)
        assert outcome.no_root_side == "above"

    def test_root_at_lower_bracket_end(self):
        # The residual is exactly zero at the lower end, which is returned as is.
        assert solve_bose(bose_constraint_lhs(1e-9)).z == 1e-9

    def test_no_root_edge_is_the_curve_at_the_lower_end(self):
        # The edge is H(1e-9), just below e: e itself has the root past the dip.
        edge = bose_constraint_lhs(1e-9)
        assert math.e - edge == pytest.approx(3.894e-11, rel=1e-3)
        assert solve_bose(math.e).z == pytest.approx(0.19183946951951103, abs=1e-12)
        report = classify_selfconsistent((4 * math.pi) ** 2.5 / math.e)
        assert report.coupling == math.e
        assert report.selfconsistent_label is RegimeLabel.DILUTION
        assert report.fugacity.z == solve_bose(math.e).z
        below = solve_bose(math.nextafter(edge, 0.0))
        assert (below.z, below.no_root_side) == (None, "below")

    @pytest.mark.parametrize("z", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_round_trip_past_dip(self, z):
        # Round-trips are well posed once z clears the dip (z > ~0.19).
        outcome = solve_bose(bose_constraint_lhs(z))
        assert outcome.found
        assert outcome.z == pytest.approx(z, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            solve_bose(bad)
        with pytest.raises(DomainError):
            solve_bose(3.0, tol=bad)

    def test_sub_ulp_tolerance_raises(self):
        # Below the spacing of doubles the bracket stops shrinking, so the
        # solve raises once its ends are adjacent doubles.
        with pytest.raises(ConvergenceError):
            solve_bose(4.0, tol=1e-17)

    def test_sub_ulp_tolerance_stops_at_adjacent_doubles(self, monkeypatch):
        # About 55 halvings take the bracket from [1e-9, 1] to adjacent
        # doubles; the solve stops there instead of evaluating the same
        # midpoint again.  The floor keeps the count meaningful: a solve
        # that bypassed the patched binding would see no call at all.
        seen = []

        def counting(z, params):
            seen.append(z)
            return bose_g32(z, params)

        monkeypatch.setattr("qgas.regime.bose_g32", counting)
        message = r"^bisection cannot narrow \[\S+, \S+\] to width 1e-17: "
        with pytest.raises(ConvergenceError, match=message):
            solve_bose(4.0, tol=1e-17)
        assert 50 <= len(seen) <= 60

    def test_tolerance_up_to_the_bracket_width_is_solved(self):
        # One midpoint, 0.5000000005, narrows [1e-9, 1] below the width 1 - 1e-9.
        assert solve_bose(4.0, 0.999999999).z == 0.75000000025


class TestSolveFermi:
    def test_just_above_e(self):
        outcome = solve_fermi(math.e + 0.001)
        assert outcome.found
        assert outcome.z < 0.05
        assert outcome.z == pytest.approx(0.0232607215, abs=1e-9)
        from qgas.polylog import fermi_f32_truncated

        assert fermi_f32_truncated(outcome.z) < 0.05

    def test_truncated_endpoint(self):
        outcome = solve_fermi(3.11925, series="truncated")
        assert outcome.z == pytest.approx(1.0, abs=1e-4)

    def test_above_window(self):
        outcome = solve_fermi(5.6)
        assert outcome.no_root_side == "above"

    def test_below_window(self):
        outcome = solve_fermi(2.0)
        assert outcome.no_root_side == "below"

    @pytest.mark.parametrize("series", ["full", "truncated"])
    @pytest.mark.parametrize("z", [0.05, 0.25, 0.5, 0.75, 1.0])
    def test_round_trip(self, series, z):
        outcome = solve_fermi(fermi_constraint_lhs(z, series), series=series)
        assert outcome.found
        assert outcome.z == pytest.approx(z, abs=1e-8)

    def test_unknown_series(self):
        with pytest.raises(DomainError):
            solve_fermi(3.0, series="exact")


@pytest.mark.parametrize(
    "solve",
    [lambda: solve_bose(4.0), lambda: solve_fermi(math.e + 0.001, "full")],
    ids=["bose", "fermi"],
)
def test_a_solve_checks_its_arguments_once_and_no_midpoint(monkeypatch, solve):
    # The coupling and tol are checked on entry; the bisected curve checks nothing per midpoint.
    checked = []

    def counting(value, name, bounds=None):
        checked.append(name)
        return _real(value, name, bounds)

    monkeypatch.setattr("qgas.regime._real", counting)
    assert solve().found
    assert checked == ["coupling", "tol"]


class TestThresholds:
    def test_condensation_nominal(self):
        value = threshold_condensation(1.4)
        assert value == pytest.approx(199.53, abs=0.01)
        assert value == pytest.approx(P_CONDENSATION_NOMINAL, rel=1e-12)

    def test_condensation_selfconsistent_b(self):
        assert threshold_condensation(1.4315) == pytest.approx(193.61, abs=0.05)

    def test_condensation_unit_denominator(self):
        assert threshold_condensation(2.0 / math.e) == pytest.approx(COUPLING_CONSTANT, rel=1e-12)

    def test_dilution_nominal(self):
        value = threshold_dilution(1.0)
        assert value == pytest.approx(205.93, abs=0.01)
        assert value == pytest.approx(P_DILUTION, rel=1e-12)

    def test_dilution_upper_b(self):
        assert threshold_dilution(2.6) == pytest.approx(79.20, abs=0.01)

    def test_dilution_scaling(self):
        assert threshold_dilution(2.0) == pytest.approx(threshold_dilution(1.0) / 2.0, rel=1e-12)

    def test_ordering(self):
        # The condensation threshold sits below the dilution one, which is
        # exactly what the overlaps_fermionic flag discloses.
        assert threshold_condensation(1.4) < threshold_dilution(1.0)

    @pytest.mark.parametrize("b", [1.0 / math.e, 0.2, 0.0, -1.0])
    def test_condensation_domain(self, b):
        with pytest.raises(DomainError):
            threshold_condensation(b)

    @pytest.mark.parametrize("b", [0.0, -0.5])
    def test_dilution_domain(self, b):
        with pytest.raises(DomainError):
            threshold_dilution(b)

    @pytest.mark.parametrize(
        "threshold,b",
        [
            (threshold_dilution, 1e-310),  # the quotient overflows to inf
            (threshold_dilution, 1e308),  # e*b overflows, so the quotient is 0.0
            (threshold_condensation, 1e308),
        ],
    )
    def test_no_infinite_or_zero_momentum(self, threshold, b):
        with pytest.raises(DomainError, match=rf"^b .*got {re.escape(repr(b))}$"):
            threshold(b)


class TestFixedPoint:
    def test_location(self):
        pair = condensation_fixed_point()
        assert pair.z == pytest.approx(FIXED_POINT_Z, abs=1e-9)
        assert pair.b == pytest.approx(FIXED_POINT_B, abs=1e-9)
        assert pair.z_prime == pytest.approx(1.0, abs=1e-10)

    def test_matching_momentum(self):
        pair = condensation_fixed_point()
        assert threshold_condensation(pair.b) == pytest.approx(FIXED_POINT_MOMENTUM, abs=1e-6)

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            condensation_fixed_point(tol=0.0)

    def test_sub_ulp_tolerance_ends(self):
        # Once the bracket ends are adjacent doubles its width stops
        # shrinking; the bisection must then stop.  A subprocess with
        # a timeout turns a hang into a failure.
        probe = (
            "from qgas.errors import ConvergenceError\n"
            "from qgas.regime import condensation_fixed_point\n"
            "try:\n"
            "    print(repr(condensation_fixed_point(tol=1e-17).z_prime))\n"
            "except ConvergenceError:\n"
            "    print('ConvergenceError')\n"
        )
        src = os.path.dirname(os.path.dirname(qgas.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        out = done.stdout.strip()
        assert out == "ConvergenceError" or abs(float(out) - 1.0) <= 1e-15

    def test_evaluates_each_fugacity_once(self, monkeypatch):
        seen = []

        def recording(z, params):
            seen.append(z)
            return bose_g32(z, params)

        monkeypatch.setattr("qgas.regime.bose_g32", recording)
        assert condensation_fixed_point().z == pytest.approx(FIXED_POINT_Z, abs=1e-9)
        # 42 distinct fugacities: the patch sees every evaluation, none twice.
        assert len(seen) == len(set(seen)) == 42


class TestClassifyPaper:
    def test_dilution_point(self):
        report = classify_paper(205.93)
        assert report.paper_label is RegimeLabel.DILUTION
        assert report.flags == frozenset()
        assert report.branch == "none"
        assert report.fugacity is None

    def test_condensation_point_carries_overlap_flag(self):
        report = classify_paper(199.53)
        assert report.paper_label is RegimeLabel.CONDENSATION
        assert FLAG_OVERLAPS_FERMIONIC in report.flags

    def test_fermionic_range(self):
        report = classify_paper(100.0)
        assert report.paper_label is RegimeLabel.ANOMALOUS_FERMIONIC
        assert report.flags == frozenset()

    def test_above_dilution(self):
        report = classify_paper(300.0)
        assert report.paper_label is RegimeLabel.ABOVE_DILUTION
        assert report.flags == frozenset()

    def test_near_threshold_flag(self):
        # Inside twice the window of the condensation threshold but not
        # matching it.
        report = classify_paper(203.0)
        assert report.paper_label is RegimeLabel.ANOMALOUS_FERMIONIC
        assert FLAG_NEAR_THRESHOLD in report.flags

    def test_window_widening_changes_label(self):
        assert classify_paper(202.0, window=0.001).paper_label is RegimeLabel.ANOMALOUS_FERMIONIC
        assert classify_paper(202.0, window=0.05).paper_label is RegimeLabel.CONDENSATION

    def test_condensation_window_precedes_dilution_window(self):
        # With a huge window both thresholds match; condensation wins.
        assert classify_paper(202.0, window=0.2).paper_label is RegimeLabel.CONDENSATION

    @given(p0=st.floats(min_value=210.0, max_value=1e6))
    def test_scale_consistency_above_dilution(self, p0):
        assert classify_paper(p0).paper_label is RegimeLabel.ABOVE_DILUTION

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_paper(-5.0)
        with pytest.raises(DomainError):
            classify_paper(200.0, window=0.0)


class TestClassifySelfconsistent:
    def test_condensation_at_fixed_point_momentum(self):
        report = classify_selfconsistent(193.61)
        assert report.selfconsistent_label is RegimeLabel.CONDENSATION
        assert report.branch == "bose"
        assert report.fugacity.z == pytest.approx(0.6986, abs=0.002)
        assert report.fugacity.z == pytest.approx(0.6990016336, abs=1e-8)
        assert report.fugacity.b == pytest.approx(1.4315, abs=0.005)
        assert report.fugacity.z_prime >= 1.0

    def test_normal_bose_between_thresholds(self):
        # K(205.0) = 2.7307 sits above e, and the root lands past the dip
        # with z' well away from both 0 and 1.
        report = classify_selfconsistent(205.0)
        assert report.selfconsistent_label is RegimeLabel.NORMAL_BOSE
        assert report.fugacity.z == pytest.approx(0.3270464384, abs=1e-8)
        assert report.fugacity.z_prime == pytest.approx(0.3734718675, abs=1e-8)

    def test_dilution_at_exact_coupling(self):
        report = classify_selfconsistent(COUPLING_CONSTANT / math.e)
        assert report.selfconsistent_label is RegimeLabel.DILUTION

    def test_dilution_by_order_one_tolerance(self):
        # A found root away from K = e is labelled Dilution once tol reaches
        # |K - e|: K = 2.75 lies within 0.6 of e, and one midpoint narrows the
        # bracket to [1e-9, 0.5].
        report = classify_selfconsistent(COUPLING_CONSTANT / 2.75, tol=0.6)
        assert report.selfconsistent_label is RegimeLabel.DILUTION
        assert report.branch == "bose"
        assert report.fugacity.z == pytest.approx(0.25000000075, abs=1e-12)
        assert report.fugacity.z_prime <= 0.6

    def test_found_roots_away_from_e_have_z_prime_above_tol(self):
        # Why the Dilution test reads |K - e| <= tol alone: no root found for a
        # coupling farther than tol from e, and below condensation, has z' <= tol.
        # Roots lie past the dip (z > ~0.19), so only a coarse tol could reach
        # z', and a coupling that far above e has a root higher still.
        h_lo = bose_constraint_lhs(1e-9)
        k_cond = math.e * condensation_fixed_point().b - 1.0
        couplings = [h_lo + (k_cond - h_lo) * i / 32 for i in range(1, 33)]
        couplings += [k_cond + (H_AT_1 - k_cond) * i / 4 for i in range(1, 5)]
        checked = 0
        for tol in [10.0 ** (k / 3) for k in range(-36, 0)] + [0.999999999]:
            for coupling in (*couplings, math.e + 1.000001 * tol, math.e + 2.0 * tol):
                outcome = solve_bose(coupling, tol)
                if not outcome.found or abs(coupling - math.e) <= tol:
                    continue
                z_prime = FugacityPair.from_branch(outcome.z, "bose").z_prime
                if z_prime < 1.0:
                    checked += 1
                    assert z_prime > tol, (coupling, tol, z_prime)
        assert checked > 1000

    def test_dilution_without_root(self):
        # K sits just below e, where H has no bracketed root, but within tol of e.
        report = classify_selfconsistent(COUPLING_CONSTANT / (math.e - 5e-11), tol=1e-10)
        assert report.selfconsistent_label is RegimeLabel.DILUTION
        assert report.flags == frozenset()
        assert report.fugacity is None

    def test_out_of_model_range(self):
        report = classify_selfconsistent(100.0)
        assert report.selfconsistent_label is RegimeLabel.OUT_OF_MODEL_RANGE
        assert FLAG_NO_FERMI_ROOT in report.flags
        assert report.branch == "none"
        assert report.fugacity is None

    def test_above_dilution(self):
        report = classify_selfconsistent(300.0)
        assert report.selfconsistent_label is RegimeLabel.ABOVE_DILUTION
        assert FLAG_NO_BOSE_ROOT in report.flags

    def test_fermionic_label_is_unreachable(self):
        # Any coupling past the Bose window (K > H(1) = 4.489) also
        # exceeds both Fermi endpoints (Phi(1) < 3.12), so the fermi
        # branch can never absorb it; the honest label is
        # OutOfModelRange.  Pinned to keep the gap visible.
        for p0 in (121.0, COUPLING_CONSTANT / 4.6):
            report = classify_selfconsistent(p0)
            assert report.selfconsistent_label is RegimeLabel.OUT_OF_MODEL_RANGE

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_selfconsistent(0.0)


class TestClassifyBoth:
    def test_dilution_point_labels_differ(self):
        # The nominal-threshold window says Dilution; the solved relation has a
        # genuine root with z' = 0.21 there, hence NormalBose.  The
        # disagreement is reported, not resolved.
        report = classify_both(205.93)
        assert report.paper_label is RegimeLabel.DILUTION
        assert report.selfconsistent_label is RegimeLabel.NORMAL_BOSE
        assert report.labels_differ is True
        assert FLAG_NEAR_THRESHOLD in report.flags

    def test_condensation_point(self):
        report = classify_both(199.53)
        assert report.paper_label is RegimeLabel.CONDENSATION
        assert report.selfconsistent_label is RegimeLabel.NORMAL_BOSE
        assert FLAG_OVERLAPS_FERMIONIC in report.flags
        assert FLAG_NEAR_THRESHOLD in report.flags
        assert report.branch == "bose"
        assert report.fugacity.z == pytest.approx(0.5770924939, abs=1e-8)

    def test_agreement_above_dilution(self):
        report = classify_both(300.0)
        assert report.paper_label is RegimeLabel.ABOVE_DILUTION
        assert report.selfconsistent_label is RegimeLabel.ABOVE_DILUTION
        assert report.labels_differ is False
        assert report.flags == frozenset({FLAG_NO_BOSE_ROOT})

    def test_fermionic_vs_out_of_range(self):
        report = classify_both(100.0)
        assert report.paper_label is RegimeLabel.ANOMALOUS_FERMIONIC
        assert report.selfconsistent_label is RegimeLabel.OUT_OF_MODEL_RANGE
        assert report.labels_differ is True

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.6])
    @pytest.mark.parametrize("window", [0.01, 0.05])
    def test_merges_the_two_classifiers(self, window, tol):
        # Each window edge (1x and 2x) of both thresholds and the couplings e
        # and H(1), with their float neighbours on either side.
        edges = [
            p + sign * factor * window * p
            for p in (P_CONDENSATION_NOMINAL, P_DILUTION)
            for factor in (1.0, 2.0)
            for sign in (-1.0, 1.0)
        ] + [COUPLING_CONSTANT / math.e, COUPLING_CONSTANT / H_AT_1]
        momenta = [
            q for p in edges for q in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))
        ]
        for params in (SeriesParams(), SeriesParams(1e-8, 10_000)):
            for p0 in momenta:
                both = classify_both(p0, window, tol, params)
                paper = classify_paper(p0, window)
                selfc = classify_selfconsistent(p0, tol, params)
                differ = paper.paper_label != selfc.selfconsistent_label
                assert both.momentum == paper.momentum == selfc.momentum == p0
                assert both.coupling == paper.coupling == selfc.coupling
                assert both.paper_label is paper.paper_label, p0
                assert both.selfconsistent_label is selfc.selfconsistent_label, p0
                assert both.fugacity == selfc.fugacity, p0
                assert both.flags == (
                    paper.flags | selfc.flags | ({FLAG_NEAR_THRESHOLD} if differ else set())
                ), p0

    @pytest.mark.parametrize(
        "call, first",
        [
            (lambda: classify_paper(-1.0, 0.0), "p0"),
            (lambda: classify_selfconsistent(-1.0, math.nan), "p0"),
            (lambda: classify_selfconsistent(150.0, math.nan), "tol"),
            (lambda: classify_both(-1.0, 0.0, math.nan), "p0"),
            (lambda: classify_both(150.0, 0.0, math.nan), "window"),
            (lambda: classify_both(150.0, 0.01, math.nan), "tol"),
        ],
    )
    def test_first_error_follows_argument_order(self, call, first):
        # Arguments are checked in the order p0, window, tol.
        with pytest.raises(DomainError, match=f"^{first} "):
            call()

    def test_labels_differ_is_derived(self):
        # None unless both labels are set; never a constructor argument.
        assert classify_paper(205.93).labels_differ is None
        assert classify_selfconsistent(205.93).labels_differ is None
        report = classify_paper(205.93)
        with pytest.raises(TypeError):
            RegimeReport(
                momentum=report.momentum, coupling=report.coupling, paper_label=None,
                selfconsistent_label=None, fugacity=None, flags=frozenset(), labels_differ=True,
            )

    def test_repr_does_not_depend_on_the_hash_seed(self):
        # A frozenset prints in string-hash order; the report lists its flags
        # in FLAG_ORDER, so two processes with different seeds agree.
        probe = "from qgas.regime import classify_both\nprint(repr(classify_both(210.0)))\n"
        src = os.path.dirname(os.path.dirname(qgas.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        shown = [
            subprocess.run(
                [sys.executable, "-c", probe], env={**env, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout
            for seed in ("0", "2")
        ]
        assert shown[0] == shown[1]
        assert "flags=frozenset({'no_bose_root', 'near_threshold'}))" in shown[0]

    def test_flag_outside_the_order_is_kept(self):
        # No classifier sets one, but a hand-built report neither hides nor drops it.
        flags = frozenset({"custom", FLAG_NEAR_THRESHOLD})
        report = RegimeReport(**{**vars(classify_both(210.0)), "flags": flags})
        assert repr(report).endswith("flags=frozenset({'near_threshold', 'custom'}))")
        assert row_from_report(report).flags == (FLAG_NEAR_THRESHOLD, "custom")


@pytest.mark.parametrize("coupling", [2.75, 2.8911, 3.2, 4.0, 4.4])
def test_equation_form_equivalence(coupling):
    # At a solved root, the rearrangements g = e*b - K and
    # g = K/(e/z - 1) of the same relation must agree.
    z = solve_bose(coupling).z
    g = bose_g32(z)
    b = g / z
    assert g == pytest.approx(math.e * b - coupling, abs=1e-8)
    assert g == pytest.approx(coupling / (math.e / z - 1.0), abs=1e-8)


@pytest.mark.parametrize("coupling", [2.75, 2.8911, 3.5, 4.2])
def test_bose_branch_b_bounds(coupling):
    report = classify_selfconsistent(COUPLING_CONSTANT / coupling)
    assert report.branch == "bose"
    assert 1.0 < report.fugacity.b <= 2.6124 + 1e-4


@pytest.mark.parametrize("series", ["full", "truncated"])
@pytest.mark.parametrize("coupling", [2.73, 2.8, 2.84])
def test_fermi_branch_b_bounds(series, coupling):
    from qgas.gas import FugacityPair

    outcome = solve_fermi(coupling, series=series)
    assert outcome.found
    variant = "fermi-full" if series == "full" else "fermi-truncated"
    pair = FugacityPair.from_branch(outcome.z, variant)
    assert 0.76 <= pair.b < 1.0


def test_solver_respects_custom_params():
    loose = SeriesParams(tolerance=1e-8, max_terms=10_000)
    outcome = solve_bose(2.8911, params=loose)
    assert outcome.z == pytest.approx(0.6986, abs=1e-3)


# Every entry point that refuses a value by the one positive-and-finite
# rule, with the argument name its message carries.
POSITIVE_ARGUMENTS = {
    "solve_bose-coupling": ("coupling", solve_bose),
    "solve_bose-tol": ("tol", lambda v: solve_bose(3.0, v)),
    "solve_fermi-tol": ("tol", lambda v: solve_fermi(2.8, tol=v)),
    "threshold_dilution": ("b", threshold_dilution),
    "condensation_fixed_point": ("tol", lambda v: condensation_fixed_point(tol=v)),
    "classify_paper": ("window", lambda v: classify_paper(150.0, v)),
    "SweepSpec-window": ("window", lambda v: SweepSpec(100.0, 200.0, 3, window=v)),
    "SweepSpec-tol": ("tol", lambda v: SweepSpec(100.0, 200.0, 3, tol=v)),
    "FugacityPair": ("b", lambda v: FugacityPair(z=0.0, z_prime=0.0, b=v)),
    "bose_residual-coupling": ("coupling", lambda v: bose_residual(0.5, v)),
    "fermi_residual-coupling": ("coupling", lambda v: fermi_residual(0.5, v)),
    "NaturalUnits": ("hbar", lambda v: NaturalUnits(hbar=v)),
    "mono_energetic_state": ("p0", mono_energetic_state),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", POSITIVE_ARGUMENTS)
def test_positive_and_finite_refusal(entry, value):
    name, call = POSITIVE_ARGUMENTS[entry]
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == f"{name} must be positive and finite, got {value!r}"


TOL_PAST_BRACKET = (
    "tol must be at most the bracket width 0.999999999 of [1e-09, 1.0], got 0.9999999990000001"
)

# A real argument outside its range, with the exact refusal it draws.
RANGE_REFUSALS = {
    "bose_g32": (lambda: bose_g32(1.5), "z must lie in [0, 1], got 1.5"),
    "fermi_f32_truncated": (lambda: fermi_f32_truncated(-1.0), "z must lie in [0, 1], got -1.0"),
    "bose_g32_quadrature": (lambda: bose_g32_quadrature(math.nan), "z must lie in [0, 1], got nan"),
    "bose_constraint_lhs": (lambda: bose_constraint_lhs(0.0), "z must lie in (0, 1], got 0.0"),
    "fermi_constraint_lhs": (lambda: fermi_constraint_lhs(1.5), "z must lie in (0, 1], got 1.5"),
    "occupation_bose-beta_eps": (
        lambda: occupation_bose(0.5, -1.0), "beta_eps must be nonnegative and finite, got -1.0"
    ),
    "occupation_fermi-z": (
        lambda: occupation_fermi(-1.0, 1.0), "z must be nonnegative and finite, got -1.0"
    ),
    "occupation_fermi-beta_eps": (
        lambda: occupation_fermi(0.5, math.inf), "beta_eps must be finite, got inf"
    ),
    "FugacityPair-z_prime": (
        lambda: FugacityPair(0.5, -1.0, 1.0), "z_prime must be nonnegative and finite, got -1.0"
    ),
    "SweepSpec-p_min": (lambda: SweepSpec(-1.0, 2.0, 3), "p_min must be positive, got -1.0"),
    "SweepSpec-p_max": (lambda: SweepSpec(1.0, math.nan, 3), "p_max must be finite, got nan"),
    # A negative Bose bound is named as the bound, after an out-of-range z.
    "occupation_curve-beta_eps_min": (
        lambda: occupation_curve(0.5, -400.0, 1.0, 3),
        "beta_eps_min must be nonnegative and finite, got -400.0",
    ),
    "occupation_curve-z": (
        lambda: occupation_curve(1.5, -400.0, 1.0, 3), "z must lie in [0, 1], got 1.5"
    ),
    "solve_bose-tol": (
        lambda: solve_bose(3.0, tol=0.0), "tol must be positive and finite, got 0.0"
    ),
    # The float just past the bracket width 1 - 1e-9: a wider tol would
    # return the bracket midpoint as a root.
    "solve_bose-tol-bracket": (lambda: solve_bose(4.0, 0.9999999990000001), TOL_PAST_BRACKET),
    "solve_fermi-tol-bracket": (
        lambda: solve_fermi(2.8, tol=0.9999999990000001), TOL_PAST_BRACKET
    ),
    "condensation_fixed_point-tol-bracket": (
        lambda: condensation_fixed_point(tol=0.9999999990000001), TOL_PAST_BRACKET
    ),
}


@pytest.mark.parametrize("entry", RANGE_REFUSALS)
def test_range_refusal_message(entry):
    call, message = RANGE_REFUSALS[entry]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


# Every entry point that takes a real number, with the argument name its
# message carries: a value float() refuses is a DomainError, never a raw
# TypeError, ValueError or OverflowError.
REAL_ARGUMENTS = {
    **POSITIVE_ARGUMENTS,
    "bose_g32": ("z", bose_g32),
    "fermi_f32_full": ("z", fermi_f32_full),
    "fermi_f32_truncated": ("z", fermi_f32_truncated),
    "bose_g32_quadrature": ("z", bose_g32_quadrature),
    "b_factor": ("z", b_factor),
    "FugacityPair.from_branch": ("z", lambda v: FugacityPair.from_branch(v, "bose")),
    "FugacityPair-z": ("z", lambda v: FugacityPair(z=v, z_prime=0.5, b=1.0)),
    "FugacityPair-z_prime": ("z_prime", lambda v: FugacityPair(z=0.5, z_prime=v, b=1.0)),
    "occupation_bose-beta_eps": ("beta_eps", lambda v: occupation_bose(0.5, v)),
    "occupation_fermi-z": ("z", lambda v: occupation_fermi(v, 1.0)),
    "occupation_fermi-beta_eps": ("beta_eps", lambda v: occupation_fermi(0.5, v)),
    "reduced_fugacity-thermal_wavelength": ("thermal_wavelength", lambda v: reduced_fugacity(v, 1.0)),
    "reduced_fugacity-specific_volume": ("specific_volume", lambda v: reduced_fugacity(1.0, v)),
    "specific_volume_from_constraint": ("z", lambda v: specific_volume_from_constraint(1.0, v)),
    "NormalizationScenario.from_totals": (
        "total_count", lambda v: NormalizationScenario.from_totals(v, 5.0)
    ),
    "threshold_condensation": ("b", threshold_condensation),
    "classify_selfconsistent-tol": ("tol", lambda v: classify_selfconsistent(205.0, tol=v)),
    "classify_both-window": ("window", lambda v: classify_both(205.0, window=v)),
    "classify_both-tol": ("tol", lambda v: classify_both(205.0, tol=v)),
    "SweepSpec-p_min": ("p_min", lambda v: SweepSpec(v, 200.0, 3)),
    "SweepSpec-p_max": ("p_max", lambda v: SweepSpec(100.0, v, 3)),
    "occupation_curve": ("beta_eps_min", lambda v: occupation_curve(0.5, v, 1.0, 3)),
    "bose_constraint_lhs": ("z", bose_constraint_lhs),
    "fermi_constraint_lhs": ("z", fermi_constraint_lhs),
}


@pytest.mark.parametrize("value", ["abc", None, 1j, 10**400], ids=["str", "None", "complex", "huge-int"])
@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_non_number_refusal(entry, value):
    name, call = REAL_ARGUMENTS[entry]
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
def test_int_past_the_digit_limit_is_described(entry):
    # repr refuses an int of more than 4,300 digits; the message gives its size.
    name, call = REAL_ARGUMENTS[entry]
    with pytest.raises(DomainError) as err:
        call(10**5000)
    assert str(err.value) == f"{name} must be a real number, got an int of 16610 bits"


# Each refusal whose message shows the refused argument, with the wording
# the message starts with.  repr cannot print the values below.
SHOWN_REFUSALS = {
    "SeriesParams-tolerance": ("tolerance ", lambda v: SeriesParams(tolerance=v)),
    "SeriesParams-max_terms": ("max_terms ", lambda v: SeriesParams(max_terms=v)),
    "SweepSpec-steps": ("steps ", lambda v: SweepSpec(1.0, 2.0, v)),
    "SweepSpec-mode": ("unknown mode ", lambda v: SweepSpec(1.0, 2.0, 3, mode=v)),
    "occupation_curve-branch": ("unknown branch ", lambda v: occupation_curve(0.5, 0.0, 1.0, 3, branch=v)),
    "FugacityPair.from_branch": ("unknown branch ", lambda v: FugacityPair.from_branch(0.5, v)),
    "coupling_from_momentum": ("p0 ", coupling_from_momentum),
    "bose_g32": ("z ", bose_g32),
    "solve_bose": ("coupling ", solve_bose),
}


@pytest.mark.parametrize(
    "value,shown",
    [(-(10**5000), "an int of 16610 bits"), ([-(10**5000)], "a value of type list")],
    ids=["huge-int", "list-of-huge-int"],
)
@pytest.mark.parametrize("entry", SHOWN_REFUSALS)
def test_unprintable_argument_is_described(entry, value, shown):
    start, call = SHOWN_REFUSALS[entry]
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value).startswith(start)
    assert shown in str(err.value)


# Calls that take a numeric string as the float it spells, next to the same
# call with that float.
NUMERIC_STRING_CALLS = {
    "solve_bose": (lambda: solve_bose("4.0", "1e-12"), lambda: solve_bose(4.0, 1e-12)),
    "threshold_dilution": (lambda: threshold_dilution("1"), lambda: threshold_dilution(1.0)),
    "threshold_condensation": (
        lambda: threshold_condensation("1.4"), lambda: threshold_condensation(1.4)
    ),
    "condensation_fixed_point": (
        lambda: condensation_fixed_point(tol="1e-12"), lambda: condensation_fixed_point(tol=1e-12)
    ),
    "classify_both": (
        lambda: classify_both(205.0, window="0.01", tol="1e-12"), lambda: classify_both(205.0)
    ),
    "b_factor": (lambda: b_factor("0.5"), lambda: b_factor(0.5)),
    "bose_constraint_lhs": (lambda: bose_constraint_lhs("0.5"), lambda: bose_constraint_lhs(0.5)),
    "occupation_fermi": (lambda: occupation_fermi("0.5", "1"), lambda: occupation_fermi(0.5, 1.0)),
    "FugacityPair": (
        lambda: FugacityPair(z="0.5", z_prime="0.5", b="1"), lambda: FugacityPair(0.5, 0.5, 1.0)
    ),
    "SweepSpec": (
        lambda: SweepSpec("100", "200", 3, window="0.01", tol="1e-12"),
        lambda: SweepSpec(100.0, 200.0, 3),
    ),
    "occupation_curve": (
        lambda: occupation_curve(0.5, "0", "1", 3), lambda: occupation_curve(0.5, 0.0, 1.0, 3)
    ),
}


@pytest.mark.parametrize("entry", NUMERIC_STRING_CALLS)
def test_numeric_string_is_its_float(entry):
    # repr tells 1.0 from 1 and "1": the records store the floats they checked.
    with_string, with_float = (call() for call in NUMERIC_STRING_CALLS[entry])
    assert with_string == with_float
    assert repr(with_string) == repr(with_float)

