"""Occupation formulas, derived state quantities and the normalization
constraint."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qgas.errors import DomainError, SingularityError
from qgas.gas import (
    FugacityPair,
    MonoEnergeticState,
    NaturalUnits,
    NormalizationScenario,
    b_factor,
    mono_energetic_state,
    occupation_bose,
    occupation_fermi,
    reduced_fugacity,
    specific_volume_from_constraint,
)
from qgas.polylog import ZETA_3_2, bose_g32, fermi_f32_truncated
from qgas.regime import coupling_from_momentum

LAMBDA_AT_205_93 = 0.0172141392794203

open_z = st.floats(min_value=1e-6, max_value=1.0)
# For b = series(z)/z the sub-tolerance terms are dropped by the stop
# rule, so strict bounds on b only hold once z**2/2**1.5 clears the
# series tolerance comfortably.
series_z = st.floats(min_value=1e-3, max_value=1.0)
momenta = st.floats(min_value=1e-3, max_value=1e6)


class TestOccupationBose:
    def test_half_fugacity_ground_state(self):
        assert occupation_bose(0.5, 0.0) == 1.0

    def test_unit_fugacity(self):
        value = occupation_bose(1.0, 1.0)
        assert value == pytest.approx(0.581977, abs=1e-6)
        assert value == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)

    def test_condensation_singularity(self):
        with pytest.raises(SingularityError):
            occupation_bose(1.0, 0.0)

    @pytest.mark.parametrize("z", [-0.5, 1.1, math.nan])
    def test_domain_z(self, z):
        with pytest.raises(DomainError):
            occupation_bose(z, 1.0)

    def test_non_number_z_is_domain(self):
        # The same fugacity rule as bose_g32.
        with pytest.raises(DomainError, match=r"^z must be a real number, got 'abc'$"):
            occupation_bose("abc", 1.0)

    @pytest.mark.parametrize("beta_eps", [-1e-9, -3.0, math.nan, math.inf])
    def test_domain_beta_eps(self, beta_eps):
        with pytest.raises(DomainError):
            occupation_bose(0.5, beta_eps)

    def test_large_beta_eps_underflows_to_zero(self):
        assert occupation_bose(1.0, 800.0) == 0.0

    @pytest.mark.parametrize("beta_eps", [0.0, 1.0, 1e308])
    def test_empty_at_zero_fugacity(self, beta_eps):
        assert occupation_bose(0.0, beta_eps) == 0.0

    def test_divergence_rate_toward_singularity(self):
        # 1/(e**x - 1) > 10**n - 1 along beta_eps = 10**-n at z = 1.
        for n in range(1, 13):
            assert occupation_bose(1.0, 10.0**-n) > 10.0**n - 1.0

    # The largest beta_eps at z = 1 whose occupation exceeds the largest double.
    LAST_OVERFLOW = 5.562684646268003e-309

    @pytest.mark.parametrize("beta_eps", [5e-324, 1e-310, LAST_OVERFLOW])
    def test_overflowing_occupation_is_singular(self, beta_eps):
        message = (
            f"Bose occupation diverges at z=1.0, beta_eps={beta_eps!r} "
            "(condensation singularity at z=1, beta_eps=0)"
        )
        with pytest.raises(SingularityError) as err:
            occupation_bose(1.0, beta_eps)
        assert str(err.value) == message

    def test_largest_finite_occupations(self):
        first_finite = math.nextafter(self.LAST_OVERFLOW, 1.0)
        assert occupation_bose(1.0, first_finite) == 1.7976931348623143e308
        assert occupation_bose(math.nextafter(1.0, 0.0), 0.0) == 9007199254740992.0


class TestOccupationFermi:
    def test_symmetric_point(self):
        assert occupation_fermi(1.0, 0.0) == 0.5

    def test_unit_fugacity(self):
        value = occupation_fermi(1.0, 1.0)
        assert value == pytest.approx(0.268941, abs=1e-6)
        assert value == pytest.approx(1.0 / (math.e + 1.0), rel=1e-14)

    def test_half_fugacity(self):
        value = occupation_fermi(0.5, 1.0)
        assert value == pytest.approx(0.155362, abs=1e-6)
        assert value == pytest.approx(1.0 / (2.0 * math.e + 1.0), rel=1e-14)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            occupation_fermi(-0.1, 1.0)

    @pytest.mark.parametrize("beta_eps", [-1e308, -1.0, 0.0, 1.0])
    def test_empty_at_zero_fugacity(self, beta_eps):
        assert occupation_fermi(0.0, beta_eps) == 0.0

    @pytest.mark.parametrize("beta_eps", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_eps_rejected(self, beta_eps):
        with pytest.raises(DomainError) as err:
            occupation_fermi(0.5, beta_eps)
        assert str(err.value) == f"beta_eps must be finite, got {beta_eps!r}"

    def test_negative_beta_eps_is_stable(self):
        # Occupation approaches 1 from below; must not overflow.
        assert occupation_fermi(1.0, -800.0) == pytest.approx(1.0, abs=1e-12)
        assert occupation_fermi(1.0, -800.0) < 1.0 or occupation_fermi(1.0, -800.0) == 1.0

    @given(z=st.floats(min_value=0.01, max_value=1.0), beta_eps=st.floats(min_value=0.0, max_value=10.0))
    def test_bounded_below_bose(self, z, beta_eps):
        # Strict ordering is testable where the two occupations differ by
        # more than double rounding; beyond beta_eps ~ 36 both collapse to
        # z*exp(-beta_eps) in floats.  The Bose occupation is singular at
        # exactly z = 1, beta_eps = 0 (test_condensation_singularity).
        assume((z, beta_eps) != (1.0, 0.0))
        fermi = occupation_fermi(z, beta_eps)
        assert 0.0 < fermi < 1.0
        assert occupation_bose(z, beta_eps) > fermi


class TestMonoEnergeticState:
    def test_unit_wavelength_momentum(self):
        state = mono_energetic_state(math.sqrt(4.0 * math.pi))
        assert state.thermal_wavelength == pytest.approx(1.0, abs=1e-9)
        assert state.temperature == pytest.approx(2.0 * math.pi, abs=1e-6)
        assert state.beta_eps == 1.0

    def test_dilution_scale_momentum(self):
        state = mono_energetic_state(205.93)
        assert state.thermal_wavelength == pytest.approx(0.0172141, abs=1e-6)
        assert state.thermal_wavelength == pytest.approx(LAMBDA_AT_205_93, rel=1e-12)

    def test_mass_override(self):
        state = mono_energetic_state(1.0, NaturalUnits(m=2.0))
        assert state.temperature == 0.25

    @pytest.mark.parametrize("p0", [0.0, -3.0, math.inf, math.nan])
    def test_domain(self, p0):
        with pytest.raises(DomainError):
            mono_energetic_state(p0)

    def test_non_number_is_domain(self):
        with pytest.raises(DomainError, match=r"^p0 must be a real number, got 'abc'$"):
            mono_energetic_state("abc")

    @given(p0=momenta)
    def test_wavelength_consistency(self, p0):
        # lambda must equal the textbook form sqrt(2*pi*hbar**2/(m*k*T)).
        state = mono_energetic_state(p0)
        textbook = math.sqrt(2.0 * math.pi / state.temperature)
        assert state.thermal_wavelength == pytest.approx(textbook, rel=1e-12)


class TestReducedFugacity:
    def test_identity(self):
        assert reduced_fugacity(1.0, 1.0) == 1.0

    def test_cube_over_volume(self):
        assert reduced_fugacity(2.0, 4.0) == 2.0

    def test_near_critical_packing(self):
        value = reduced_fugacity(0.0172141, 5.1e-6)
        assert value == pytest.approx(1.00007, abs=1e-3)
        assert value == pytest.approx(1.0001906458, abs=1e-9)

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            reduced_fugacity(*args)


class TestBFactor:
    def test_undefined_at_zero(self):
        with pytest.raises(DomainError):
            b_factor(0.0)

    def test_near_condensation_fixed_point(self):
        value = b_factor(0.6986, "bose")
        assert value == pytest.approx(1.4315, abs=0.01)
        assert value == pytest.approx(brute_b(0.6986), abs=1e-10)

    def test_bose_endpoint(self):
        assert b_factor(1.0, "bose") == pytest.approx(2.612375, abs=1e-5)
        assert b_factor(1.0, "bose") == pytest.approx(ZETA_3_2, abs=5e-13)

    def test_fermi_endpoints(self):
        assert b_factor(1.0, "fermi-truncated") == pytest.approx(fermi_f32_truncated(1.0), rel=1e-15)
        assert 0.76 <= b_factor(1.0, "fermi-full") < 1.0

    def test_unknown_branch(self):
        with pytest.raises(DomainError):
            b_factor(0.5, "maxwell")

    @given(z=series_z)
    def test_bose_bounds(self, z):
        assert 1.0 < b_factor(z, "bose") <= ZETA_3_2 + 1e-10

    @given(z=series_z)
    def test_fermi_bounds(self, z):
        for branch in ("fermi-full", "fermi-truncated"):
            assert 0.76 <= b_factor(z, branch) < 1.0


def brute_b(z: float, terms: int = 5000) -> float:
    return sum(z**k / k**1.5 for k in range(1, terms + 1)) / z


class TestSpecificVolume:
    def test_unit_momentum_unit_fugacity(self):
        value = specific_volume_from_constraint(1.0, 1.0)
        assert value == pytest.approx((math.e - 1.0) / (4.0 * math.pi), rel=1e-12)
        assert value == pytest.approx(0.13674, abs=1e-4)

    def test_half_e_fugacity(self):
        value = specific_volume_from_constraint(1.0, math.e / 2.0)
        assert value == pytest.approx(0.0795775, abs=1e-6)
        assert value == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)

    def test_inverse_square_momentum_scaling(self):
        assert specific_volume_from_constraint(2.0, 1.0) == pytest.approx(
            specific_volume_from_constraint(1.0, 1.0) / 4.0, rel=1e-12
        )

    @pytest.mark.parametrize("z", [0.0, -0.5, math.e, 3.0])
    def test_domain(self, z):
        with pytest.raises(DomainError):
            specific_volume_from_constraint(1.0, z)

    @given(p0=momenta, z=open_z)
    def test_constraint_round_trip(self, p0, z):
        v = specific_volume_from_constraint(p0, z)
        count = 4.0 * math.pi * v * p0 * p0 * occupation_bose(z, 1.0)
        assert count == pytest.approx(1.0, rel=1e-12)

    @given(p0=momenta, z=open_z)
    def test_links_to_coupling(self, p0, z):
        # Unsimplified self-consistency: lambda**3/v = K/(e/z - 1).
        state = mono_energetic_state(p0)
        v = specific_volume_from_constraint(p0, z)
        lhs = reduced_fugacity(state.thermal_wavelength, v)
        rhs = coupling_from_momentum(p0) / (math.e / z - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestFugacityPair:
    def test_bose_branch_matches_series_exactly(self):
        pair = FugacityPair.from_branch(0.6, "bose")
        assert pair.z == 0.6
        assert pair.z_prime == bose_g32(0.6)
        assert pair.b == pair.z_prime / 0.6

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            FugacityPair.from_branch(0.0, "bose")

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(DomainError):
            FugacityPair(z=0.5, z_prime=0.9, b=1.0)

    def test_negative_fields_rejected(self):
        with pytest.raises(DomainError):
            FugacityPair(z=-0.1, z_prime=0.1, b=1.0)

    def test_negative_z_prime_rejected(self):
        with pytest.raises(DomainError, match=r"^z_prime must be nonnegative and finite"):
            FugacityPair(z=0.5, z_prime=-0.1, b=1.0)


class TestNormalizationScenario:
    def test_from_totals(self):
        scenario = NormalizationScenario.from_totals(total_count=100.0, volume=5.0)
        assert scenario.specific_volume == 0.05

    def test_consistency_enforced(self):
        with pytest.raises(DomainError):
            NormalizationScenario(total_count=10.0, volume=5.0, specific_volume=1.0)

    def test_positive_fields(self):
        with pytest.raises(DomainError):
            NormalizationScenario.from_totals(total_count=0.0, volume=5.0)

    def test_stores_checked_floats(self):
        scenario = NormalizationScenario(total_count="10", volume=5.0, specific_volume=0.5)
        assert vars(scenario) == {"total_count": 10.0, "volume": 5.0, "specific_volume": 0.5}
        assert isinstance(scenario.total_count, float)


# Inputs inside each function's domain whose result overflows, or underflows
# to 0, in double precision, with the quantity the refusal names.
OUT_OF_RANGE = {
    "cube-overflows": (lambda: reduced_fugacity(1e200, 1.0), "z_prime"),
    "volume-subnormal": (lambda: reduced_fugacity(1.0, 1e-310), "z_prime"),
    "p0-squared-underflows": (lambda: specific_volume_from_constraint(1e-200, 0.5), "specific_volume"),
    "p0-squared-overflows": (lambda: specific_volume_from_constraint(1e200, 0.5), "specific_volume"),
    "z-subnormal": (lambda: specific_volume_from_constraint(1.0, 1e-310), "specific_volume"),
    "hbar-cube-overflows": (
        lambda: specific_volume_from_constraint(1.0, 0.5, NaturalUnits(hbar=1e200)), "specific_volume"
    ),
    "temperature-overflows": (lambda: mono_energetic_state(1e200), "temperature"),
    "temperature-underflows": (lambda: mono_energetic_state(1e-310), "temperature"),
    "mass-unit-underflows": (
        lambda: mono_energetic_state(1.0, NaturalUnits(m=1e-200, k=1e-200)), "temperature"
    ),
    "wavelength-overflows": (
        lambda: mono_energetic_state(1e-10, NaturalUnits(hbar=1e300)), "thermal_wavelength"
    ),
}


@pytest.mark.parametrize("entry", OUT_OF_RANGE)
def test_out_of_range_quantity_is_domain(entry):
    call, name = OUT_OF_RANGE[entry]
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got "):
        call()


def test_finite_results_near_the_range_keep_their_formulas():
    assert reduced_fugacity(1e100, 3.0) == 1e100 ** 3 / 3.0
    assert mono_energetic_state(1e150).temperature == 1e150 * 1e150 / 2.0
    assert specific_volume_from_constraint(1e-150, 0.5) == (math.e / 0.5 - 1.0) / (
        4.0 * math.pi * 1e-150 * 1e-150
    )


def test_units_validation():
    with pytest.raises(DomainError):
        NaturalUnits(hbar=0.0)
    with pytest.raises(DomainError):
        NaturalUnits(m=-1.0)


def test_units_store_checked_floats():
    units = NaturalUnits(hbar="2")
    assert units.hbar == 2.0
    assert isinstance(units.hbar, float)
    assert mono_energetic_state(10.0, units).thermal_wavelength == pytest.approx(
        math.sqrt(4.0 * math.pi) * 2.0 / 10.0, rel=1e-15
    )


def test_state_is_plain_data():
    state = MonoEnergeticState(momentum=2.0, temperature=2.0, thermal_wavelength=1.77, beta_eps=1.0)
    assert state.momentum == 2.0
