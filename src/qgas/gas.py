"""Statistical relations for a mono-energetic ideal quantum gas.

All particles share one momentum magnitude p0.  The temperature is tied
to that momentum by k*T = p0**2 / (2*m), which fixes the reduced energy
beta*eps at exactly 1 and collapses the thermal wavelength to
sqrt(4*pi)*hbar/p0.  Momenta are plain numbers in natural units
(hbar = m = k = 1) unless other unit values are supplied.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_UNITS",
    "FugacityPair",
    "MonoEnergeticState",
    "NaturalUnits",
    "NormalizationScenario",
    "b_factor",
    "mono_energetic_state",
    "occupation_bose",
    "occupation_fermi",
    "reduced_fugacity",
    "specific_volume_from_constraint",
]

import math

from .errors import (
    _FINITE, _NONNEGATIVE, _POSITIVE, _UNIT, DomainError, SingularityError, _Record, _real,
)
from .polylog import DEFAULT_SERIES_PARAMS, SeriesParams, _branch_series


def _derived(name: str, compute) -> float:
    """The quantity ``compute()`` returns; DomainError unless it is positive and finite."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):  # a power overflowed, or a divisor underflowed to 0
        value = math.inf
    return _real(value, name, _POSITIVE)


class NaturalUnits(_Record):
    """Unit system carried through the dimensional formulas."""

    def __init__(self, hbar: float = 1.0, m: float = 1.0, k: float = 1.0):
        hbar, m = _real(hbar, "hbar", _POSITIVE), _real(m, "m", _POSITIVE)
        vars(self).update(hbar=hbar, m=m, k=_real(k, "k", _POSITIVE))


DEFAULT_UNITS = NaturalUnits()


class MonoEnergeticState(_Record):
    """Derived thermodynamic quantities for one shared momentum."""

    def __init__(
        self, momentum: float, temperature: float, thermal_wavelength: float, beta_eps: float
    ):
        vars(self).update(
            momentum=momentum, temperature=temperature, thermal_wavelength=thermal_wavelength,
            beta_eps=beta_eps,
        )


class FugacityPair(_Record):
    """Fugacity z together with the reduced fugacity z' and their ratio b = z'/z."""

    def __init__(self, z: float, z_prime: float, b: float):
        z, z_prime = _real(z, "z", _NONNEGATIVE), _real(z_prime, "z_prime", _NONNEGATIVE)
        b = _real(b, "b", _POSITIVE)
        if z > 0.0 and abs(z_prime - z * b) > 1e-12 * max(1.0, z_prime):
            raise DomainError(f"inconsistent pair: z_prime={z_prime!r} != z*b={z * b!r}")
        vars(self).update(z=z, z_prime=z_prime, b=b)

    @classmethod
    def from_branch(
        cls, z: float, branch: str, params: SeriesParams = DEFAULT_SERIES_PARAMS
    ) -> "FugacityPair":
        """Build the pair by evaluating the branch series at z (z > 0)."""
        z = _real(z, "z")
        if z == 0.0:
            raise DomainError("b is undefined at z = 0 (the z -> 0 limit is 1)")
        z_prime = _branch_series(z, branch, params)
        return cls(z=z, z_prime=z_prime, b=z_prime / z)


class NormalizationScenario(_Record):
    """Particle count, total volume and per-particle volume, kept consistent."""

    def __init__(self, total_count: float, volume: float, specific_volume: float):
        total_count = _real(total_count, "total_count", _POSITIVE)
        volume = _real(volume, "volume", _POSITIVE)
        specific_volume = _real(specific_volume, "specific_volume", _POSITIVE)
        if abs(specific_volume * total_count - volume) > 1e-12 * volume:
            raise DomainError(
                "inconsistent scenario: specific_volume * total_count must equal volume"
            )
        vars(self).update(total_count=total_count, volume=volume, specific_volume=specific_volume)

    @classmethod
    def from_totals(cls, total_count: float, volume: float) -> "NormalizationScenario":
        total_count = _real(total_count, "total_count", _POSITIVE)
        volume = _real(volume, "volume", _POSITIVE)
        return cls(total_count=total_count, volume=volume, specific_volume=volume / total_count)


def occupation_bose(z: float, beta_eps: float) -> float:
    """Bose occupation 1 / (exp(beta_eps)/z - 1).

    Requires 0 <= z <= 1 and beta_eps >= 0.  The point z = 1, beta_eps = 0
    is a genuine singularity (macroscopic ground-state occupation) and
    raises rather than returning an infinity, as do the points next to it
    where the occupation exceeds the largest double (z = 1 and
    beta_eps <= 5.6e-309).
    """
    z = _real(z, "z", _UNIT)
    beta_eps = _real(beta_eps, "beta_eps", _NONNEGATIVE)
    if z == 0.0:
        return 0.0
    # 1/(exp(beta_eps)/z - 1) = 1/expm1(beta_eps - ln z); expm1 keeps full
    # precision near the singularity, where 1 - z*exp(-beta_eps) cancels.
    w = beta_eps - math.log(z)
    if w > 700.0:  # expm1 would overflow; occupation is exp(-w) to double precision
        return math.exp(-w)
    denom = math.expm1(w)
    if denom <= 0.0 or 1.0 / denom == math.inf:
        raise SingularityError(
            f"Bose occupation diverges at z={z!r}, beta_eps={beta_eps!r} "
            "(condensation singularity at z=1, beta_eps=0)"
        )
    return 1.0 / denom


def occupation_fermi(z: float, beta_eps: float) -> float:
    """Fermi occupation 1 / (exp(beta_eps)/z + 1), always in [0, 1).

    z may exceed 1 on this branch and beta_eps may be negative.
    """
    z = _real(z, "z", _NONNEGATIVE)
    beta_eps = _real(beta_eps, "beta_eps", _FINITE)
    if z == 0.0:
        return 0.0
    if beta_eps >= 0.0:
        q = z * math.exp(-beta_eps)
        return q / (1.0 + q)
    r = math.exp(beta_eps) / z  # beta_eps < 0: exp underflows harmlessly
    return 1.0 / (r + 1.0)


def mono_energetic_state(p0: float, units: NaturalUnits = DEFAULT_UNITS) -> MonoEnergeticState:
    """Temperature, thermal wavelength and reduced energy for momentum p0.

    kT = p0**2/(2m) and lambda = sqrt(4*pi)*hbar/p0; beta*eps is exactly 1
    by construction.
    """
    p0 = _real(p0, "p0", _POSITIVE)
    temperature = _derived("temperature", lambda: p0 * p0 / (2.0 * units.m * units.k))
    wavelength = _derived("thermal_wavelength", lambda: math.sqrt(4.0 * math.pi) * units.hbar / p0)
    return MonoEnergeticState(
        momentum=p0,
        temperature=temperature,
        thermal_wavelength=wavelength,
        beta_eps=1.0,
    )


def reduced_fugacity(thermal_wavelength: float, specific_volume: float) -> float:
    """Degeneracy ratio z' = lambda**3 / v."""
    thermal_wavelength = _real(thermal_wavelength, "thermal_wavelength", _POSITIVE)
    specific_volume = _real(specific_volume, "specific_volume", _POSITIVE)
    return _derived("z_prime", lambda: thermal_wavelength ** 3 / specific_volume)


def b_factor(z: float, branch: str = "bose", params: SeriesParams = DEFAULT_SERIES_PARAMS) -> float:
    """Ratio b = z'/z of reduced fugacity to fugacity on the given branch.

    On the Bose branch b runs from 1 (z -> 0) up to ZETA_3_2 at z = 1; on
    the Fermi branches it runs from 1 down to the branch value at z = 1.
    Undefined at z = 0 (the limit is 1 on every branch).
    """
    return FugacityPair.from_branch(z, branch, params).b


def specific_volume_from_constraint(
    p0: float, z: float, units: NaturalUnits = DEFAULT_UNITS
) -> float:
    """Per-particle volume that normalizes the single-momentum shell.

    Inverts 1 = (4*pi*v*p0**2/hbar**3) * occupation at beta_eps = 1, giving
    v = (e/z - 1) * hbar**3 / (4*pi*p0**2).  Valid for 0 < z < e, where the
    occupation is positive.
    """
    p0 = _real(p0, "p0", _POSITIVE)
    z = _real(z, "z", _POSITIVE)
    factor = math.e / z - 1.0
    if factor <= 0.0:
        raise DomainError(f"z must be below e for a positive occupation, got {z!r}")
    return _derived("specific_volume", lambda: factor * units.hbar ** 3 / (4.0 * math.pi * p0 * p0))
