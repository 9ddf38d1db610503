"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single verdict line (visible with ``pytest -s``); the
``pytest -v`` listing itself is the per-criterion pass/fail record.  Two
sub-parts of criterion 6 are strict expected failures: the Bose-side
constraint curve H(z) = e*g(z)/z - g(z) is provably non-monotone near
z = 0 (see the notes in ``qgas.regime``), which breaks the round-trip at
small grid fugacities and the grid monotonicity claim.  The Fermi-side
halves of the same criterion pass.
"""

import math
import time

import mpmath
import pytest

from qgas.gas import b_factor, mono_energetic_state, occupation_bose
from qgas.polylog import (
    ZETA_3_2,
    bose_g32,
    bose_g32_quadrature,
    clear_series_cache,
    fermi_f32_full,
)
from qgas.regime import (
    COUPLING_CONSTANT,
    FLAG_OVERLAPS_FERMIONIC,
    RegimeLabel,
    bose_constraint_lhs,
    classify_paper,
    condensation_fixed_point,
    fermi_constraint_lhs,
    solve_bose,
    solve_fermi,
    threshold_condensation,
    threshold_dilution,
)
from qgas.sweep import SweepSpec, emit_csv, run_sweep

TENTHS = [k / 10.0 for k in range(1, 10)]


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion}{suffix}"


def best_of(runs: int, func):
    best = math.inf
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_criterion_1_fixed_point():
    def solve_cold():
        clear_series_cache()
        return condensation_fixed_point()

    elapsed, pair = best_of(5, solve_cold)
    ok = (
        abs(pair.z - 0.699) <= 0.005
        and abs(pair.b - 1.431) <= 0.01
        and elapsed < 1e-3
    )
    verdict("1 fixed point g(z) = 1", ok, f"z={pair.z:.6f} b={pair.b:.6f} t={elapsed*1e3:.3f}ms")


def test_criterion_2_b_bounds():
    # numpy.linspace(0.001, 1.0, 1000), point for point: start plus i steps,
    # with the endpoint set exactly.
    step = (1.0 - 0.001) / 999
    grid = [0.001 + i * step for i in range(999)] + [1.0]
    values = [b_factor(z, "bose") for z in grid]
    peak = max(values)
    ok = (
        abs(peak - 2.6124) <= 0.001
        and peak == values[-1]  # attained at z = 1
        and min(values) > 1.0
    )
    verdict("2 b bounds 1 < b <= 2.6124", ok, f"max={peak:.6f} min={min(values):.6f}")


def test_criterion_3_threshold_constants():
    fixed = condensation_fixed_point()
    momentum = threshold_condensation(fixed.b)
    ok = (
        abs(COUPLING_CONSTANT - 559.790) <= 0.001
        and abs(threshold_dilution(1.0) - 205.93) <= 0.01
        and abs(threshold_condensation(1.4) - 199.53) <= 0.01
        and abs(momentum - 193.6) <= 0.5
    )
    verdict(
        "3 threshold constants", ok,
        f"C={COUPLING_CONSTANT:.4f} P_dil={threshold_dilution(1.0):.4f} "
        f"P_cond={threshold_condensation(1.4):.4f} P_self={momentum:.4f}",
    )


def test_criterion_4_regime_triple():
    expectations = [
        (205.93, RegimeLabel.DILUTION, False),
        (199.53, RegimeLabel.CONDENSATION, True),
        (100.0, RegimeLabel.ANOMALOUS_FERMIONIC, False),
    ]
    ok = True
    worst = 0.0
    for p0, label, overlap in expectations:
        elapsed, report = best_of(5, lambda p0=p0: classify_paper(p0))
        worst = max(worst, elapsed)
        ok = ok and report.paper_label is label
        ok = ok and (FLAG_OVERLAPS_FERMIONIC in report.flags) == overlap
        ok = ok and elapsed < 1e-3
    verdict("4 regime triple", ok, f"slowest={worst*1e6:.1f}us")


def test_criterion_5_oracle_equivalence():
    quad_gap = max(abs(bose_g32(z) - bose_g32_quadrature(z)) for z in TENTHS)
    dup_gap = max(
        abs(fermi_f32_full(z) - (bose_g32(z) - 2.0**-0.5 * bose_g32(z * z)))
        for z in TENTHS
    )
    ok = quad_gap <= 1e-8 and dup_gap <= 1e-10
    verdict("5 oracle equivalence", ok, f"quad={quad_gap:.2e} dup={dup_gap:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "H dips below its z->0 limit e on (0, ~0.19) because e < 2**1.5 makes "
        "H'(0+) negative; the couplings H(z) for grid points z in "
        "{0.05, 0.10, 0.15} therefore lie below e, where the bracketing solver "
        "correctly reports no root instead of recovering z"
    ),
)
def test_criterion_6_bose_round_trip():
    grid = [k * 0.05 for k in range(1, 21)]
    worst = 0.0
    ok = True
    for z in grid:
        outcome = solve_bose(bose_constraint_lhs(z))
        if not outcome.found:
            ok = False
            break
        worst = max(worst, abs(outcome.z - z))
    ok = ok and worst <= 1e-8
    verdict("6a solve_bose round trip", ok, f"worst={worst:.2e}")


def test_criterion_6_fermi_round_trip():
    grid = [k * 0.05 for k in range(1, 21)]
    worst = 0.0
    for z in grid:
        outcome = solve_fermi(fermi_constraint_lhs(z))
        assert outcome.found
        worst = max(worst, abs(outcome.z - z))
    verdict("6b solve_fermi round trip", worst <= 1e-8, f"worst={worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "H is strictly decreasing on roughly (0, 0.1): H(0.005) > H(0.010) > "
        "... down to the minimum near z = 0.1002, about 2.04e-3 below e, so "
        "pairwise increase fails on the fine grid"
    ),
)
def test_criterion_6_H_monotone():
    grid = [k * 0.005 for k in range(1, 201)]
    values = [bose_constraint_lhs(z) for z in grid]
    violations = sum(a >= b for a, b in zip(values, values[1:]))
    verdict("6c H strictly increasing", violations == 0, f"violating pairs={violations}")


def test_criterion_6_phi_monotone():
    grid = [k * 0.005 for k in range(1, 201)]
    values = [fermi_constraint_lhs(z) for z in grid]
    violations = sum(a >= b for a, b in zip(values, values[1:]))
    verdict("6d Phi strictly increasing", violations == 0, f"violating pairs={violations}")


def test_criterion_7_normalization_oracle():
    # Smear the momentum shell with a normalized Gaussian and integrate
    # numerically; the count must approach the closed form
    # 4*pi*V*p0**2*<n_p0>/hbar**3 as the width shrinks.
    p0 = 193.634
    z = 0.6986
    state = mono_energetic_state(p0)
    exact = 4.0 * math.pi * p0 * p0 * occupation_bose(z, state.beta_eps)

    def smeared(sigma: float) -> float:
        def integrand(p: float) -> float:
            weight = math.exp(-0.5 * ((p - p0) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
            return 4.0 * math.pi * p * p * weight * occupation_bose(z, (p / p0) ** 2)

        lo = max(0.0, p0 - 10.0 * sigma)
        hi = p0 + 10.0 * sigma
        # Split at p0: mpmath's tanh-sinh nodes crowd toward the ends of each
        # piece, so the narrow peak gets them.
        return float(mpmath.quad(integrand, [lo, p0, hi]))

    errors = [abs(smeared(p0 / frac) - exact) for frac in (10.0, 100.0, 1000.0)]
    monotone = errors[0] > errors[1] > errors[2]
    tight = errors[2] <= 1e-3 * exact
    verdict(
        "7 normalization oracle", monotone and tight,
        f"rel errors={[f'{e/exact:.2e}' for e in errors]}",
    )


def test_criterion_8_sweep_determinism_and_speed():
    spec = SweepSpec(p_min=50.0, p_max=400.0, steps=1000, mode="both")

    clear_series_cache()
    start = time.perf_counter()
    first = emit_csv(run_sweep(spec))
    elapsed = time.perf_counter() - start

    clear_series_cache()
    second = emit_csv(run_sweep(spec))

    ok = elapsed < 1.0 and first == second and len(first.splitlines()) == 1001
    verdict("8 sweep determinism and speed", ok, f"t={elapsed:.3f}s identical={first == second}")
