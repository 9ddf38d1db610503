"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed gives the same
inputs, and the program under test sees only these inputs.  Each workload is
built from fixed strata with seeded values inside them, so that a run's
composition (and hence its medians) does not swing from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# --- sweep_cold -------------------------------------------------------------

COLD_POINTS = 250
# Each cycle runs one sweep per window, in seeded order.  "broad" solves a root
# at ~23% of its points, "mid" at ~41%, "dense" at ~90%; the windows starting
# below p0 ~ 124.7 (the upper end of the Bose window) reach the near-1 fugacity
# band, where cold evaluations are slowest.
COLD_WINDOWS = (("broad", 50.0, 400.0), ("mid", 100.0, 300.0), ("dense", 120.0, 210.0))
COLD_JITTER = 0.02  # relative jitter of each window end


@dataclass(frozen=True)
class ColdSweep:
    window: str
    p_min: float
    p_max: float
    steps: int
    series: str


def cold_cycle(seed: int, cycle: int) -> list[ColdSweep]:
    """One cycle of cold sweeps: every window once, series alternating."""
    rng = random.Random(f"sweep_cold:{seed}:{cycle}")
    sweeps = []
    for j, (window, lo, hi) in enumerate(COLD_WINDOWS):
        p_min = lo * (1.0 + COLD_JITTER * rng.uniform(-1.0, 1.0))
        p_max = hi * (1.0 + COLD_JITTER * rng.uniform(-1.0, 1.0))
        series = ("full", "truncated")[(cycle * len(COLD_WINDOWS) + j) % 2]
        sweeps.append(ColdSweep(window, p_min, p_max, COLD_POINTS, series))
    rng.shuffle(sweeps)
    return sweeps


# --- sweep_zoom -------------------------------------------------------------

# Twelve points per pass narrow the bracket elevenfold, so a session runs eight
# passes whose cost falls smoothly with depth (deeper grid points share more
# bisection midpoints); the median pass sits inside that continuum rather than
# on a gap between pass types.
ZOOM_STEPS = 12
# A session stops before the next grid spacing would fall below this share of
# p0, where neighbouring grid points stop being distinguishable classifications.
ZOOM_MIN_SPACING = 1e-9


def zoom_start(seed: int, session: int) -> tuple[float, float]:
    """Coarse starting range of one zoom session, around [150, 250]."""
    rng = random.Random(f"sweep_zoom:{seed}:{session}")
    return 150.0 + rng.uniform(-10.0, 10.0), 250.0 + rng.uniform(-10.0, 10.0)


# --- cli_mix ----------------------------------------------------------------

# Requests per kind in every ten; a block of 10*k requests holds k times each.
# Sweeps are a fifth of the mix so that the 90th percentile falls inside the
# sweep population rather than on the boundary between two populations.
CLI_MIX = (
    ("classify", 3),
    ("polylog", 2),
    ("thresholds", 1),
    ("occupation", 1),
    ("sweep", 2),
    ("bad", 1),
)
CLI_BLOCK = 100

EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_NUMERIC = 0, 1, 2, 3


@dataclass(frozen=True)
class Request:
    kind: str  # subcommand, or "bad" for an input with a documented failure
    argv: tuple[str, ...]
    expect: int  # documented exit code
    params: tuple  # what the checker needs, as (name, value) pairs

    def param(self, name: str):
        return dict(self.params)[name]


def _strat(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    """Value in stratum i of n equal slices of [lo, hi]."""
    return lo + (hi - lo) * (i + rng.random()) / n


def _classify(rng, i, n):
    p0 = _strat(rng, i, n, 50.0, 400.0)
    mode = ("paper", "self", "both")[i % 3]
    fmt = ("json", "csv")[(i // 3) % 2]
    argv = ("classify", "--p0", repr(p0), "--mode", mode, "--format", fmt)
    return Request("classify", argv, EXIT_OK, (("p0", p0), ("mode", mode), ("format", fmt)))


_Z_BANDS = ("zero", "one", "small", "mid", "near1")


def _polylog(rng, i, n):
    band = _Z_BANDS[i % len(_Z_BANDS)]
    z = {
        "zero": lambda: 0.0,
        "one": lambda: 1.0,
        "small": lambda: rng.uniform(1e-3, 0.5),
        "mid": lambda: rng.uniform(0.5, 0.99),
        "near1": lambda: 1.0 - 10.0 ** rng.uniform(-8.0, -2.0),
    }[band]()
    kind = ("bose", "fermi", "fermi3")[(i // len(_Z_BANDS)) % 3]
    fmt = ("text", "json", "csv")[i % 3]
    argv = ("polylog", "--kind", kind, "--z", repr(z), "--format", fmt)
    return Request("polylog", argv, EXIT_OK, (("kind", kind), ("z", z), ("format", fmt)))


def _thresholds(rng, i, n):
    fmt = ("json", "csv")[(i // 2) % 2]
    if i % 2 == 0:
        return Request("thresholds", ("thresholds", "--format", fmt), EXIT_OK,
                       (("b", None), ("format", fmt)))
    b = rng.uniform(0.2, 3.0)
    argv = ("thresholds", "--b", repr(b), "--format", fmt)
    return Request("thresholds", argv, EXIT_OK, (("b", b), ("format", fmt)))


def _occupation(rng, i, n):
    branch = ("bose", "fermi")[i % 2]
    z = rng.uniform(0.05, 0.99)
    lo = rng.uniform(0.0, 1.0)
    hi = lo + rng.uniform(0.5, 3.0)
    steps = rng.randint(2, 8)
    fmt = ("text", "json", "csv")[i % 3]
    argv = ("occupation", "--z", repr(z), "--branch", branch, "--beta-eps-min", repr(lo),
            "--beta-eps-max", repr(hi), "--steps", str(steps), "--format", fmt)
    params = (("z", z), ("branch", branch), ("lo", lo), ("hi", hi), ("steps", steps),
              ("format", fmt))
    return Request("occupation", argv, EXIT_OK, params)


def _sweep(rng, i, n):
    # Mostly inside the Bose window (p0 ~ 124.7 to 205.9), so that every sweep
    # request solves roots and stands clear of the import-bound requests, but
    # above the near-1 band, so that one request stays well under a second.
    steps = int(_strat(rng, i, n, 200.0, 1000.0))
    p_min = rng.uniform(140.0, 180.0)
    p_max = p_min + rng.uniform(40.0, 80.0)
    fmt = ("csv", "json")[i % 2]
    argv = ("sweep", "--p-min", repr(p_min), "--p-max", repr(p_max), "--steps", str(steps),
            "--mode", "both", "--format", fmt)
    params = (("p_min", p_min), ("p_max", p_max), ("steps", steps), ("mode", "both"),
              ("format", fmt))
    return Request("sweep", argv, EXIT_OK, params)


def _bad(rng, i, n):
    """Inputs with a documented failure: each must exit with its own code."""
    case = i % 10
    u = rng.uniform(0.01, 0.99)
    argv, expect = {
        0: (("classify", "--p0", "nan"), EXIT_DOMAIN),
        1: (("classify", "--p0", "inf"), EXIT_DOMAIN),
        2: (("classify", f"--p0={-400.0 * u!r}"), EXIT_DOMAIN),
        3: (("polylog", "--kind", "bose", "--z", "nan"), EXIT_DOMAIN),
        4: (("polylog", "--kind", "fermi", "--z", repr(1.0 + u)), EXIT_DOMAIN),
        5: (("polylog", "--kind", "bose", f"--z={-u!r}"), EXIT_DOMAIN),
        6: (("polylog", "--kind", "bose", "--z", "0.95", "--max-terms", "10"), EXIT_NUMERIC),
        # The z = 1, beta_eps = 0 singularity of the Bose occupation.
        7: (("occupation", "--z", "1", "--branch", "bose", "--beta-eps-min", "0",
             "--beta-eps-max", repr(1.0 + u), "--steps", "3"), EXIT_DOMAIN),
        8: (("sweep", f"--p-min={-100.0 * u!r}", "--p-max", "300", "--steps", "5"), EXIT_DOMAIN),
        9: (("classify", "--p0", "100", "--mode", "guess"), EXIT_USAGE),
    }[case]
    return Request("bad", argv, expect, (("case", case),))


_MAKERS = {
    "classify": _classify,
    "polylog": _polylog,
    "thresholds": _thresholds,
    "occupation": _occupation,
    "sweep": _sweep,
    "bad": _bad,
}


def cli_block(seed: int, block: int, size: int = CLI_BLOCK) -> list[Request]:
    """A shuffled block of ``size`` requests (a multiple of ten) in the fixed mix."""
    if size % 10:
        raise ValueError(f"block size must be a multiple of ten, got {size}")
    rng = random.Random(f"cli_mix:{seed}:{block}:{size}")
    requests = []
    for kind, per_ten in CLI_MIX:
        n = per_ten * size // 10
        requests.extend(_MAKERS[kind](rng, i, n) for i in range(n))
    rng.shuffle(requests)
    return requests
