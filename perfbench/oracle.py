"""Independent output checks.

Nothing here imports qgas.  Reference values come from mpmath (the order-3/2
polylogarithm, zeta and root finding) and from the formulas the README
documents, so a check fails when the program is wrong, not when it merely
disagrees with itself.  Every check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from types import SimpleNamespace

import mpmath

DPS = 25  # working precision of every reference value

# Stated tolerances.
REL_TOL_POLYLOG = 1e-9  # series value against mpmath, relative ...
ABS_TOL_POLYLOG = 1e-11  # ... plus this absolute floor (the series stops on an absolute term size)
REL_TOL_ROOT = 1e-8  # the true root lies within z*(1 +- REL_TOL_ROOT) of the reported one
REL_TOL_FORMULA = 1e-12  # closed-form quantities (K, thresholds, occupations)
BOUNDARY_MARGIN = 1e-9  # relative band around a label boundary where either side is accepted
PAPER_WINDOW = 0.01  # default --window
COLUMNS = ("p0", "K", "paper_label", "selfconsistent_label", "branch", "z", "z_prime", "b", "flags")

with mpmath.workdps(DPS):
    COUPLING = float(32 * mpmath.pi ** 2.5)
    E = float(mpmath.e)
    H_AT_ONE = float((mpmath.e - 1) * mpmath.zeta(1.5))
    P_DILUTION = float(32 * mpmath.pi ** 2.5 / mpmath.e)
    P_CONDENSATION = float(32 * mpmath.pi ** 2.5 / (mpmath.e * mpmath.mpf("1.4") - 1))
    # Self-consistent condensation onset: g(z) = 1, so b = g(z)/z = 1/z there.
    _Z_FIXED = mpmath.findroot(lambda z: mpmath.polylog(1.5, z) - 1, mpmath.mpf("0.7"))
    Z_FIXED = float(_Z_FIXED)
    P_SELFCONSISTENT = float(32 * mpmath.pi ** 2.5 / (mpmath.e / _Z_FIXED - 1))


def _li(x: mpmath.mpf) -> mpmath.mpf:
    """Li(3/2, x) for real x <= 1; near |x| = 1 mpmath may return an mpc with zero imaginary part."""
    return mpmath.re(mpmath.polylog(1.5, x))


def polylog_ref(kind: str, z: float) -> float:
    """Reference for ``qgas polylog --kind``: Li(3/2, z), -Li(3/2, -z) or the 3-term sum."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(z)
        if kind == "bose":
            return float(_li(x))
        if kind == "fermi":
            return float(-_li(-x))
        if kind == "fermi3":
            return float(x - x ** 2 / mpmath.mpf(2) ** 1.5 + x ** 3 / mpmath.mpf(3) ** 1.5)
    raise ValueError(f"unknown kind {kind!r}")


def rel_err(value: float, ref: float) -> float:
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / abs(ref)


def polylog_problems(kind: str, z: float, value: float) -> list[str]:
    ref = polylog_ref(kind, z)
    if not math.isfinite(value) or abs(value - ref) > REL_TOL_POLYLOG * abs(ref) + ABS_TOL_POLYLOG:
        return [f"polylog {kind}({z!r}) = {value!r}, reference {ref!r}"]
    return []


def _h(z: mpmath.mpf) -> mpmath.mpf:
    g = _li(z)
    return mpmath.e * g / z - g


def root_problems(row: dict) -> list[str]:
    """The reported Bose root z solves H(z) = K, and z' = g(z), b = z'/z."""
    z, coupling = row["z"], row["K"]
    problems = []
    with mpmath.workdps(DPS):
        zm, k = mpmath.mpf(z), mpmath.mpf(coupling)
        lo = zm * (1 - REL_TOL_ROOT)
        hi = min(zm * (1 + REL_TOL_ROOT), mpmath.mpf(1))
        # H increases through every root with K > e, so a sign change brackets it.
        if not (_h(lo) - k <= 0 <= _h(hi) - k):
            problems.append(f"p0={row['p0']!r}: no root of H(z)=K within {REL_TOL_ROOT} of z={z!r}")
        g = float(_li(zm))
    if abs(row["z_prime"] - g) > REL_TOL_POLYLOG * g + ABS_TOL_POLYLOG:
        problems.append(f"p0={row['p0']!r}: z_prime={row['z_prime']!r}, reference g(z)={g!r}")
    if rel_err(row["b"], row["z_prime"] / z) > REL_TOL_FORMULA:
        problems.append(f"p0={row['p0']!r}: b={row['b']!r} is not z_prime/z")
    return problems


def _near(x: float, boundary: float) -> bool:
    return abs(x - boundary) <= BOUNDARY_MARGIN * abs(boundary)


def paper_label(p0: float, window: float = PAPER_WINDOW) -> str | None:
    """Nominal-window label, or None when p0 sits on a window edge."""
    for edge in (P_CONDENSATION * (1 - window), P_CONDENSATION * (1 + window),
                 P_DILUTION * (1 - window), P_DILUTION * (1 + window), P_DILUTION):
        if _near(p0, edge):
            return None
    if abs(p0 - P_CONDENSATION) <= window * P_CONDENSATION:
        return "Condensation"
    if abs(p0 - P_DILUTION) <= window * P_DILUTION:
        return "Dilution"
    return "AnomalousFermionic" if p0 < P_DILUTION else "AboveDilution"


def label_problems(row: dict, mode: str) -> list[str]:
    """Labels consistent with the documented rules and with z_prime."""
    p0, coupling = row["p0"], row["K"]
    where = f"p0={p0!r}"
    problems = []
    if rel_err(coupling, COUPLING / p0) > REL_TOL_FORMULA:
        problems.append(f"{where}: K={coupling!r}, expected {COUPLING / p0!r}")
    paper, selfc = row["paper_label"], row["selfconsistent_label"]
    if mode == "self":
        if paper is not None:
            problems.append(f"{where}: paper label {paper!r} in self mode")
    else:
        expected = paper_label(p0)
        if expected is not None and paper != expected:
            problems.append(f"{where}: paper label {paper!r}, expected {expected!r}")
    if mode == "paper":
        if selfc is not None or row["z"] is not None:
            problems.append(f"{where}: self-consistent fields in paper mode")
        return problems
    if row["z"] is not None:
        if row["branch"] != "bose" or row["z_prime"] is None:
            problems.append(f"{where}: root without a bose branch and z_prime")
        elif selfc != ("Condensation" if row["z_prime"] >= 1.0 else "NormalBose"):
            problems.append(f"{where}: label {selfc!r} with z_prime={row['z_prime']!r}")
        if coupling < E * (1 - BOUNDARY_MARGIN) or coupling > H_AT_ONE * (1 + BOUNDARY_MARGIN):
            problems.append(f"{where}: root reported outside the Bose window (K={coupling!r})")
    elif _near(coupling, E) or _near(coupling, H_AT_ONE):
        pass
    elif coupling < E:
        if selfc != "AboveDilution" or "no_bose_root" not in row["flags"]:
            problems.append(f"{where}: K < e needs AboveDilution/no_bose_root, got {selfc!r}")
    elif coupling > H_AT_ONE:
        if selfc != "OutOfModelRange" or "no_fermi_root" not in row["flags"]:
            problems.append(f"{where}: K > H(1) needs OutOfModelRange/no_fermi_root, got {selfc!r}")
    else:
        problems.append(f"{where}: no root reported inside the Bose window (K={coupling!r})")
    return problems


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for cells in reader:
        row = {name: _cell(cell) for name, cell in zip(COLUMNS, cells)}
        row["flags"] = cells[-1].split("|") if cells[-1] else []
        rows.append(row)
    return rows


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def nan_problems(csv_text: str | None, json_text: str | None) -> list[str]:
    """No NaN or infinite cell in either format."""
    problems = []
    if csv_text is not None:
        for line in csv_text.splitlines()[1:]:
            for cell in line.split(","):
                if cell.lower() in ("nan", "inf", "-inf", "infinity", "-infinity"):
                    problems.append(f"non-finite CSV cell in {line!r}")
                    break
    if json_text is not None:
        try:
            parse_json(json_text)
        except ValueError as exc:
            problems.append(str(exc))
    return problems


def grid_problems(rows: list[dict], p_min: float, p_max: float, steps: int) -> list[str]:
    if len(rows) != steps:
        return [f"{len(rows)} rows for {steps} steps"]
    span = p_max - p_min
    for i, row in enumerate(rows):
        expected = p_max if i == steps - 1 else p_min + span * i / (steps - 1)
        if rel_err(row["p0"], expected) > REL_TOL_FORMULA:
            return [f"row {i}: p0={row['p0']!r}, grid point {expected!r}"]
    return []


def sweep_problems(rows: list[dict], spec, rng: random.Random, roots: int) -> list[str]:
    """Grid, labels of every row, and mpmath roots for ``roots`` sampled root rows.

    ``spec`` needs p_min, p_max, steps and mode attributes.
    """
    problems = grid_problems(rows, spec.p_min, spec.p_max, spec.steps)
    for row in rows:
        problems += label_problems(row, spec.mode)
    with_root = [row for row in rows if row["z"] is not None]
    for row in rng.sample(with_root, min(roots, len(with_root))):
        problems += root_problems(row)
    return problems


def same_rows(csv_rows: list[dict], json_rows: list[dict]) -> list[str]:
    """The CSV and JSON renderings carry the same values."""
    if len(csv_rows) != len(json_rows):
        return [f"CSV has {len(csv_rows)} rows, JSON {len(json_rows)}"]
    for a, b in zip(csv_rows, json_rows):
        if a != b:
            return [f"CSV row {a!r} differs from JSON row {b!r}"]
    return []


# --- CLI responses ----------------------------------------------------------


def _scalar_output(text: str, fmt: str, key: str) -> float:
    if fmt == "json":
        return float(parse_json(text)[key])
    if fmt == "csv":
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        return float(lines[1].split(",")[header.index(key)])
    return float(text)


def _table(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return parse_json(text)
    reader = csv.DictReader(io.StringIO(text))
    return [{k: _cell(v) for k, v in row.items()} for row in reader]


def _thresholds_problems(req, text: str) -> list[str]:
    rows = _table(text, req.param("format"))
    b = req.param("b")
    if b is None:
        expected = [("dilution", P_DILUTION), ("condensation", P_CONDENSATION),
                    ("condensation-selfconsistent", P_SELFCONSISTENT)]
    else:
        expected = [("dilution", COUPLING / (E * b)),
                    ("condensation", COUPLING / (E * b - 1) if E * b > 1 else None)]
    if [row["name"] for row in rows] != [name for name, _ in expected]:
        return [f"threshold rows {rows!r}"]
    problems = []
    for row, (name, p0) in zip(rows, expected):
        got = row["p0"]
        tol = REL_TOL_POLYLOG if name == "condensation-selfconsistent" else REL_TOL_FORMULA
        if (got is None) != (p0 is None) or (p0 is not None and rel_err(got, p0) > tol):
            problems.append(f"threshold {name}: p0={got!r}, expected {p0!r}")
    if b is None and rel_err(rows[2]["z"], Z_FIXED) > REL_TOL_POLYLOG:
        problems.append(f"fixed point z={rows[2]['z']!r}, expected {Z_FIXED!r}")
    return problems


def _occupation_problems(req, text: str) -> list[str]:
    fmt, steps = req.param("format"), req.param("steps")
    if fmt == "text":
        pairs = [tuple(float(c) for c in line.split()) for line in text.strip().split("\n")]
    elif fmt == "json":
        pairs = [(r["beta_eps"], r["occupation"]) for r in parse_json(text)]
    else:
        pairs = [(r["beta_eps"], r["occupation"]) for r in _table(text, "csv")]
    if len(pairs) != steps:
        return [f"{len(pairs)} occupation rows for {steps} steps"]
    z, lo, hi = req.param("z"), req.param("lo"), req.param("hi")
    sign = -1 if req.param("branch") == "bose" else 1
    problems = []
    for i, (x, n) in enumerate(pairs):
        grid = hi if i == steps - 1 else lo + (hi - lo) * i / (steps - 1)
        with mpmath.workdps(DPS):
            ref = float(1 / (mpmath.exp(grid) / z + sign))
        if rel_err(x, grid) > REL_TOL_FORMULA or rel_err(n, ref) > REL_TOL_FORMULA:
            problems.append(f"occupation row {i}: ({x!r}, {n!r}), expected ({grid!r}, {ref!r})")
    return problems


def _classify_problems(req, text: str) -> list[str]:
    row = parse_json(text) if req.param("format") == "json" else parse_csv(text)[0]
    problems = []
    if row["p0"] != req.param("p0"):
        problems.append(f"classify echoed p0={row['p0']!r} for {req.param('p0')!r}")
    problems += label_problems(row, req.param("mode"))
    if row["z"] is not None:
        problems += root_problems(row)
    return problems


def _sweep_request_problems(req, text: str, rng: random.Random) -> list[str]:
    fmt = req.param("format")
    problems = nan_problems(text if fmt == "csv" else None, text if fmt == "json" else None)
    if problems:
        return problems
    rows = parse_csv(text) if fmt == "csv" else parse_json(text)
    spec = SimpleNamespace(**{k: req.param(k) for k in ("p_min", "p_max", "steps", "mode")})
    return sweep_problems(rows, spec, rng, roots=2)


def cli_problems(req, code: int | None, out: str, err: str, rng: random.Random) -> list[str]:
    """Check one CLI response against the request's documented outcome.

    ``code`` is None when the request timed out, which always fails.
    """
    if code is None:
        return [f"timed out: {' '.join(req.argv)}"]
    if code != req.expect:
        return [f"exit {code}, documented {req.expect}: {' '.join(req.argv)}"]
    if req.expect != 0:
        return [] if out == "" and err != "" else [f"failure output on stdout: {req.argv}"]
    try:
        if req.kind == "polylog":
            value = _scalar_output(out, req.param("format"), "value")
            return polylog_problems(req.param("kind"), req.param("z"), value)
        if req.kind == "thresholds":
            return _thresholds_problems(req, out)
        if req.kind == "occupation":
            return _occupation_problems(req, out)
        if req.kind == "classify":
            return _classify_problems(req, out)
        if req.kind == "sweep":
            return _sweep_request_problems(req, out, rng)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output for {' '.join(req.argv)}: {exc!r}"]
    raise ValueError(f"unknown request kind {req.kind!r}")
