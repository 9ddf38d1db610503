"""qgas benchmark: one seeded, single-client, closed-loop run of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {sweep_cold,sweep_zoom,cli_mix} \
        --seed N --seconds S --trace {0,1}

qgas is imported from ``src/`` of the checkout.  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it runs a
fixed, seeded unit of the workload once untraced and once with every qgas
layer wrapped, and reports the per-layer metrics.  Every output is checked
against independent references (``perfbench/oracle.py``); an operation with a
failed check counts as failed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, the metrics and their baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

if not __package__:  # run as a script: make the benchmark package importable
    sys.path.insert(0, str(ROOT))

from perfbench import oracle, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CLI_MIX,
    ZOOM_MIN_SPACING,
    ZOOM_STEPS,
    cli_block,
    cold_cycle,
    zoom_start,
)

SETUP_SAMPLES = 3  # fresh-interpreter imports per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
REQUEST_TIMEOUT_S = 20.0  # a CLI request still running after this counts as failed
CLI_MIN_REQUESTS = 100  # request_p90_s needs ten requests beyond it
CLI_GUARD_S = 140.0  # no new CLI request after this, so a slow machine still exits in time
COLD_ROOT_CHECKS = 3  # mpmath-checked root rows per cold sweep
ZOOM_ROOT_CHECKS = 40  # mpmath-checked root rows per zoom run, one per sampled pass
ORACLE_SAMPLE = 150  # polylog values per band checked for polylog.max_rel_err
TRACE_COLD_CYCLES = 2
TRACE_ZOOM_SESSIONS = 4
TRACE_CLI_REQUESTS = 40

_IMPORT_PROBE = "import time; t = time.perf_counter(); import qgas; print(repr(time.perf_counter() - t))"


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QGAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure_setup() -> float:
    """Median wall time of ``import qgas`` in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def import_attribution() -> dict[str, float]:
    """Self import time of numpy, scipy and qgas modules, from ``-X importtime``."""
    totals: dict[str, list[float]] = {"numpy": [], "scipy": [], "qgas": []}
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qgas"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        run = dict.fromkeys(totals, 0.0)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            if package in run:
                run[package] += float(self_us) * 1e-6
        for package, value in run.items():
            totals[package].append(value)
    return {
        "qgas.import.numpy_s": statistics.median(totals["numpy"]),
        "qgas.import.scipy_s": statistics.median(totals["scipy"]),
        "qgas.import.own_s": statistics.median(totals["qgas"]),
    }


# --- in-process sweeps ----------------------------------------------------------


@dataclass
class SweepOp:
    """One timed run_sweep + emit_csv + emit_json call and what it produced."""

    spec: object
    seconds: float
    csv_text: str
    json_text: str
    problems: list[str] = field(default_factory=list)


def timed_sweep(qgas, spec, tracer=None) -> tuple[SweepOp, list]:
    span = tracer.begin("bench.sweep") if tracer else None
    start = time.perf_counter()
    rows = qgas.run_sweep(spec)
    csv_text = qgas.emit_csv(rows)
    json_text = qgas.emit_json(rows)
    took = time.perf_counter() - start
    if span:
        tracer.end(span)
    return SweepOp(spec, took, csv_text, json_text), rows


def check_sweep_op(op: SweepOp, rng: random.Random, roots: int) -> None:
    problems = oracle.nan_problems(op.csv_text, op.json_text)
    if not problems:
        csv_rows = oracle.parse_csv(op.csv_text)
        problems = oracle.same_rows(csv_rows, oracle.parse_json(op.json_text))
        problems += oracle.sweep_problems(csv_rows, op.spec, rng, roots)
    op.problems += problems


def check_repeat(qgas, op: SweepOp, cold: bool) -> None:
    """The same sweep, run and emitted again, gives the same bytes."""
    if cold:
        qgas.clear_series_cache()
    again, _ = timed_sweep(qgas, op.spec)
    if (again.csv_text, again.json_text) != (op.csv_text, op.json_text):
        op.problems.append(f"sweep {op.spec} emitted different bytes on a repeat")


def run_cold(qgas, seed: int, seconds: float | None, cycles: int | None = None,
             tracer=None) -> list[SweepOp]:
    """Cycles of cold sweeps until ``seconds`` have passed (or ``cycles`` ran)."""
    ops: list[SweepOp] = []
    start = time.perf_counter()
    cycle = 0
    while (cycle < cycles) if cycles is not None else (
            cycle == 0 or time.perf_counter() - start < seconds):
        for sweep in cold_cycle(seed, cycle):
            spec = qgas.SweepSpec(sweep.p_min, sweep.p_max, sweep.steps, "both", sweep.series)
            qgas.clear_series_cache()
            ops.append(timed_sweep(qgas, spec, tracer)[0])
        cycle += 1
    return ops


def check_cold(qgas, ops: list[SweepOp], seed: int) -> None:
    rng = random.Random(f"check:sweep_cold:{seed}")
    for op in ops:
        check_sweep_op(op, rng, COLD_ROOT_CHECKS)
    check_repeat(qgas, ops[-1], cold=False)  # cache-served rerun of the last sweep
    check_repeat(qgas, rng.choice(ops), cold=True)


@dataclass
class Session:
    passes: list[SweepOp]
    threshold: float | None  # midpoint of the final bracket
    spacing: float


def zoom_session(qgas, seed: int, index: int, tracer=None) -> Session:
    """Narrow a seeded coarse range to the Condensation -> NormalBose change."""
    lo, hi = zoom_start(seed, index)
    qgas.clear_series_cache()
    passes = []
    while True:
        op, rows = timed_sweep(qgas, qgas.SweepSpec(lo, hi, ZOOM_STEPS, "both"), tracer)
        passes.append(op)
        labels = [row.selfconsistent_label for row in rows]
        edge = next((i for i in range(len(rows) - 1)
                     if labels[i] == "Condensation" and labels[i + 1] == "NormalBose"), None)
        if edge is None:
            op.problems.append(f"no Condensation -> NormalBose change in [{lo!r}, {hi!r}]")
            return Session(passes, None, hi - lo)
        lo, hi = rows[edge].p0, rows[edge + 1].p0
        if (hi - lo) / (ZOOM_STEPS - 1) < ZOOM_MIN_SPACING * lo:
            return Session(passes, 0.5 * (lo + hi), hi - lo)


def run_zoom(qgas, seed: int, seconds: float | None, sessions: int | None = None,
             tracer=None) -> list[Session]:
    done: list[Session] = []
    start = time.perf_counter()
    while (len(done) < sessions) if sessions is not None else (
            not done or time.perf_counter() - start < seconds):
        done.append(zoom_session(qgas, seed, len(done), tracer))
    return done


def check_zoom(qgas, sessions: list[Session], seed: int) -> None:
    reference = qgas.threshold_condensation(qgas.condensation_fixed_point().b)
    rng = random.Random(f"check:sweep_zoom:{seed}")
    ops = [op for s in sessions for op in s.passes]
    if oracle.rel_err(reference, oracle.P_SELFCONSISTENT) > oracle.REL_TOL_POLYLOG:
        ops[-1].problems.append(f"threshold {reference!r}, mpmath {oracle.P_SELFCONSISTENT!r}")
    for s in sessions:
        if s.threshold is not None and abs(s.threshold - reference) > s.spacing:
            s.passes[-1].problems.append(
                f"located threshold {s.threshold!r}, expected {reference!r} within {s.spacing!r}")
    sampled = set(rng.sample(range(len(ops)), min(ZOOM_ROOT_CHECKS, len(ops))))
    for i, op in enumerate(ops):
        check_sweep_op(op, rng, 1 if i in sampled else 0)
    check_repeat(qgas, ops[-1], cold=False)
    check_repeat(qgas, rng.choice(ops), cold=True)


def _sweep_metrics(ops: list[SweepOp]) -> dict[str, float]:
    times = [op.seconds for op in ops]
    points = sum(op.spec.steps for op in ops)
    return {
        "request_p50_s": statistics.median(times),
        "request_p90_s": _p90(times),
        "points_per_s": points / sum(times),
        "sweep_p50_s": statistics.median(times),
    }


# --- CLI requests -----------------------------------------------------------------


@dataclass
class CliOp:
    request: object
    seconds: float
    code: int | None
    out: str
    err: str
    problems: list[str] = field(default_factory=list)


def cli_request(request, spans_file: Path | None = None) -> CliOp:
    """One fresh process from spawn to exit; traced through the launcher when spans_file is set."""
    if spans_file is None:
        argv = [sys.executable, "-m", "qgas", *request.argv]
    else:
        argv = [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(spans_file), *request.argv]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", ""
    return CliOp(request, time.perf_counter() - start, code, out, err)


def run_cli(seed: int, seconds: float) -> list[CliOp]:
    """Blocks of the request mix until ``seconds`` have passed and enough requests ran."""
    ops: list[CliOp] = []
    start = time.perf_counter()
    block = 0
    while len(ops) < CLI_MIN_REQUESTS or time.perf_counter() - start < seconds:
        for request in cli_block(seed, block):
            if time.perf_counter() - start > CLI_GUARD_S:
                return ops
            ops.append(cli_request(request))
        block += 1
    return ops


def check_cli(ops: list[CliOp], seed: int) -> None:
    rng = random.Random(f"check:cli_mix:{seed}")
    for op in ops:
        op.problems += oracle.cli_problems(op.request, op.code, op.out, op.err, rng)


def _points(op: CliOp) -> int:
    """Grid points a successful request classified and emitted."""
    if op.code != 0:
        return 0
    if op.request.kind == "sweep":
        return op.request.param("steps")
    return 1 if op.request.kind == "classify" else 0


def _cli_metrics(ops: list[CliOp]) -> dict[str, float]:
    times = [op.seconds for op in ops]
    producing = [op for op in ops if _points(op)]
    sweeps = [op.seconds for op in ops if op.request.kind == "sweep"]
    return {
        "request_p50_s": statistics.median(times),
        "request_p90_s": _p90(times),
        "points_per_s": sum(_points(op) for op in producing) / sum(op.seconds for op in producing),
        "sweep_p50_s": statistics.median(sweeps),
    }


# --- workloads ----------------------------------------------------------------------


def _import_qgas():
    import qgas

    if not Path(qgas.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qgas imported from {qgas.__file__}, not from {SRC}")
    return qgas


def _max_rel_err(spans, seed: int) -> float:
    """Largest relative error of the series values the run produced, on a seeded sample per band."""
    rng = random.Random(f"check:polylog:{seed}")
    by_band: dict[str, list] = {}
    for value in sorted(tracing.polylog_values(spans)):
        by_band.setdefault(tracing.band(value[1]), []).append(value)
    worst = 0.0
    for values in by_band.values():
        for kind, z, value in rng.sample(values, min(ORACLE_SAMPLE, len(values))):
            worst = max(worst, oracle.rel_err(value, oracle.polylog_ref(kind, z)))
    return worst


def run_untraced(workload: str, seed: int, seconds: float):
    setup = measure_setup()
    if workload == "cli_mix":
        ops = run_cli(seed, seconds)
        check_cli(ops, seed)
        metrics = _cli_metrics(ops)
    else:
        qgas = _import_qgas()
        if workload == "sweep_cold":
            ops = run_cold(qgas, seed, seconds)
            check_cold(qgas, ops, seed)
        else:
            sessions = run_zoom(qgas, seed, seconds)
            ops = [op for s in sessions for op in s.passes]
            check_zoom(qgas, sessions, seed)
        metrics = _sweep_metrics(ops)
    metrics["setup_s"] = setup
    return ops, metrics


def run_traced(workload: str, seed: int):
    """A fixed seeded unit of the workload, untraced and then traced."""
    tracer = tracing.Tracer()
    OUT.mkdir(parents=True, exist_ok=True)
    kinds = [kind for kind, _ in CLI_MIX]
    if workload == "cli_mix":
        requests = cli_block(seed, 0, TRACE_CLI_REQUESTS)
        plain = [cli_request(r) for r in requests]
        traced = []
        spans_file = OUT / "request-spans.json"
        for request in requests:
            parent = len(tracer.spans)
            span = tracer.begin("bench.request")
            traced.append(cli_request(request, spans_file))
            tracer.end(span)
            if spans_file.exists():
                tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")), parent)
                spans_file.unlink()
        spans = tracer.spans
        ops = plain + traced
        check_cli(ops, seed)
        overhead = sum(op.seconds for op in traced) / sum(op.seconds for op in plain)
        mix = {f"cli.{k}.share": sum(r.kind == k for r in requests) / len(requests) for k in kinds}
    else:
        qgas = _import_qgas()
        if workload == "sweep_cold":
            plain = run_cold(qgas, seed, None, cycles=TRACE_COLD_CYCLES)
            qgas = tracing.install(tracer)
            traced = run_cold(qgas, seed, None, cycles=TRACE_COLD_CYCLES, tracer=tracer)
            spans = list(tracer.spans)  # the checks below call traced functions too
            check_cold(qgas, plain + traced, seed)
        else:
            plain_sessions = run_zoom(qgas, seed, None, sessions=TRACE_ZOOM_SESSIONS)
            qgas = tracing.install(tracer)
            traced_sessions = run_zoom(qgas, seed, None, sessions=TRACE_ZOOM_SESSIONS, tracer=tracer)
            spans = list(tracer.spans)
            check_zoom(qgas, plain_sessions + traced_sessions, seed)
            plain = [op for s in plain_sessions for op in s.passes]
            traced = [op for s in traced_sessions for op in s.passes]
        ops = plain + traced
        overhead = _sweep_metrics(plain)["points_per_s"] / _sweep_metrics(traced)["points_per_s"]
        mix = {f"cli.{k}.share": 0.0 for k in kinds}
    tracing.dump(spans, OUT / f"spans-{workload}-{seed}.json")
    metrics = tracing.layer_metrics(spans)
    metrics.update(mix)
    metrics.update(import_attribution())
    metrics["polylog.max_rel_err"] = _max_rel_err(spans, seed)
    metrics["trace.overhead_ratio"] = overhead
    return ops, metrics


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep_cold", "sweep_zoom", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgas" / "__init__.py").is_file():
        print(f"perfbench: no qgas sources at {SRC / 'qgas'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        ops, metrics = run_traced(args.workload, args.seed)
    else:
        ops, metrics = run_untraced(args.workload, args.seed, args.seconds)
    units = _declared(bool(args.trace))
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} not both declared and measured",
              file=sys.stderr)
        return 1
    failed = [op for op in ops if op.problems]
    for op in failed[:10]:
        print("FAILED:", "; ".join(op.problems[:3]), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
