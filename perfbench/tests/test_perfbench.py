"""Tests of the benchmark itself: seeded inputs, checkers that can fail, self time."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracle, tracing, workloads
from perfbench.tracing import END, NAME, PARENT, START

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in (
        lambda seed: workloads.cold_cycle(seed, 0),
        lambda seed: workloads.zoom_start(seed, 0),
        lambda seed: workloads.cli_block(seed, 0),
    ):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_cli_block_keeps_the_mix():
    block = workloads.cli_block(3, 0)
    counts = {kind: sum(r.kind == kind for r in block) for kind, _ in workloads.CLI_MIX}
    assert counts == {kind: 10 * per_ten for kind, per_ten in workloads.CLI_MIX}


def _sweep_csv(p_min, p_max, steps):
    from qgas import SweepSpec, emit_csv, run_sweep

    spec = SweepSpec(p_min, p_max, steps, "both")
    return spec, emit_csv(run_sweep(spec))


def test_checker_passes_a_good_sweep_and_flags_a_corrupted_row():
    spec, text = _sweep_csv(150.0, 250.0, 11)
    rows = oracle.parse_csv(text)
    assert oracle.sweep_problems(rows, spec, random.Random(0), roots=3) == []

    wrong_label = [dict(row) for row in rows]
    wrong_label[0]["selfconsistent_label"] = "NormalBose"  # p0 = 150 condenses
    assert oracle.sweep_problems(wrong_label, spec, random.Random(0), roots=0)

    wrong_root = [dict(row) for row in rows]
    wrong_root[0]["z"] *= 1 + 1e-6
    assert oracle.root_problems(wrong_root[0])

    assert oracle.nan_problems(text.replace(rows[0]["branch"], "nan", 1), None)
    assert oracle.grid_problems(rows[:-1], spec.p_min, spec.p_max, spec.steps)


def test_checker_flags_a_wrong_exit_code_and_a_timeout():
    bad = next(r for r in workloads.cli_block(1, 0) if r.kind == "bad")
    rng = random.Random(0)
    assert oracle.cli_problems(bad, bad.expect, "", "error", rng) == []
    assert oracle.cli_problems(bad, 0, "", "", rng)
    assert oracle.cli_problems(bad, None, "", "", rng)

    polylog = workloads.Request("polylog", ("polylog",), 0,
                                (("kind", "bose"), ("z", 0.5), ("format", "text")))
    assert oracle.cli_problems(polylog, 0, "0.6248370208190226\n", "", rng) == []
    assert oracle.cli_problems(polylog, 0, "0.6248371\n", "", rng)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", -1, 0.0, 10.0, None],
        ["a", 0, 1.0, 3.0, None],
        ["b", 0, 2.0, 5.0, None],  # overlaps a
        ["c", 0, 8.0, 12.0, None],  # runs past the end of root
        ["a.child", 1, 1.5, 2.5, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_records_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("layer.inner", lambda x: x + 1)
    outer = tracer.wrap("layer.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s[NAME], s[PARENT]) for s in tracer.spans]
    assert names == [("layer.outer", -1), ("layer.inner", 0)]
    assert all(s[START] <= s[END] for s in tracer.spans)


def test_launcher_traces_every_binding(tmp_path):
    spans_file = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(spans_file),
         "classify", "--p0", "150", "--mode", "self", "--format", "json"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["selfconsistent_label"] == "Condensation"
    metrics = tracing.layer_metrics(json.loads(spans_file.read_text()))
    # The solver reaches bose_g32 through qgas.regime's own binding.
    assert metrics["regime.roots"] == 1
    assert metrics["regime.evals_per_root"] == 42
    assert metrics["gas.from_branch.calls"] == 1
    assert metrics["cli.classify.p50_s"] > 0
