"""Momentum sweeps, CSV/JSON emission and occupation curves."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgas.errors import DomainError, SingularityError
from qgas.regime import classify_both, classify_paper, classify_selfconsistent
from qgas.sweep import (
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_json,
    occupation_curve,
    row_from_report,
    run_sweep,
)

CSV_HEADER = "p0,K,paper_label,selfconsistent_label,branch,z,z_prime,b,flags"

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
optional_floats = st.none() | finite_floats
flag_lists = st.lists(
    st.sampled_from(["overlaps_fermionic_range", "no_bose_root", "near_threshold"]),
    unique=True,
    max_size=3,
).map(tuple)

rows_strategy = st.lists(
    st.builds(
        SweepRow,
        p0=finite_floats,
        K=finite_floats,
        paper_label=st.none() | st.sampled_from(["Condensation", "Dilution", "NormalBose"]),
        selfconsistent_label=st.none() | st.sampled_from(["AboveDilution", "OutOfModelRange"]),
        branch=st.none() | st.sampled_from(["bose", "fermi"]),
        z=optional_floats,
        z_prime=optional_floats,
        b=optional_floats,
        flags=flag_lists,
    ),
    max_size=8,
)


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec(p_min=100.0, p_max=300.0, steps=3)
        assert spec.mode == "both"
        assert spec.series == "truncated"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_min": 0.0, "p_max": 10.0, "steps": 3},
            {"p_min": -1.0, "p_max": 10.0, "steps": 3},
            {"p_min": 10.0, "p_max": 10.0, "steps": 3},
            {"p_min": 30.0, "p_max": 10.0, "steps": 3},
            {"p_min": 1.0, "p_max": 10.0, "steps": 1},
            {"p_min": 1.0, "p_max": 10.0, "steps": 3, "mode": "all"},
            {"p_min": 1.0, "p_max": 10.0, "steps": 3, "series": "cubic"},
            {"p_min": 1.0, "p_max": 10.0, "steps": 3, "window": 0.0},
            {"p_min": 1.0, "p_max": 10.0, "steps": 3, "tol": -1e-9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SweepSpec(**kwargs)


class TestRunSweep:
    def test_paper_mode_labels(self):
        rows = run_sweep(SweepSpec(p_min=100.0, p_max=300.0, steps=3, mode="paper"))
        assert [row.p0 for row in rows] == [100.0, 200.0, 300.0]
        assert [row.paper_label for row in rows] == [
            "AnomalousFermionic",
            "Condensation",
            "AboveDilution",
        ]
        assert all(row.selfconsistent_label is None for row in rows)
        assert all(row.branch is None for row in rows)
        assert rows[1].flags == ("overlaps_fermionic_range",)

    def test_two_steps_hit_endpoints_exactly(self):
        rows = run_sweep(SweepSpec(p_min=50.0, p_max=400.0, steps=2, mode="paper"))
        assert rows[0].p0 == 50.0
        assert rows[1].p0 == 400.0

    def test_rows_ascend(self):
        rows = run_sweep(SweepSpec(p_min=120.0, p_max=220.0, steps=11, mode="self"))
        momenta = [row.p0 for row in rows]
        assert momenta == sorted(momenta)
        assert len(rows) == 11

    @pytest.mark.parametrize("mode,classifier", [
        ("paper", lambda p0: classify_paper(p0, 0.01)),
        ("self", lambda p0: classify_selfconsistent(p0)),
        ("both", lambda p0: classify_both(p0)),
    ])
    def test_rows_match_single_point_classifier(self, mode, classifier):
        spec = SweepSpec(p_min=90.0, p_max=310.0, steps=12, mode=mode)
        for row in run_sweep(spec):
            assert row == row_from_report(classifier(row.p0))

    def test_deterministic(self):
        spec = SweepSpec(p_min=50.0, p_max=400.0, steps=40)
        assert emit_csv(run_sweep(spec)) == emit_csv(run_sweep(spec))

    def test_series_changes_no_classification(self):
        # The Fermi variant is validated but never consulted: couplings
        # above the Bose window are OutOfModelRange under either series.
        full = emit_csv(run_sweep(SweepSpec(50.0, 400.0, 301, "both", "full")))
        truncated = emit_csv(run_sweep(SweepSpec(50.0, 400.0, 301, "both", "truncated")))
        assert full == truncated
        assert ",OutOfModelRange," in full


class TestEmitCsv:
    def test_empty(self):
        assert emit_csv([]) == CSV_HEADER + "\n"

    def test_header_and_shape(self):
        rows = run_sweep(SweepSpec(p_min=100.0, p_max=300.0, steps=3))
        text = emit_csv(rows)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_absent_fields_are_empty_cells(self):
        row = SweepRow(
            p0=300.0, K=1.8659, paper_label="AboveDilution", selfconsistent_label=None,
            branch=None, z=None, z_prime=None, b=None, flags=(),
        )
        line = emit_csv([row]).split("\n")[1]
        assert line == "300.0,1.8659,AboveDilution,,,,,,"

    def test_flags_joined_with_pipe(self):
        row = SweepRow(
            p0=1.0, K=1.0, paper_label=None, selfconsistent_label=None, branch=None,
            z=None, z_prime=None, b=None, flags=("no_bose_root", "near_threshold"),
        )
        assert emit_csv([row]).split("\n")[1].endswith(",no_bose_root|near_threshold")

    @given(rows=rows_strategy)
    def test_numeric_cells_round_trip(self, rows):
        lines = emit_csv(rows).split("\n")[1:-1]
        for row, line in zip(rows, lines):
            cells = line.split(",")
            assert float(cells[0]) == row.p0
            assert float(cells[1]) == row.K
            for cell, value in zip(cells[5:8], (row.z, row.z_prime, row.b)):
                if value is None:
                    assert cell == ""
                else:
                    assert float(cell) == value


class TestEmitJson:
    def test_empty(self):
        assert emit_json([]) == "[]\n"

    def test_null_and_array_fields(self):
        rows = run_sweep(SweepSpec(p_min=290.0, p_max=300.0, steps=2, mode="paper"))
        parsed = json.loads(emit_json(rows))
        assert parsed[0]["selfconsistent_label"] is None
        assert parsed[0]["branch"] is None
        assert parsed[0]["flags"] == []
        assert list(parsed[0]) == [
            "p0", "K", "paper_label", "selfconsistent_label",
            "branch", "z", "z_prime", "b", "flags",
        ]

    @given(rows=rows_strategy)
    def test_round_trip_bit_exact(self, rows):
        parsed = json.loads(emit_json(rows))
        assert len(parsed) == len(rows)
        for row, record in zip(rows, parsed):
            assert record["p0"] == row.p0
            assert record["K"] == row.K
            assert record["z"] == row.z
            assert record["z_prime"] == row.z_prime
            assert record["b"] == row.b
            assert tuple(record["flags"]) == row.flags


class TestOccupationCurve:
    def test_bose_endpoints(self):
        curve = occupation_curve(0.5, 0.0, 1.0, 2, "bose")
        assert curve[0] == (0.0, 1.0)
        assert curve[1][0] == 1.0
        assert curve[1][1] == pytest.approx(0.225399, abs=1e-6)
        assert curve[1][1] == pytest.approx(1.0 / (2.0 * math.e - 1.0), rel=1e-14)

    def test_unit_fugacity_away_from_singularity(self):
        curve = occupation_curve(1.0, 1.0, 2.0, 2, "bose")
        assert curve[0][1] == pytest.approx(0.581977, abs=1e-6)
        assert curve[1][1] == pytest.approx(0.156518, abs=1e-6)

    def test_singular_grid_point(self):
        with pytest.raises(SingularityError) as err:
            occupation_curve(1.0, 0.0, 1.0, 3, "bose")
        assert "beta_eps=0.0" in str(err.value)

    def test_fermi_tolerates_the_bose_singular_point(self):
        curve = occupation_curve(1.0, 0.0, 1.0, 2, "fermi")
        assert curve[0][1] == 0.5

    def test_monotone_nonincreasing(self):
        curve = occupation_curve(0.8, 0.0, 5.0, 50, "bose")
        values = [occ for _, occ in curve]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_grid_shape(self):
        curve = occupation_curve(0.3, 0.5, 2.5, 5, "fermi")
        assert len(curve) == 5
        assert curve[0][0] == 0.5
        assert curve[-1][0] == 2.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": 1},
            {"beta_eps_min": 2.0, "beta_eps_max": 1.0},
            {"beta_eps_min": 1.0, "beta_eps_max": 1.0},
            {"branch": "boltzmann"},
        ],
    )
    def test_validation(self, kwargs):
        base = {"z": 0.5, "beta_eps_min": 0.0, "beta_eps_max": 1.0, "steps": 4, "branch": "bose"}
        base.update(kwargs)
        with pytest.raises(DomainError):
            occupation_curve(**base)
