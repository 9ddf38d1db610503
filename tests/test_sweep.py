"""Momentum sweeps, CSV/JSON emission and occupation curves."""

import json
import math
from argparse import Namespace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgas.cli import (
    _OCCUPATION_COLUMNS, _POLYLOG_COLUMNS, _POLYLOG_KINDS, _THRESHOLD_COLUMNS, _threshold_rows,
)
from qgas.errors import DomainError, SingularityError
from qgas.polylog import DEFAULT_SERIES_PARAMS, fermi_f32_truncated
from qgas.regime import (
    FLAG_ORDER, P_CONDENSATION_NOMINAL, RegimeLabel, classify_both, classify_paper,
    classify_selfconsistent,
)
from qgas.sweep import (
    _COLUMNS,
    SweepRow,
    SweepSpec,
    _json_text,
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
            {"p_min": 100.0, "p_max": 200.0, "steps": 3, "window": math.inf},
            {"p_min": 100.0, "p_max": 200.0, "steps": 3, "tol": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SweepSpec(**kwargs)

    def test_unknown_series_uses_the_classifier_wording(self):
        with pytest.raises(DomainError, match=r"^unknown series variant 'cubic', expected one of"):
            SweepSpec(p_min=1.0, p_max=10.0, steps=3, series="cubic")

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"p_min": 50.0, "p_max": math.inf, "steps": 3}, "p_max"),
            ({"p_min": 100.0, "p_max": 200.0, "steps": 3.0}, "steps"),
        ],
    )
    def test_unbuildable_grid_names_the_argument(self, kwargs, name):
        with pytest.raises(DomainError, match=rf"^{name} "):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize(
        "build",
        [lambda steps: SweepSpec(1.0, 2.0, steps), lambda steps: occupation_curve(0.5, 0.0, 1.0, steps)],
        ids=["SweepSpec", "occupation_curve"],
    )
    def test_steps_beyond_float_range_is_domain(self, build):
        # The grid divides by steps - 1 as a float, which 10**400 overflows.
        with pytest.raises(DomainError) as err:
            build(10**400)
        assert str(err.value) == f"steps must be a real number, got {10**400!r}"

    @pytest.mark.parametrize("steps", [3.0, "3", Fraction(3), Decimal(3), None, True])
    @pytest.mark.parametrize(
        "build",
        [lambda steps: SweepSpec(1.0, 2.0, steps), lambda steps: occupation_curve(0.5, 0.0, 1.0, steps)],
        ids=["SweepSpec", "occupation_curve"],
    )
    def test_steps_must_be_an_integer_of_at_least_two(self, build, steps):
        with pytest.raises(DomainError, match="^steps must be an integer of at least 2, got "):
            build(steps)


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


def _classify_record(report):
    return {**vars(row_from_report(report)), "labels_differ": report.labels_differ}


def _threshold_records(b):
    rows = _threshold_rows(Namespace(b=b, params=DEFAULT_SERIES_PARAMS, tolerance=1e-12))
    return [dict(zip(_THRESHOLD_COLUMNS, row)) for row in rows]


class _Float(float):
    """A float subclass with its own repr, as numpy's float64 has."""

    def __repr__(self):
        return f"_Float({float(self)!r})"


# Rows with 0, 1 and 2 flags; the first has only null fugacity cells.
REPORTS = [classify_paper(50.0), classify_both(400.0), classify_both(P_CONDENSATION_NOMINAL)]

# Every shape the tables write as JSON, each with the lists and dicts that the CLI builds.
JSON_PAYLOADS = {
    "sweep-0": [],
    "sweep-1": [vars(row_from_report(REPORTS[2]))],
    "sweep-3": [vars(row_from_report(report)) for report in REPORTS],
    "sweep-run": list(map(vars, run_sweep(SweepSpec(100.0, 300.0, 5)))),
    "classify-differ": _classify_record(classify_both(150.0)),
    "classify-agree": _classify_record(REPORTS[1]),
    "classify-paper": _classify_record(REPORTS[0]),
    "thresholds": _threshold_records(None),
    "thresholds-undefined": _threshold_records(0.3),
    "polylog": dict(zip(_POLYLOG_COLUMNS, ("fermi3", 0.5, fermi_f32_truncated(0.5)))),
    "occupation": [dict(zip(_OCCUPATION_COLUMNS, p)) for p in occupation_curve(0.5, 0.0, 2.0, 3)],
    "float-subclass": [vars(SweepRow(_Float(150.0), 2.5, None, None, None, None, None, None, ()))],
}


class TestJsonWriter:
    def test_payloads_cover_each_cell(self):
        assert [len(row.flags) for row in map(row_from_report, REPORTS)] == [0, 1, 2]
        classified = (JSON_PAYLOADS[f"classify-{k}"] for k in ("differ", "agree", "paper"))
        assert {record["labels_differ"] for record in classified} == {True, False, None}
        assert any(record["p0"] is None for record in JSON_PAYLOADS["thresholds-undefined"])

    @pytest.mark.parametrize("name", list(JSON_PAYLOADS))
    def test_writes_what_json_writes(self, name):
        payload = JSON_PAYLOADS[name]
        assert _json_text(payload) == json.dumps(payload, indent=2) + "\n"

    def test_vocabulary_needs_no_escaping(self):
        # The writer quotes strings as they are, which is what json writes for these.
        words = [
            *(label.value for label in RegimeLabel), *FLAG_ORDER, "bose", *_POLYLOG_KINDS,
            *(record["name"] for record in _threshold_records(None)),
            *_COLUMNS, "labels_differ", *_POLYLOG_COLUMNS, *_THRESHOLD_COLUMNS,
            *_OCCUPATION_COLUMNS,
        ]
        for word in words:
            assert json.dumps(word) == '"' + word + '"'

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_raises(self, value):
        row = SweepRow(150.0, value, None, None, None, None, None, None, ())
        for write in (lambda: _json_text({"z": value}), lambda: emit_json([row])):
            with pytest.raises(ValueError, match="not a finite float"):
                write()


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

    @pytest.mark.parametrize("beta_eps_min", [5e-324, 1e-310, 5.562684646268003e-309])
    def test_overflowing_grid_point(self, beta_eps_min):
        with pytest.raises(SingularityError) as err:
            occupation_curve(1.0, beta_eps_min, 1.0, 2, "bose")
        assert f"beta_eps={beta_eps_min!r}" in str(err.value)

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

    @pytest.mark.parametrize(
        "args,name",
        [
            ((0.5, 0.0, math.inf, 3), "beta_eps_max"),
            # Finite bounds whose difference overflows.
            ((0.5, -1e308, 1e308, 3, "fermi"), "beta_eps_max - beta_eps_min"),
            ((0.5, 0.0, 1.0, 2.5), "steps"),
        ],
    )
    def test_unbuildable_grid_names_the_argument(self, args, name):
        with pytest.raises(DomainError, match=rf"^{name} "):
            occupation_curve(*args)
