"""Command-line contract: subcommands, formats, exit codes, environment."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

import qgas

from qgas.cli import EXIT_DOMAIN, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from qgas.gas import occupation_bose
from qgas.polylog import ZETA_3_2, bose_g32, fermi_f32_full, fermi_f32_truncated
from qgas.regime import (
    classify_both,
    classify_paper,
    condensation_fixed_point,
    threshold_condensation,
    threshold_dilution,
)

from test_corpus import _nonfinite


@pytest.fixture()
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestPolylog:
    def test_bose_at_one(self, cli):
        code, out, err = cli("polylog", "--kind", "bose", "--z", "1")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(ZETA_3_2, abs=1e-9)
        assert err == ""

    def test_fermi3_at_one(self, cli):
        code, out, _ = cli("polylog", "--kind", "fermi3", "--z", "1")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(0.838897, abs=1e-6)

    def test_fermi_full(self, cli):
        code, out, _ = cli("polylog", "--kind", "fermi", "--z", "0.5")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(0.4298873215805793, abs=1e-12)

    def test_json_format(self, cli):
        code, out, _ = cli("polylog", "--kind", "bose", "--z", "0.5", "--format", "json")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["kind"] == "bose"
        assert payload["z"] == 0.5
        assert payload["value"] == pytest.approx(0.6248, abs=1e-4)

    def test_out_of_domain(self, cli):
        code, out, err = cli("polylog", "--kind", "bose", "--z", "1.5")
        assert code == EXIT_DOMAIN
        assert out == ""  # machine output only on success
        assert err != ""

    def test_truncation_maps_to_numeric_exit(self, cli):
        code, out, err = cli(
            "polylog", "--kind", "bose", "--z", "0.95", "--max-terms", "10"
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "term" in err or "numeric" in err

    def test_unknown_kind(self, cli):
        code, _, _ = cli("polylog", "--kind", "poisson", "--z", "0.5")
        assert code == EXIT_USAGE

    def test_term_cap_beyond_float_range(self, cli):
        argv = ("polylog", "--kind", "bose", "--z", "0.5")
        _, default_out, _ = cli(*argv)
        assert cli(*argv, "--max-terms", "1" + "0" * 400) == (EXIT_OK, default_out, "")


class TestThresholds:
    def test_canonical_rows(self, cli):
        code, out, _ = cli("thresholds", "--format", "json")
        rows = json.loads(out)
        assert code == EXIT_OK
        assert [row["name"] for row in rows] == [
            "dilution",
            "condensation",
            "condensation-selfconsistent",
        ]
        assert rows[0]["p0"] == pytest.approx(205.93, abs=0.01)
        assert rows[1]["p0"] == pytest.approx(199.53, abs=0.01)
        assert rows[2]["p0"] == pytest.approx(193.6, abs=0.5)
        assert rows[2]["z"] == pytest.approx(0.6986, abs=1e-3)

    def test_text_mentions_both_constants(self, cli):
        code, out, _ = cli("thresholds")
        assert code == EXIT_OK
        assert "205.93" in out
        assert "199.52" in out

    def test_explicit_b(self, cli):
        code, out, _ = cli("thresholds", "--b", "2.6", "--format", "json")
        rows = json.loads(out)
        assert code == EXIT_OK
        assert len(rows) == 2
        assert rows[0]["p0"] == pytest.approx(79.20, abs=0.01)

    def test_small_b_has_no_condensation_threshold(self, cli):
        code, out, _ = cli("thresholds", "--b", "0.2", "--format", "json")
        rows = json.loads(out)
        assert code == EXIT_OK
        assert rows[1]["name"] == "condensation"
        assert rows[1]["p0"] is None

    def test_invalid_b(self, cli):
        code, out, _ = cli("thresholds", "--b", "0")
        assert code == EXIT_DOMAIN
        assert out == ""

    def test_csv_format(self, cli):
        code, out, _ = cli("thresholds", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        assert lines[0] == "name,b,p0,z"
        assert len(lines) == 4

    def test_tolerance_is_the_fixed_point_width(self, cli):
        fixed = condensation_fixed_point(tol=0.5)
        p0 = threshold_condensation(fixed.b)
        row = f"condensation-selfconsistent,{fixed.b!r},{p0!r},{fixed.z!r}"
        code, out, err = cli("thresholds", "--tolerance", "0.5", "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == row


class TestClassify:
    def test_paper_mode_text(self, cli):
        code, out, _ = cli("classify", "--p0", "205.93", "--mode", "paper")
        assert code == EXIT_OK
        assert "Dilution" in out

    def test_both_mode_json(self, cli):
        code, out, _ = cli("classify", "--p0", "100", "--mode", "both", "--format", "json")
        record = json.loads(out)
        assert code == EXIT_OK
        assert record["paper_label"] == "AnomalousFermionic"
        assert record["selfconsistent_label"] == "OutOfModelRange"
        assert record["labels_differ"] is True

    def test_self_mode_json_carries_fugacity(self, cli):
        code, out, _ = cli("classify", "--p0", "193.61", "--mode", "self", "--format", "json")
        record = json.loads(out)
        assert code == EXIT_OK
        assert record["selfconsistent_label"] == "Condensation"
        assert record["branch"] == "bose"
        assert record["z"] == pytest.approx(0.699, abs=0.002)

    def test_csv_single_row(self, cli):
        code, out, _ = cli("classify", "--p0", "300", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        assert lines[0].startswith("p0,K,paper_label")
        assert len(lines) == 2
        assert lines[1].startswith("300.0,")

    def test_negative_momentum(self, cli):
        code, out, _ = cli("classify", "--p0", "-1")
        assert code == EXIT_DOMAIN
        assert out == ""

    def test_bad_mode(self, cli):
        code, _, _ = cli("classify", "--p0", "100", "--mode", "guess")
        assert code == EXIT_USAGE

    def test_sub_ulp_tolerance_is_numeric(self, cli):
        code, out, err = cli("classify", "--p0", "150", "--tolerance", "1e-17")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "numeric error" in err


class TestSweep:
    def test_row_count(self, cli):
        code, out, _ = cli(
            "sweep", "--p-min", "100", "--p-max", "300", "--steps", "201",
            "--mode", "both", "--format", "csv",
        )
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        assert len(lines) == 202  # header + 201 data lines
        assert lines[0] == "p0,K,paper_label,selfconsistent_label,branch,z,z_prime,b,flags"

    def test_byte_identical_runs(self, cli):
        argv = ("sweep", "--p-min", "150", "--p-max", "250", "--steps", "21", "--format", "csv")
        _, first, _ = cli(*argv)
        _, second, _ = cli(*argv)
        assert first == second

    def test_text_defaults_to_csv_table(self, cli):
        code, out, _ = cli("sweep", "--p-min", "100", "--p-max", "120", "--steps", "3")
        assert code == EXIT_OK
        assert out.startswith("p0,K,")

    def test_json(self, cli):
        code, out, _ = cli(
            "sweep", "--p-min", "100", "--p-max", "120", "--steps", "3", "--format", "json"
        )
        assert code == EXIT_OK
        assert len(json.loads(out)) == 3

    def test_reversed_bounds_are_usage(self, cli):
        code, out, err = cli("sweep", "--p-min", "300", "--p-max", "100", "--steps", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert err != ""

    def test_single_step_is_usage(self, cli):
        code, _, _ = cli("sweep", "--p-min", "100", "--p-max", "300", "--steps", "1")
        assert code == EXIT_USAGE

    def test_nonpositive_minimum_is_domain(self, cli):
        code, _, _ = cli("sweep", "--p-min", "-10", "--p-max", "300", "--steps", "5")
        assert code == EXIT_DOMAIN

    def test_infinite_maximum_is_domain(self, cli):
        code, out, err = cli("sweep", "--p-min", "50", "--p-max", "inf", "--steps", "3")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "p_max must be finite" in err

    def test_nan_maximum_is_domain(self, cli):
        # NaN passes the CLI's reversed-bounds pre-check; the library refuses it.
        code, out, err = cli("sweep", "--p-min", "100", "--p-max", "nan", "--steps", "3")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "p_max must be finite" in err

    def test_steps_beyond_float_range_is_domain(self, cli):
        code, out, err = cli("sweep", "--p-min", "1", "--p-max", "2", "--steps", str(10**400))
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == f"domain error: steps must be a real number, got {10**400!r}\n"

    def test_out_file(self, cli, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = cli(
            "sweep", "--p-min", "100", "--p-max", "120", "--steps", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("p0,K,")

    def test_unwritable_out_is_io_error(self, cli, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = cli(
            "sweep", "--p-min", "100", "--p-max", "120", "--steps", "3", "--out", str(target)
        )
        assert code == EXIT_IO
        assert out == ""
        assert err != ""


class TestOccupation:
    def test_endpoint_rows(self, cli):
        code, out, _ = cli(
            "occupation", "--z", "0.5", "--branch", "bose",
            "--beta-eps-min", "0", "--beta-eps-max", "1", "--steps", "2",
        )
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        first = [float(cell) for cell in lines[0].split()]
        last = [float(cell) for cell in lines[1].split()]
        assert first == [0.0, 1.0]
        assert last[0] == 1.0
        assert last[1] == pytest.approx(0.225399, abs=1e-6)

    def test_degenerate_range_is_usage(self, cli):
        code, _, _ = cli(
            "occupation", "--z", "1", "--branch", "fermi",
            "--beta-eps-min", "0", "--beta-eps-max", "0", "--steps", "2",
        )
        assert code == EXIT_USAGE

    def test_single_step_is_usage(self, cli):
        code, out, err = cli(
            "occupation", "--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "1",
            "--steps", "1",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: --steps must be at least 2, got 1\n"

    def test_nan_maximum_is_domain(self, cli):
        code, out, err = cli(
            "occupation", "--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "nan",
            "--steps", "3",
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "beta_eps_max must be finite" in err

    def test_steps_beyond_float_range_is_domain(self, cli):
        code, out, err = cli(
            "occupation", "--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "1",
            "--steps", str(10**400),
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == f"domain error: steps must be a real number, got {10**400!r}\n"

    def test_singular_grid_point_is_domain(self, cli):
        code, out, err = cli(
            "occupation", "--z", "1", "--branch", "bose",
            "--beta-eps-min", "0", "--beta-eps-max", "1", "--steps", "3",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "beta_eps" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_occupation_is_domain(self, cli, fmt):
        # At z = 1 the occupation 1/expm1(1e-310) exceeds the largest double.
        code, out, err = cli(
            "occupation", "--z", "1", "--branch", "bose",
            "--beta-eps-min", "1e-310", "--beta-eps-max", "1", "--steps", "2", "--format", fmt,
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "beta_eps=1e-310" in err

    def test_csv(self, cli):
        code, out, _ = cli(
            "occupation", "--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "2",
            "--steps", "3", "--format", "csv",
        )
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        assert lines[0] == "beta_eps,occupation"
        assert len(lines) == 4


class TestOutputBytes:
    """Exact stdout of every subcommand and format.

    Expected floats come from the library through repr, so these pin the
    headers, separators, empty cells, float repr, '|'-joined flags, JSON
    layout and trailing newline, not the last digit of libm.
    """

    @pytest.mark.parametrize(
        "kind,function",
        [("bose", bose_g32), ("fermi", fermi_f32_full), ("fermi3", fermi_f32_truncated)],
    )
    def test_polylog(self, cli, kind, function):
        v = function(0.5)
        expected = {
            "text": f"{v!r}\n",
            "json": f'{{\n  "kind": "{kind}",\n  "z": 0.5,\n  "value": {v!r}\n}}\n',
            "csv": f"kind,z,value\n{kind},0.5,{v!r}\n",
        }
        for fmt, text in expected.items():
            out = cli("polylog", "--kind", kind, "--z", "0.5", "--format", fmt)
            assert out == (EXIT_OK, text, "")

    def test_thresholds_nominal(self, cli):
        p_dil, p_cond = threshold_dilution(1.0), threshold_condensation(1.4)
        fixed = condensation_fixed_point()
        p_self = threshold_condensation(fixed.b)
        expected = {
            "text": (
                f"dilution: b=1.0 p0={p_dil!r}\n"
                f"condensation: b=1.4 p0={p_cond!r}\n"
                f"condensation-selfconsistent: b={fixed.b!r} p0={p_self!r} z={fixed.z!r}\n"
            ),
            "json": (
                "[\n"
                f'  {{\n    "name": "dilution",\n    "b": 1.0,\n    "p0": {p_dil!r},\n'
                '    "z": null\n  },\n'
                f'  {{\n    "name": "condensation",\n    "b": 1.4,\n    "p0": {p_cond!r},\n'
                '    "z": null\n  },\n'
                f'  {{\n    "name": "condensation-selfconsistent",\n    "b": {fixed.b!r},\n'
                f'    "p0": {p_self!r},\n    "z": {fixed.z!r}\n  }}\n'
                "]\n"
            ),
            "csv": (
                "name,b,p0,z\n"
                f"dilution,1.0,{p_dil!r},\n"
                f"condensation,1.4,{p_cond!r},\n"
                f"condensation-selfconsistent,{fixed.b!r},{p_self!r},{fixed.z!r}\n"
            ),
        }
        for fmt, text in expected.items():
            assert cli("thresholds", "--format", fmt) == (EXIT_OK, text, "")

    def test_thresholds_without_condensation(self, cli):
        p_dil = threshold_dilution(0.3)
        expected = {
            "text": f"dilution: b=0.3 p0={p_dil!r}\ncondensation: b=0.3 p0=undefined\n",
            "json": (
                "[\n"
                f'  {{\n    "name": "dilution",\n    "b": 0.3,\n    "p0": {p_dil!r},\n'
                '    "z": null\n  },\n'
                '  {\n    "name": "condensation",\n    "b": 0.3,\n    "p0": null,\n'
                '    "z": null\n  }\n'
                "]\n"
            ),
            "csv": f"name,b,p0,z\ndilution,0.3,{p_dil!r},\ncondensation,0.3,,\n",
        }
        for fmt, text in expected.items():
            assert cli("thresholds", "--b", "0.3", "--format", fmt) == (EXIT_OK, text, "")

    def test_classify_two_flags(self, cli):
        r = classify_both(199.53)
        k, pair = r.coupling, r.fugacity
        expected = {
            "text": (
                f"p0: 199.53\nK: {k!r}\npaper_label: Condensation\n"
                "selfconsistent_label: NormalBose\n"
                f"branch: bose\nz: {pair.z!r}\nz_prime: {pair.z_prime!r}\nb: {pair.b!r}\n"
                "flags: overlaps_fermionic_range|near_threshold\nlabels_differ: True\n"
            ),
            "json": (
                f'{{\n  "p0": 199.53,\n  "K": {k!r},\n  "paper_label": "Condensation",\n'
                '  "selfconsistent_label": "NormalBose",\n  "branch": "bose",\n'
                f'  "z": {pair.z!r},\n  "z_prime": {pair.z_prime!r},\n  "b": {pair.b!r},\n'
                '  "flags": [\n    "overlaps_fermionic_range",\n    "near_threshold"\n  ],\n'
                '  "labels_differ": true\n}\n'
            ),
            "csv": (
                "p0,K,paper_label,selfconsistent_label,branch,z,z_prime,b,flags\n"
                f"199.53,{k!r},Condensation,NormalBose,bose,{pair.z!r},{pair.z_prime!r},{pair.b!r},"
                "overlaps_fermionic_range|near_threshold\n"
            ),
        }
        for fmt, text in expected.items():
            assert cli("classify", "--p0", "199.53", "--format", fmt) == (EXIT_OK, text, "")

    def test_classify_empty_cells(self, cli):
        k = classify_paper(300.0).coupling
        expected = {
            "text": f"p0: 300.0\nK: {k!r}\npaper_label: AboveDilution\nflags: -\n",
            "json": (
                f'{{\n  "p0": 300.0,\n  "K": {k!r},\n  "paper_label": "AboveDilution",\n'
                '  "selfconsistent_label": null,\n  "branch": null,\n  "z": null,\n'
                '  "z_prime": null,\n  "b": null,\n  "flags": [],\n  "labels_differ": null\n}\n'
            ),
            "csv": (
                "p0,K,paper_label,selfconsistent_label,branch,z,z_prime,b,flags\n"
                f"300.0,{k!r},AboveDilution,,,,,,\n"
            ),
        }
        for fmt, text in expected.items():
            assert cli("classify", "--p0", "300", "--mode", "paper", "--format", fmt) == (
                EXIT_OK, text, ""
            )

    def test_occupation(self, cli):
        n1, n2 = occupation_bose(0.5, 1.0), occupation_bose(0.5, 2.0)
        expected = {
            "text": f"0.0 1.0\n1.0 {n1!r}\n2.0 {n2!r}\n",
            "json": (
                '[\n  {\n    "beta_eps": 0.0,\n    "occupation": 1.0\n  },\n'
                f'  {{\n    "beta_eps": 1.0,\n    "occupation": {n1!r}\n  }},\n'
                f'  {{\n    "beta_eps": 2.0,\n    "occupation": {n2!r}\n  }}\n]\n'
            ),
            "csv": f"beta_eps,occupation\n0.0,1.0\n1.0,{n1!r}\n2.0,{n2!r}\n",
        }
        argv = (
            "occupation", "--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "2", "--steps", "3"
        )
        for fmt, text in expected.items():
            assert cli(*argv, "--format", fmt) == (EXIT_OK, text, "")

    def test_sweep(self, cli):
        first, last = classify_both(199.53), classify_both(300.0)
        k1, pair, k2 = first.coupling, first.fugacity, last.coupling
        csv = (
            "p0,K,paper_label,selfconsistent_label,branch,z,z_prime,b,flags\n"
            f"199.53,{k1!r},Condensation,NormalBose,bose,{pair.z!r},{pair.z_prime!r},{pair.b!r},"
            "overlaps_fermionic_range|near_threshold\n"
            f"300.0,{k2!r},AboveDilution,AboveDilution,,,,,no_bose_root\n"
        )
        expected = {
            "text": csv,
            "csv": csv,
            "json": (
                f'[\n  {{\n    "p0": 199.53,\n    "K": {k1!r},\n'
                '    "paper_label": "Condensation",\n'
                '    "selfconsistent_label": "NormalBose",\n    "branch": "bose",\n'
                f'    "z": {pair.z!r},\n    "z_prime": {pair.z_prime!r},\n    "b": {pair.b!r},\n'
                '    "flags": [\n      "overlaps_fermionic_range",\n      "near_threshold"\n'
                '    ]\n  },\n'
                f'  {{\n    "p0": 300.0,\n    "K": {k2!r},\n    "paper_label": "AboveDilution",\n'
                '    "selfconsistent_label": "AboveDilution",\n    "branch": null,\n'
                '    "z": null,\n    "z_prime": null,\n    "b": null,\n'
                '    "flags": [\n      "no_bose_root"\n    ]\n  }\n]\n'
            ),
        }
        argv = ("sweep", "--p-min", "199.53", "--p-max", "300", "--steps", "2")
        for fmt, text in expected.items():
            assert cli(*argv, "--format", fmt) == (EXIT_OK, text, "")


class TestEnvironment:
    def test_window_env_widens_match(self, cli, monkeypatch):
        monkeypatch.setenv("QGAS_WINDOW", "0.05")
        code, out, _ = cli("classify", "--p0", "202", "--mode", "paper", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["paper_label"] == "Condensation"

    def test_flag_overrides_env(self, cli, monkeypatch):
        monkeypatch.setenv("QGAS_WINDOW", "0.05")
        code, out, _ = cli(
            "classify", "--p0", "202", "--mode", "paper",
            "--window", "0.001", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["paper_label"] == "AnomalousFermionic"

    def test_tolerance_env(self, cli, monkeypatch):
        monkeypatch.setenv("QGAS_TOL", "1e-10")
        code, _, _ = cli("classify", "--p0", "193.61")
        assert code == EXIT_OK

    @pytest.mark.parametrize("name,value", [("QGAS_TOL", "banana"), ("QGAS_WINDOW", "")])
    def test_invalid_env_is_usage(self, cli, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, out, err = cli("classify", "--p0", "200")
        assert code == EXIT_USAGE
        assert out == ""
        assert name in err


# The shortest valid invocation of each subcommand, and every option it takes besides --help.
_MINIMAL_ARGV = {
    "polylog": ("--kind", "bose", "--z", "0.5"),
    "thresholds": (),
    "classify": ("--p0", "200"),
    "sweep": ("--p-min", "100", "--p-max", "120", "--steps", "3"),
    "occupation": ("--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "1", "--steps", "2"),
}
_OPTIONS = {
    "polylog": {"--kind", "--z", "--tolerance", "--max-terms", "--format", "--out"},
    "thresholds": {"--b", "--tolerance", "--max-terms", "--format", "--out"},
    "classify": {"--p0", "--mode", "--tolerance", "--max-terms", "--window", "--format", "--out"},
    "sweep": {
        "--p-min", "--p-max", "--steps", "--mode",
        "--tolerance", "--max-terms", "--window", "--format", "--out",
    },
    "occupation": {
        "--z", "--branch", "--beta-eps-min", "--beta-eps-max", "--steps", "--format", "--out"
    },
}
# A value for each setting; a negative tolerance is a domain error only where it is taken.
_SETTING_VALUES = {"--tolerance": "-1", "--max-terms": "10", "--window": "0.1"}
_VARIABLES = {"QGAS_TOL": "--tolerance", "QGAS_WINDOW": "--window"}


class TestSettings:
    """Each subcommand takes, reads and checks only the settings it uses."""

    @pytest.mark.parametrize("command", _MINIMAL_ARGV)
    def test_option_set(self, cli, command):
        code, out, _ = cli(command, "--help")
        assert code == EXIT_OK
        assert set(re.findall(r"--[a-z][a-z0-9-]*", out)) == _OPTIONS[command] | {"--help"}
        for flag, value in _SETTING_VALUES.items():
            if flag not in _OPTIONS[command]:
                assert cli(command, *_MINIMAL_ARGV[command], flag, value) == (
                    EXIT_USAGE, "", f"usage error: unrecognized arguments: {flag} {value}\n"
                )

    @pytest.mark.parametrize("variable", _VARIABLES)
    @pytest.mark.parametrize("command", _MINIMAL_ARGV)
    def test_variable_is_read_only_with_its_setting(self, cli, monkeypatch, command, variable):
        argv = (command, *_MINIMAL_ARGV[command])
        unset = cli(*argv)
        monkeypatch.setenv(variable, "x")
        if _VARIABLES[variable] in _OPTIONS[command]:
            message = f"usage error: environment variable {variable} is not a number: 'x'\n"
            assert cli(*argv) == (EXIT_USAGE, "", message)
        else:
            assert unset[0] == EXIT_OK
            assert cli(*argv) == unset


class TestContract:
    def test_missing_subcommand(self, cli):
        code, _, _ = cli()
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, cli):
        code, _, _ = cli("entropy")
        assert code == EXIT_USAGE

    def test_exit_codes_are_distinct(self):
        assert [EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_NUMERIC, EXIT_IO] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "argv",
        [
            ("polylog", "--kind", "bose", "--z", "0.7"),
            ("thresholds",),
            ("thresholds", "--b", "1.2"),
            ("classify", "--p0", "205.93"),
            ("classify", "--p0", "100", "--mode", "paper"),
            ("sweep", "--p-min", "100", "--p-max", "140", "--steps", "4"),
            ("occupation", "--z", "0.4", "--beta-eps-min", "0", "--beta-eps-max", "2", "--steps", "3"),
        ],
    )
    def test_every_subcommand_emits_valid_json(self, cli, argv):
        code, out, _ = cli(*argv, "--format", "json")
        assert code == EXIT_OK
        assert _nonfinite("json", out) == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--p0", "1e-320", "--mode", "paper", "--format", "json"),
            ("thresholds", "--b", "1e-310", "--format", "json"),
            ("thresholds", "--b", "1e308"),
        ],
    )
    def test_overflowing_momentum_is_domain(self, cli, argv):
        code, out, err = cli(*argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "domain error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("polylog", "--kind", "fermi", "--z", "0.9"),
            ("thresholds", "--b", "1.2"),
            ("classify", "--p0", "205.0"),
            ("sweep", "--p-min", "100", "--p-max", "300", "--steps", "3"),
            ("occupation", "--z", "0.4", "--beta-eps-min", "0", "--beta-eps-max", "2",
             "--steps", "3"),
        ],
    )
    def test_no_series_setting(self, cli, monkeypatch, argv):
        # The Fermi variant changes no output, so neither a flag nor QGAS_SERIES names one.
        code, out, err = cli(*argv, "--series", "full")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --series full" in err
        expected = cli(*argv)
        monkeypatch.setenv("QGAS_SERIES", "cubic")
        assert cli(*argv) == expected

    @pytest.mark.parametrize(
        "argv",
        [(), ("polylog",), ("thresholds",), ("classify",), ("sweep",), ("occupation",)],
        ids=lambda argv: " ".join(("qgas", *argv)),
    )
    def test_help_returns_zero(self, cli, argv):
        # main returns the exit code for --help too; argparse would raise SystemExit.
        code, out, err = cli(*argv, "--help")
        assert code == EXIT_OK
        assert out.startswith("usage: qgas")
        assert err == ""

    def test_help_process_exits_zero(self):
        src = os.path.dirname(os.path.dirname(qgas.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "qgas", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.startswith("usage: qgas")

    def test_import_loads_no_heavy_module(self):
        # The records are plain classes, no qgas code imports json, and
        # every annotation evaluates as written, without __future__; grid
        # steps are checked without the numbers ABCs.
        heavy = "{'__future__', 'dataclasses', 'inspect', 'json', 'numbers'}"
        probe = f"import sys, qgas.cli; print(sorted({heavy} & set(sys.modules)))"
        src = os.path.dirname(os.path.dirname(qgas.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert done.stdout.strip() == "[]"

    def test_json_output_loads_no_json_module(self):
        # One writer builds the tables' JSON by string formatting, so JSON output,
        # like every other, runs without the json module.
        probe = (
            "import sys, qgas.cli as cli; "
            "codes = [cli.main(['sweep', '--p-min', '100', '--p-max', '200', '--steps', '3', "
            "'--format', 'json']), cli.main(['classify', '--p0', '150', '--format', 'json'])]; "
            "sys.exit(0 if codes == [0, 0] and 'json' not in sys.modules else 'json loaded')"
        )
        src = os.path.dirname(os.path.dirname(qgas.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        sweep, classify = done.stdout.split("\n]\n")  # the sweep's array, then the classify object
        assert len(json.loads(sweep + "]")) == 3 and json.loads(classify)["p0"] == 150.0

    def test_nonnumeric_flag_value_is_usage(self, cli):
        code, _, _ = cli("classify", "--p0", "many")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "value",
        ["-2", "-.5", "-5.", "-4e2", "-1E-3", "-1e+3", "-1_0", "-inf", "-Infinity", "-nan", "-NaN"],
    )
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("classify",), "--p0"),
            (("polylog", "--kind", "bose"), "--z"),
            (("thresholds",), "--b"),
            (("sweep", "--p-max", "3", "--steps", "3"), "--p-min"),
            (("sweep", "--p-min", "1", "--p-max", "3"), "--steps"),
            (("occupation", "--z", "0.5", "--branch", "fermi", "--beta-eps-max", "1",
              "--steps", "2", "--format", "json"), "--beta-eps-min"),
            (("thresholds", "--b", "1.2"), "--tolerance"),
            (("thresholds", "--b", "1.2"), "--max-terms"),
            (("classify", "--p0", "150"), "--window"),
        ],
        ids=lambda item: item if isinstance(item, str) else item[0],
    )
    def test_negative_number_reads_alike_with_or_without_equals(self, cli, argv, flag, value):
        # argparse alone takes "-4e2", "-inf" or "-nan" after a flag for an option name.
        assert cli(*argv, flag, value) == cli(*argv, f"{flag}={value}")

    def test_negative_number_spellings(self, cli):
        assert cli("classify", "--p0", "-4e2")[0] == EXIT_DOMAIN
        assert cli("sweep", "--p-min", "-inf", "--p-max", "3", "--steps", "3")[0] == EXIT_DOMAIN
        fermi = (
            "occupation", "--z", "0.5", "--branch", "fermi", "--beta-eps-max", "1", "--steps", "2"
        )
        code, out, _ = cli(*fermi, "--beta-eps-min", "-1E-3")
        assert (code, out) == cli(*fermi, "--beta-eps-min=-0.001")[:2]
        assert code == EXIT_OK
        assert cli("classify", "--p0", "-x")[0] == EXIT_USAGE

    def test_domain_error_for_bad_tolerance_value(self, cli):
        # Every setting a subcommand takes is checked, whether or not this run uses it.
        for argv in (
            ("polylog", "--kind", "bose", "--z", "0.5", "--tolerance", "-1"),
            ("classify", "--p0", "150", "--mode", "self", "--window", "-1"),
            ("thresholds", "--b", "1.2", "--max-terms", "0"),
        ):
            code, out, _ = cli(*argv)
            assert (code, out) == (EXIT_DOMAIN, ""), argv

    @pytest.mark.parametrize(
        "argv,shown",
        [
            (("classify", "--p0", "193.6", "--mode", "self", "--tolerance", "2", "--format", "csv"), "2.0"),
            (("classify", "--p0", "150", "--tolerance", "0.9999999990000001"), "0.9999999990000001"),
            (("sweep", "--p-min", "150", "--p-max", "250", "--steps", "3", "--tolerance", "2"), "2.0"),
            (("thresholds", "--tolerance", "1e300"), "1e+300"),
            (("thresholds", "--tolerance", "2", "--format", "json"), "2.0"),
        ],
    )
    def test_tolerance_wider_than_the_bracket_is_domain(self, cli, argv, shown):
        # A width past [1e-9, 1] would return the bracket midpoint as a root.
        message = f"tol must be at most the bracket width 0.999999999 of [1e-09, 1.0], got {shown}"
        assert cli(*argv) == (EXIT_DOMAIN, "", f"domain error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--p0", "150", "--mode", "paper", "--tolerance", "2"),
            ("sweep", "--p-min", "150", "--p-max", "250", "--steps", "3", "--mode", "paper",
             "--tolerance", "2"),
            ("thresholds", "--b", "1.4", "--tolerance", "2"),
        ],
    )
    def test_tolerance_wider_than_the_bracket_where_no_root_is_solved(self, cli, argv):
        code, out, err = cli(*argv)
        assert (code, err) == (EXIT_OK, "")
        assert out != ""


# Edge values for every real argument: signed zero, subnormals, the ends of
# the fugacity range and their float neighbours, e, a mid momentum and the
# top of the double range.
_EDGES = (
    "0", "-0.0", "5e-324", "1e-310", "1e-300", "0.19", "0.5", "0.999", "0.9999999999999999",
    "1", "1.0000000000000002", repr(math.e), "150", "1e300", "1.7e308",
)


def _scan_cases(command):
    """The argument lists of one subcommand over the edge values."""
    if command == "polylog":
        return [("--kind", kind, "--z", z) for kind in ("bose", "fermi", "fermi3") for z in _EDGES]
    if command == "thresholds":
        return [(), *(("--b", b) for b in _EDGES)]
    if command == "classify":
        return [("--p0", p0, "--mode", mode) for mode in ("paper", "self", "both") for p0 in _EDGES]
    if command == "sweep":
        # Bounds that do not ascend are a usage error before any evaluation.
        return [
            ("--p-min", lo, "--p-max", hi, "--steps", "3")
            for lo in _EDGES for hi in _EDGES if float(lo) < float(hi)
        ]
    # The grid starts on each edge, so its first point is the edge itself.
    return [
        ("--z", z, "--branch", branch, "--beta-eps-min", lo, "--beta-eps-max", "1.7e308",
         "--steps", "3")
        for branch in ("bose", "fermi") for z in _EDGES for lo in _EDGES
    ]


class TestStrictNumbers:
    """Machine-readable output never holds a non-finite number, on any edge input."""

    @pytest.mark.parametrize(
        "command", ["polylog", "thresholds", "classify", "sweep", "occupation"]
    )
    def test_no_nonfinite_output(self, cli, command):
        failures = []
        for args in _scan_cases(command):
            for fmt in ("json", "csv"):
                argv = (command, *args, "--format", fmt)
                code, out, _ = cli(*argv)
                if code not in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_NUMERIC, EXIT_IO):
                    failures.append(f"{' '.join(argv)}: exit {code}")
                elif code == EXIT_OK and (reason := _nonfinite(fmt, out)):
                    failures.append(f"{' '.join(argv)}: {reason}")
        assert failures == []
