"""Command-line contract: subcommands, formats, exit codes, environment."""

import json
import math

import pytest

from qgas.cli import EXIT_DOMAIN, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from qgas.polylog import ZETA_3_2


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

    def test_singular_grid_point_is_domain(self, cli):
        code, out, err = cli(
            "occupation", "--z", "1", "--branch", "bose",
            "--beta-eps-min", "0", "--beta-eps-max", "1", "--steps", "3",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "beta_eps" in err

    def test_csv(self, cli):
        code, out, _ = cli(
            "occupation", "--z", "0.5", "--beta-eps-min", "0", "--beta-eps-max", "2",
            "--steps", "3", "--format", "csv",
        )
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        assert lines[0] == "beta_eps,occupation"
        assert len(lines) == 4


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

    def test_series_env(self, cli, monkeypatch):
        monkeypatch.setenv("QGAS_SERIES", "full")
        code, out, _ = cli("classify", "--p0", "205.0", "--mode", "self", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["selfconsistent_label"] == "NormalBose"

    @pytest.mark.parametrize(
        "name,value",
        [("QGAS_TOL", "banana"), ("QGAS_WINDOW", ""), ("QGAS_SERIES", "cubic")],
    )
    def test_invalid_env_is_usage(self, cli, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, out, err = cli("classify", "--p0", "200")
        assert code == EXIT_USAGE
        assert out == ""
        assert name in err


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
        json.loads(out)

    def test_nonnumeric_flag_value_is_usage(self, cli):
        code, _, _ = cli("classify", "--p0", "many")
        assert code == EXIT_USAGE

    def test_domain_error_for_bad_tolerance_value(self, cli):
        code, _, _ = cli("polylog", "--kind", "bose", "--z", "0.5", "--tolerance", "-1")
        assert code == EXIT_DOMAIN
