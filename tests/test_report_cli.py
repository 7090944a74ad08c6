"""Sweep/report and CLI surface tests: files, schema, determinism, exit codes."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from laguerre_spacings import (
    LaguerreParams,
    ParameterError,
    SweepConfig,
    bulk_stats,
    parse_sweep_config,
    run_sweep,
    spacing_rows,
    zeros,
)
from laguerre_spacings.cli import build_parser, main
from laguerre_spacings.report import pair_filename


class TestSpacingRows:
    def test_counts_and_indexing(self):
        zs = zeros(LaguerreParams(5, 1.0))
        rows = spacing_rows(zs)
        assert len(rows) == 4
        assert [r.i for r in rows] == [1, 2, 3, 4]
        # i = 1 is the gap below the largest zero
        assert rows[0].spacing == zs.zeros[-1] - zs.zeros[-2]
        assert all(r.ratio >= 1.0 for r in rows)

    def test_single_pair_hand_values(self):
        rows = spacing_rows(zeros(LaguerreParams(2, 0.0)))
        assert len(rows) == 1
        assert rows[0].spacing == pytest.approx(2 * math.sqrt(2), rel=1e-14)
        assert rows[0].uniform_bound == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert rows[0].ratio == pytest.approx(4.0, rel=1e-13)

    def test_degenerate_degree_has_no_rows(self):
        assert spacing_rows(zeros(LaguerreParams(1, 3.0))) == []


class TestBulkStats:
    def test_regression_value(self):
        # Frozen after the first full run: 52 of the 81 bulk spacings of
        # (n=100, alpha=1e4) sit within a factor 2 of the uniform bound.
        zs = zeros(LaguerreParams(100, 1e4))
        assert bulk_stats(zs, 0.1, 2.0) == pytest.approx(52 / 81, abs=1e-12)

    def test_range_contract(self):
        frac = bulk_stats(zeros(LaguerreParams(10, 1.0)), 0.1, 1.1)
        assert 0.0 <= frac <= 1.0

    def test_rejections(self):
        zs = zeros(LaguerreParams(10, 1.0))
        with pytest.raises(ParameterError):
            bulk_stats(zs, 0.5, 2.0)
        with pytest.raises(ParameterError):
            bulk_stats(zs, 0.0, 2.0)
        with pytest.raises(ParameterError):
            bulk_stats(zs, 0.1, 0.5)
        with pytest.raises(ParameterError):
            bulk_stats(zeros(LaguerreParams(2, 1.0)), 0.1, 2.0)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SweepConfig(n_values=(), alpha_values=(1.0,))
        with pytest.raises(ParameterError):
            SweepConfig(n_values=(2,), alpha_values=())
        with pytest.raises(ParameterError):
            SweepConfig(n_values=(2,), alpha_values=(1.0,), checks={"nope"})
        with pytest.raises(ParameterError):
            SweepConfig(n_values=(2,), alpha_values=(1.0,), epsilon=0.5)

    def test_parse_file(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# demo grid\n"
            "n_values = 2, 3\n"
            "alpha_values = 0, 1.5\n"
            "checks = bethe, bounds\n"
            "epsilon = 0.2\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        cfg = parse_sweep_config(cfg_file)
        assert cfg.n_values == (2, 3)
        assert cfg.alpha_values == (0.0, 1.5)
        assert cfg.checks == frozenset({"bethe", "bounds"})
        assert cfg.epsilon == 0.2
        assert cfg.output_dir == tmp_path / "out"

    def test_parse_empty_checks(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("n_values = 2\nalpha_values = 0\nchecks =\n")
        assert parse_sweep_config(cfg_file).checks == frozenset()

    def test_parse_rejects_unknown_and_missing(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_values = 2\nalpha_values = 0\nwhat = 3\n")
        with pytest.raises(ParameterError):
            parse_sweep_config(bad)
        bad.write_text("alpha_values = 0\n")
        with pytest.raises(ParameterError):
            parse_sweep_config(bad)
        bad.write_text("n_values: 2\n")
        with pytest.raises(ParameterError):
            parse_sweep_config(bad)


class TestRunSweep:
    def test_files_schema_and_determinism(self, tmp_path):
        cfg = SweepConfig(
            n_values=(3, 2),
            alpha_values=(1.0, 0.0),
            epsilon=0.1,
            output_dir=tmp_path / "out",
        )
        summary = run_sweep(cfg)
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == [
            "n2_alpha0.csv",
            "n2_alpha1.csv",
            "n3_alpha0.csv",
            "n3_alpha1.csv",
            "summary.json",
        ]
        assert summary["failures"] == []
        assert [(p["n"], p["alpha"]) for p in summary["pairs"]] == [
            (2, 0.0), (2, 1.0), (3, 0.0), (3, 1.0)
        ]
        for pair in summary["pairs"]:
            assert set(pair) == {
                "n", "alpha", "min_ratio", "max_bethe_residual",
                "krasikov_ok", "bulk_fraction",
            }
            assert pair["min_ratio"] >= 1.0
            assert pair["max_bethe_residual"] <= 1e-8
            assert pair["krasikov_ok"] is True
            if pair["n"] >= 3:
                assert 0.0 <= pair["bulk_fraction"] <= 1.0
            else:
                assert pair["bulk_fraction"] is None

        first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        run_sweep(cfg)
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert first == second

    def test_csv_contents_round_trip(self, tmp_path):
        cfg = SweepConfig(n_values=(4,), alpha_values=(2.0,),
                          output_dir=tmp_path)
        run_sweep(cfg)
        text = (tmp_path / "n4_alpha2.csv").read_text().splitlines()
        assert text[0] == "i,spacing,uniform_bound,ratio"
        assert len(text) == 4  # header + n-1 rows
        rows = spacing_rows(zeros(LaguerreParams(4, 2.0)))
        for line, row in zip(text[1:], rows):
            i, spacing, bound, ratio = line.split(",")
            assert int(i) == row.i
            assert float(spacing) == row.spacing  # 17 digits round-trip
            assert float(bound) == row.uniform_bound
            assert float(ratio) == row.ratio

    def test_empty_checks_produce_null_summary_fields(self, tmp_path):
        cfg = SweepConfig(n_values=(3,), alpha_values=(1.0,),
                          checks=frozenset(), output_dir=tmp_path)
        summary = run_sweep(cfg)
        pair = summary["pairs"][0]
        assert pair["max_bethe_residual"] is None
        assert pair["krasikov_ok"] is None
        assert pair["bulk_fraction"] is None
        assert summary["failures"] == []

    def test_failure_records_and_exit_contract(self, tmp_path, monkeypatch, capsys):
        # An impossible residual tolerance forces a named bethe failure and
        # a nonzero exit from the CLI.
        import laguerre_spacings.report as report_module

        monkeypatch.setattr(report_module, "BETHE_RESIDUAL_TOL", 1e-30)
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(
            f"n_values = 5\nalpha_values = 1\noutput_dir = {tmp_path / 'o'}\n"
        )
        code = main(["sweep", "--config", str(cfg_file)])
        assert code == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert len(summary["failures"]) == 1
        record = summary["failures"][0]
        assert record["check"] == "bethe"
        assert record["n"] == 5 and record["alpha"] == 1.0


PAPER_GRID_DIGESTS = (Path(__file__).resolve().parents[1]
                      / "bench" / "expected" / "paper_sweep_sha256.json")


def test_paper_grid_outputs_match_recorded_digests(tmp_path):
    # The benchmark's paper-grid sweep and figure1, checked byte for byte
    # against the sha256 digests it records; run-to-run determinism alone
    # would let a last-bit drift through.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_values = 10,20,50,100\n"
                   "alpha_values = 1,100,1000,10000\n"
                   "checks = bethe,bounds,krasikov,bulk\n"
                   f"output_dir = {tmp_path / 'sweep'}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["figure1", "--out", str(tmp_path / "figure1")]) == 0
    expected = json.loads(PAPER_GRID_DIGESTS.read_text())
    for sub in ("sweep", "figure1"):
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted((tmp_path / sub).iterdir())}
        assert got == expected[sub], sub


class TestFilenames:
    @pytest.mark.parametrize("n,alpha,name", [
        (10, 1.0, "n10_alpha1.csv"),
        (10, 1e4, "n10_alpha10000.csv"),
        (2, -0.9, "n2_alpha-0.9.csv"),
        (50, -0.5, "n50_alpha-0.5.csv"),
    ])
    def test_tags(self, n, alpha, name):
        assert pair_filename(n, alpha) == name


class TestCli:
    def test_zeros_json(self, capsys):
        assert main(["zeros", "--n", "2", "--alpha", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2
        assert payload["method"] == "eigen+newton"
        assert payload["near_degenerate_weight"] is False
        assert payload["zeros"][0] == pytest.approx(3 - math.sqrt(3), rel=1e-13)
        assert payload["zeros"][1] == pytest.approx(3 + math.sqrt(3), rel=1e-13)
        assert max(payload["residuals"]) <= 64.0

    def test_zeros_table(self, capsys):
        assert main(["zeros", "--n", "3", "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        assert "zeros of L_3^(0.0)" in out
        assert out.count("\n") == 5  # title + header + 3 rows

    def test_spacings(self, capsys):
        assert main(["spacings", "--n", "4", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # header + 3 rows

    def test_bounds_auto_and_fixed(self, capsys):
        assert main(["bounds", "--n", "10", "--alpha", "100"]) == 0
        out = capsys.readouterr().out
        assert "uniform spacing lower bound" in out
        assert "large-alpha bound (C = 0.1)" in out
        assert main(["bounds", "--n", "10", "--alpha", "5", "--C", "1"]) == 0
        out = capsys.readouterr().out
        assert "not applicable" in out

    def test_verify_pass(self, capsys):
        assert main(["verify", "--n", "10", "--alpha", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_verify_rejects_unknown_check(self, capsys):
        assert main(["verify", "--n", "5", "--alpha", "1", "--checks", "bogus"]) == 2

    def test_near_degenerate_flagged(self, capsys):
        # Checks are not run here: the identity budget is honest only for
        # alpha + 1 >= 1e-6; below that the run is flagged instead.
        assert main(["bounds", "--n", "3", "--alpha", "-0.9999999"]) == 0
        out = capsys.readouterr().out
        assert "alpha + 1 < 1e-6" in out

    @pytest.mark.parametrize("argv", [
        ["zeros", "--n", "3", "--alpha", "-2.3e-05"],
        ["spacings", "--n", "3", "--alpha", "-2.3e-05"],
        ["bounds", "--n", "3", "--alpha", "-2.3e-05"],
        ["verify", "--n", "3", "--alpha", "-2.3e-05"],
        ["bessel-probe", "--alpha", "-5e-01", "--k", "1", "--ngrid", "5,10"],
    ])
    def test_negative_alpha_in_exponent_notation(self, argv, capsys):
        given = argv[argv.index("--alpha") + 1]
        assert build_parser().parse_args(argv).alpha == float(given)
        assert main(argv) == 0

    def test_figure1_and_bessel_probe(self, tmp_path, capsys):
        assert main(["figure1", "--out", str(tmp_path / "fig")]) == 0
        files = sorted(p.name for p in (tmp_path / "fig").iterdir())
        assert len(files) == 17  # 16 CSVs + plot script
        assert "plot_figure1.py" in files

        assert main(["bessel-probe", "--alpha", "0.5", "--k", "1",
                     "--ngrid", "25,50"]) == 0
        out = capsys.readouterr().out
        assert "scaled-spacing limit" in out
