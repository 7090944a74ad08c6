"""Sweep/report and CLI surface tests: files, schema, determinism, exit codes."""

import hashlib
import json
import locale
import math
import os
import re
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from laguerre_spacings import (
    ConvergenceError,
    DomainError,
    LaguerreParams,
    ParameterError,
    RefinementError,
    SweepConfig,
    ZeroSet,
    bulk_stats,
    parse_sweep_config,
    run_sweep,
    spacing_rows,
    zeros,
)
from laguerre_spacings import bounds as bounds_module
from laguerre_spacings import cli
from laguerre_spacings import report as report_module
from laguerre_spacings.cli import build_parser, console_main, main
from laguerre_spacings.report import check_pair, pair_filename

NOT_TEXT = b"n_values = 10\n\xff\xfe\x80\n"  # not UTF-8


def _decodes(data: bytes) -> bool:
    """True if the locale's encoding, which Path.read_text uses, decodes data."""
    try:
        data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return False
    return True


class TestSpacingRows:
    def test_counts_and_indexing(self):
        zs = zeros(LaguerreParams(5, 1.0))
        table = spacing_rows(zs)
        assert table.spacing.shape == table.ratio.shape == (4,)
        # i = 1 (index 0) is the gap below the largest zero
        assert table.spacing[0] == zs.zeros[-1] - zs.zeros[-2]
        assert np.all(table.ratio >= 1.0)

    def test_single_pair_hand_values(self):
        table = spacing_rows(zeros(LaguerreParams(2, 0.0)))
        assert table.spacing.size == 1
        assert table.spacing[0] == pytest.approx(2 * math.sqrt(2), rel=1e-14)
        assert table.uniform_bound == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert table.ratio[0] == pytest.approx(4.0, rel=1e-13)

    def test_degenerate_degree_has_no_rows(self):
        table = spacing_rows(zeros(LaguerreParams(1, 3.0)))
        assert table.spacing.size == table.ratio.size == 0
        assert table.uniform_bound is None


class TestBulkStats:
    def test_regression_value(self):
        # Frozen after the first full run: 52 of the 81 bulk spacings of
        # (n=100, alpha=1e4) sit within a factor 2 of the uniform bound.
        zs = zeros(LaguerreParams(100, 1e4))
        assert bulk_stats(zs, 0.1) == pytest.approx(52 / 81, abs=1e-12)

    @pytest.mark.parametrize("n,epsilon", [(10, 0.1), (20, 0.25), (50, 0.1), (7, 0.3)])
    def test_rank_mask_matches_the_loop(self, n, epsilon):
        # The window's ends fall on whole ranks for (10, 0.1) and (20, 0.25).
        zs = zeros(LaguerreParams(n, 1e3))
        gaps, ub = zs.spacings_descending().tolist(), spacing_rows(zs).uniform_bound
        in_bulk = [gaps[i - 1] for i in range(1, n) if epsilon * n <= i <= (1 - epsilon) * n]
        assert bulk_stats(zs, epsilon) == sum(g <= 2.0 * ub for g in in_bulk) / len(in_bulk)

    def test_rejections(self):
        zs = zeros(LaguerreParams(10, 1.0))
        with pytest.raises(ParameterError):
            bulk_stats(zs, 0.5)
        with pytest.raises(ParameterError):
            bulk_stats(zs, 0.0)
        with pytest.raises(ParameterError):
            bulk_stats(zeros(LaguerreParams(2, 1.0)), 0.1)

    @pytest.mark.parametrize("epsilon", [1j, None, "0.1", [0.1], Decimal("0.1")])
    def test_epsilon_that_is_no_real_number_refused(self, epsilon):
        # each raised an untyped TypeError from the range test or the window's ends
        text = re.escape(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
        zs = zeros(LaguerreParams(10, 1.0))
        with pytest.raises(ParameterError, match=text):
            bulk_stats(zs, epsilon)
        with pytest.raises(ParameterError, match=text):
            check_pair(zs.params, ["bulk"], epsilon)


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

    def test_parse_refuses_a_repeated_key(self, tmp_path):
        # The second value used to replace the first silently: a grid of n = 20 only.
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_values = 10\nalpha_values = 1\nn_values = 20\n")
        with pytest.raises(ParameterError, match=re.escape(f"{bad}:3: duplicate key 'n_values'")):
            parse_sweep_config(bad)

    @pytest.mark.parametrize("line,key", [
        ("n_values = 10, x", "n_values"),
        ("alpha_values = 1, y", "alpha_values"),
        ("epsilon = abc", "epsilon"),
        ("output_dir =", "output_dir"),  # Path("") would be the working directory
    ])
    def test_parse_names_the_malformed_key(self, tmp_path, line, key):
        values = {"n_values": "n_values = 10", "alpha_values": "alpha_values = 1"}
        values[key] = line
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(values.values()) + "\n")
        with pytest.raises(ParameterError, match=f"malformed {key}"):
            parse_sweep_config(bad)

    @pytest.mark.parametrize("degree", [10.5, True])
    def test_degree_must_be_an_integer(self, degree):
        # Both were truncated: (10.5, True) ran n in (10, 1).
        with pytest.raises(ParameterError, match=re.escape(
                f"malformed n_values: degree must be an integer, got {degree!r}")):
            SweepConfig(n_values=(10, degree), alpha_values=(1.0,))
        assert SweepConfig(n_values=(np.int64(10), "3"), alpha_values=(1.0,)).n_values == (10, 3)

    @pytest.mark.parametrize("alpha", [True, False, np.True_])
    def test_alpha_must_not_be_a_bool(self, alpha):
        # float() ran True as alpha = 1.0, where LaguerreParams(10, True) refuses it.
        with pytest.raises(ParameterError, match=re.escape(
                f"malformed alpha_values: alpha must be a finite real, got {alpha!r}")):
            SweepConfig(n_values=(10,), alpha_values=(1.0, alpha))

    @pytest.mark.parametrize("values,message", [
        ({"alpha_values": (1.0, math.inf)}, "alpha_values: alpha must be a finite real, got inf"),
        ({"alpha_values": ("1", "nan")}, "alpha_values: alpha must be a finite real, got nan"),
        ({"alpha_values": (1.0, -1.0)}, "alpha_values: alpha must be > -1, got -1.0"),
        ({"alpha_values": (-2,)}, "alpha_values: alpha must be > -1, got -2.0"),
        ({"n_values": (10, 0)}, "n_values: degree must be >= 1, got 0"),
        ({"n_values": ("10", "-3")}, "n_values: degree must be >= 1, got -3"),
        ({"output_dir": ""}, "output_dir: expected a directory, got ''"),
    ])
    def test_bad_grid_values_refused_when_built(self, values, message):
        # Each was taken; a sweep then died partway on LaguerreParams.
        with pytest.raises(ParameterError, match=re.escape(f"malformed {message}")):
            SweepConfig(**{"n_values": (10,), "alpha_values": (1.0,), **values})

    @pytest.mark.parametrize("key,text", [
        ("n_values", "10"), ("alpha_values", "15"), ("checks", "bethe")])
    def test_string_for_a_list_is_malformed(self, key, text):
        # Iterated by character, n_values = "10" would run n in (1, 0).
        values = {"n_values": [10], "alpha_values": [15], key: text}
        with pytest.raises(ParameterError, match=f"malformed {key}: expected a list"):
            SweepConfig(**values)


class TestRunSweep:
    @pytest.mark.parametrize("grid", ["n_values = 10\nalpha_values = 1, inf",
                                      "n_values = 10, 0\nalpha_values = 1"])
    def test_bad_grid_writes_nothing(self, tmp_path, grid):
        # The sweep wrote n10_alpha1.csv, then died with no summary.json.
        out, config = tmp_path / "out", tmp_path / "bad.cfg"
        config.write_text(f"{grid}\noutput_dir = {out}\n")
        with pytest.raises(ParameterError):
            main(["sweep", "--config", str(config)])
        assert not out.exists()

    def test_empty_output_dir_writes_nothing(self, tmp_path, monkeypatch):
        # It ran as ".", writing every CSV and summary.json into the working directory.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "bad.cfg"
        config.write_text("n_values = 10\nalpha_values = 1\noutput_dir =\n")
        with pytest.raises(ParameterError, match="malformed output_dir"):
            main(["sweep", "--config", str(config)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]
        config.write_text("n_values = 10\nalpha_values = 1\noutput_dir = .\n")
        assert parse_sweep_config(config).output_dir == Path(".")

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
        table = spacing_rows(zeros(LaguerreParams(4, 2.0)))
        for row, line in enumerate(text[1:]):
            i, spacing, bound, ratio = line.split(",")
            assert int(i) == row + 1
            assert float(spacing) == table.spacing[row]  # 17 digits round-trip
            assert float(bound) == table.uniform_bound
            assert float(ratio) == table.ratio[row]

    def test_empty_checks_produce_null_summary_fields(self, tmp_path):
        cfg = SweepConfig(n_values=(3,), alpha_values=(1.0,),
                          checks=frozenset(), output_dir=tmp_path)
        summary = run_sweep(cfg)
        pair = summary["pairs"][0]
        # min_ratio is reported even when bounds is not checked
        table = spacing_rows(zeros(LaguerreParams(3, 1.0)))
        assert pair["min_ratio"] == min(table.ratio.tolist())
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

    def test_nan_residual_fails_closed(self, tmp_path, monkeypatch, capsys):
        # A NaN residual is no pass: verify and sweep both report bethe
        # failing and exit 1.
        import laguerre_spacings.bethe as bethe_module

        verify_identity = bethe_module.verify_identity

        def nan_residuals(zs):
            check = verify_identity(zs)
            return replace(check, rel_residual=np.full(zs.n, math.nan))

        monkeypatch.setattr(bethe_module, "verify_identity", nan_residuals)
        assert main(["verify", "--n", "5", "--alpha", "1", "--checks", "bethe"]) == 1
        assert capsys.readouterr().out == "bethe: max residual nan (FAIL at 1e-08)\n"
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(
            f"n_values = 5\nalpha_values = 1\nchecks = bethe\noutput_dir = {tmp_path / 'o'}\n"
        )
        assert main(["sweep", "--config", str(cfg_file)]) == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [f["check"] for f in summary["failures"]] == ["bethe"]
        assert math.isnan(summary["pairs"][0]["max_bethe_residual"])

    def test_nan_pairwise_sum_fails_closed(self, tmp_path, monkeypatch, capsys):
        # A nan pairwise sum in a middle rank is a nan identity residual, so
        # verify and a one-pair sweep both fail bethe rather than pass it.
        import laguerre_spacings.bethe as bethe_module

        pairwise_sums = bethe_module._pairwise_sums

        def nan_middle_row(x, rows):
            sums = pairwise_sums(x, rows)
            sums[sums.size // 2] = math.nan
            return sums

        monkeypatch.setattr(bethe_module, "_pairwise_sums", nan_middle_row)
        assert main(["verify", "--n", "10", "--alpha", "1"]) == 1
        assert "bethe: max residual nan (FAIL at 1e-08)\n" in capsys.readouterr().out
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(f"n_values = 10\nalpha_values = 1\noutput_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [f["check"] for f in summary["failures"]] == ["bethe"]


class TestCheckPair:
    @pytest.mark.parametrize("checks,message", [
        (["bogus"], "unknown checks: ['bogus']"),
        ({"bethe", "bulk", "bound"}, "unknown checks: ['bound']"),
        ("bethe,bounds", "malformed checks: expected a list, got the string 'bethe,bounds'"),
        ("bethe", "malformed checks: expected a list, got the string 'bethe'"),
    ])
    def test_names_outside_the_valid_checks_refused(self, checks, message):
        # ["bogus"] ran no check and passed; a string ran every check it held as a substring.
        with pytest.raises(ParameterError, match=re.escape(message)):
            check_pair(LaguerreParams(10, 1.0), checks)

    @pytest.mark.parametrize("build", [
        lambda checks: check_pair(LaguerreParams(10, 1.0), checks),
        lambda checks: SweepConfig(n_values=(10,), alpha_values=(1.0,), checks=checks),
    ], ids=["check_pair", "SweepConfig"])
    @pytest.mark.parametrize("checks,message", [
        ([["bethe"]], "malformed checks: unhashable type: 'list'"),  # was an untyped TypeError
        (["x", 1], "unknown checks: ['x', 1]"),  # was TypeError from sorted()
        ({"bethe", 1}, "unknown checks: [1]"),
        (5, "malformed checks: 'int' object is not iterable"),
    ])
    def test_one_rule_refuses_names_of_any_type(self, build, checks, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            build(checks)

    def test_any_collection_of_names_runs_them(self):
        pair = check_pair(LaguerreParams(10, 1.0), (c for c in ("bethe", "bulk")))
        assert pair.max_bethe_residual is not None and pair.bulk_fraction is not None
        assert pair.krasikov_window is None and pair.failed == {}

    @pytest.mark.parametrize("scale", [10.0, math.nan])
    def test_bound_above_a_spacing_fails(self, monkeypatch, scale, capsys):
        uniform_spacing_lower = bounds_module.uniform_spacing_lower
        monkeypatch.setattr(bounds_module, "uniform_spacing_lower",
                            lambda params: scale * uniform_spacing_lower(params))
        pair = check_pair(LaguerreParams(10, 1.0), {"bounds"})
        assert pair.failed == {"bounds": f"minimum spacing/bound ratio {pair.min_ratio} fell below 1"}
        assert not pair.min_ratio >= 1.0
        assert main(["verify", "--n", "10", "--alpha", "1", "--checks", "bounds"]) == 1
        assert capsys.readouterr().out.endswith("(FAIL)\n")

    @pytest.mark.parametrize("window", ["above the smallest zero", "below the largest zero", "nan"])
    def test_zeros_outside_the_window_fail(self, monkeypatch, window, capsys):
        params = LaguerreParams(10, 1.0)
        z = zeros(params).zeros
        fake = {"above the smallest zero": (0.5 * (z[0] + z[1]), math.inf),
                "below the largest zero": (0.0, 0.5 * (z[-2] + z[-1])),
                "nan": (math.nan, math.nan)}[window]
        monkeypatch.setattr(bounds_module, "krasikov_window", lambda p: fake)
        pair = check_pair(params, {"krasikov"})
        assert pair.krasikov_ok is False and pair.krasikov_window == fake
        assert pair.failed == {"krasikov": "extreme zeros escaped the sharpened window"}
        assert main(["verify", "--n", "10", "--alpha", "1", "--checks", "krasikov"]) == 1
        assert capsys.readouterr().out.endswith("(FAIL)\n")


def test_write_atomic_leaves_no_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(report_module.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        report_module._write_atomic(tmp_path / "pair.csv", "i,spacing\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_outputs_get_the_mode_open_gives(tmp_path, umask, mode):
    # Every output took mkstemp's 0o600 whatever the umask.
    config = SweepConfig(n_values=(3,), alpha_values=(1.0,), output_dir=tmp_path / "sweep")
    old = os.umask(umask)
    try:
        run_sweep(config)
        report_module.figure1(tmp_path / "figure1")
    finally:
        os.umask(old)
    written = sorted((tmp_path / "sweep").iterdir()) + sorted((tmp_path / "figure1").iterdir())
    assert len(written) == 2 + 17
    assert {stat.S_IMODE(path.stat().st_mode) for path in written} == {mode}


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


def _paper_grid_run(tmp_path) -> dict:
    """sweep and figure1 on the paper grid: {sub: {file name: sha256}}."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_values = 10,20,50,100\nalpha_values = 1,100,1000,10000\n"
                   f"checks = bethe,bounds,krasikov,bulk\noutput_dir = {tmp_path / 'sweep'}\n")
    main(["sweep", "--config", str(cfg)])
    main(["figure1", "--out", str(tmp_path / "figure1")])
    return {sub: {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted((tmp_path / sub).iterdir())}
            for sub in ("sweep", "figure1")}


class TestCoreCount:
    """sweep and figure1 solve their pairs one process per usable core, and write the
    same bytes, raise the same error and leave no child behind whatever that count."""

    @pytest.fixture(params=[1, 4], ids=["one_core", "four_cores"])
    def cores(self, request, monkeypatch):
        """The core count report sees; after the test, no child of this process is left."""
        monkeypatch.setattr(report_module.os, "sched_getaffinity",  # absent on some platforms
                            lambda pid: set(range(request.param)), raising=False)
        yield request.param
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_bytes_and_summary_do_not_depend_on_the_core_count(self, tmp_path, cores,
                                                               monkeypatch, capsys):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(report_module.os, "fork", counted_fork)
        got = _paper_grid_run(tmp_path)
        assert got == json.loads(PAPER_GRID_DIGESTS.read_text())  # summary.json among them
        assert capsys.readouterr().out.startswith("wrote 16 pair CSVs and summary.json")
        assert len(forks) == 2 * (cores - 1)  # one child per core past the first, per command

    def test_a_failing_pair_raises_its_own_error_after_the_csvs_before_it(
            self, tmp_path, cores, monkeypatch):
        # (20, 100) fails in the second share and (100, 1) in the first, the caller's:
        # the earlier pair in grid order raises, with the 5 CSVs before it written.
        real_check_pair = report_module.check_pair

        def doctored(params, checks, epsilon=0.1):
            if (params.n, params.alpha) in ((20, 100.0), (100, 1.0)):
                raise RefinementError(f"doctored failure at n={params.n} alpha={params.alpha}")
            return real_check_pair(params, checks, epsilon)

        monkeypatch.setattr(report_module, "check_pair", doctored)
        config = SweepConfig(report_module.DEFAULT_N_VALUES, report_module.DEFAULT_ALPHA_VALUES,
                             output_dir=tmp_path / "sweep")
        with pytest.raises(RefinementError, match=r"^doctored failure at n=20 alpha=100.0$"):
            run_sweep(config)
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == sorted(
            [pair_filename(10, a) for a in report_module.DEFAULT_ALPHA_VALUES]
            + [pair_filename(20, 1.0)])

    def test_a_child_that_dies_leaves_the_bytes_unchanged(self, tmp_path, cores, monkeypatch,
                                                          capsys):
        parent, real_check_pair = os.getpid(), report_module.check_pair

        def dies_in_a_child(params, checks, epsilon=0.1):
            if os.getpid() != parent:
                os._exit(1)
            return real_check_pair(params, checks, epsilon)

        monkeypatch.setattr(report_module, "check_pair", dies_in_a_child)
        assert _paper_grid_run(tmp_path) == json.loads(PAPER_GRID_DIGESTS.read_text())

    def test_no_fork_beside_a_second_thread(self, tmp_path, cores, monkeypatch):
        def refuse():
            raise AssertionError("forked beside a second thread")

        monkeypatch.setattr(report_module.os, "fork", refuse)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            report_module.figure1(tmp_path / "figure1")
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(list((tmp_path / "figure1").glob("*.csv"))) == 16


class TestFilenames:
    @pytest.mark.parametrize("n,alpha,name", [
        (10, 1.0, "n10_alpha1.csv"),
        (10, 1e4, "n10_alpha10000.csv"),
        (2, -0.9, "n2_alpha-0.9.csv"),
        (50, -0.5, "n50_alpha-0.5.csv"),
        (10, 0.0, "n10_alpha0.csv"),
        (10, 1.0000001, "n10_alpha1.0000001.csv"),  # "g" gave n10_alpha1.csv
        (10, 1e-7 - 1.0, "n10_alpha-0.9999999.csv"),
        (10, 1.5e-300, "n10_alpha1.5e-300.csv"),
        (10, 2.0**53 - 1.0, "n10_alpha9007199254740991.csv"),  # the last digits tag
        (10, 2.0**53, "n10_alpha9007199254740992.0.csv"),
        (1, 1e296, "n1_alpha1e+296.csv"),  # its 297 digits overran a file name
    ])
    def test_tags(self, n, alpha, name):
        assert pair_filename(n, alpha) == name

    def test_a_sweep_writes_one_csv_per_grid_point(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"n_values = 3, 10\nalpha_values = 1, 1.0000001, 0.5\n"
                          f"output_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("wrote 6 pair CSVs")
        assert len(list((tmp_path / "out").glob("*.csv"))) == 6

    def test_a_sweep_at_alpha_1e296_writes_its_csv(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"n_values = 1\nalpha_values = 1e296\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("wrote 1 pair CSVs")
        assert [p.name for p in (tmp_path / "out").glob("*.csv")] == ["n1_alpha1e+296.csv"]


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

    def test_bounds_auto_applies_where_n_over_c_rounds_above_alpha(self, capsys):
        # auto C = 9/1000, and 1000 >= 9/C rounds false
        assert main(["bounds", "--n", "9", "--alpha", "1000"]) == 0
        out = capsys.readouterr().out
        assert "large-alpha bound (C = 0.009): " in out
        assert "not applicable" not in out

    def test_bounds_auto_with_subnormal_alpha(self, capsys):
        assert main(["bounds", "--n", "3", "--alpha", "5e-324"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "large-alpha bound: not applicable (needs alpha >= n/C)"

    def test_bounds_degree_one(self, capsys):
        assert main(["bounds", "--n", "1", "--alpha", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [
            "uniform spacing lower bound: not applicable (n = 1 has no spacings)",
            "large-alpha bound: not applicable (n = 1 has no spacings)",
        ]

    def test_verify_pass(self, capsys):
        assert main(["verify", "--n", "10", "--alpha", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    # Exact stdout and exit codes of verify, including the user's check order
    # and repeats; a change to either is a change of the CLI contract.
    @pytest.mark.parametrize("argv,out", [
        (["--n", "1", "--alpha", "1"],
         "bethe: max residual 0 (PASS at 1e-08)\n"
         "bounds: no spacings for n = 1 (skipped)\n"
         "krasikov: window [1.57415, 3.45376] (PASS)\n"),
        (["--n", "10", "--alpha", "1"],
         "bethe: max residual 1.03e-15 (PASS at 1e-08)\n"
         "bounds: min spacing/bound ratio 2.50998 (PASS)\n"
         "krasikov: window [0.263381, 35.3178] (PASS)\n"),
        (["--n", "10", "--alpha", "1", "--checks", "krasikov,bethe,bethe"],
         "krasikov: window [0.263381, 35.3178] (PASS)\n"
         "bethe: max residual 1.03e-15 (PASS at 1e-08)\n"
         "bethe: max residual 1.03e-15 (PASS at 1e-08)\n"),
    ])
    def test_verify_output_pinned(self, argv, out, capsys):
        assert main(["verify", *argv]) == 0
        assert capsys.readouterr().out == out

    # Exact stdout of spacings and bessel-probe (the latter with a False band
    # flag: the alpha = 0.3 gaps sit just below pi).
    @pytest.mark.parametrize("argv,out", [
        (["spacings", "--n", "4", "--alpha", "0.5"],
         "   i                   spacing             uniform_bound         ratio\n"
         "   1        5.0450500676392132        0.5539117094069973       9.10804\n"
         "   2        2.9807387829076171        0.5539117094069973       5.38125\n"
         "   3        1.6331226865308253        0.5539117094069973       2.94834\n"),
        (["bessel-probe", "--alpha", "0.3", "--k", "3", "--ngrid", "10,20"],
         "zeros of J_0.3: 2.85409722438, 5.98222132186, 9.11933899289, 12.2587154701\n"
         "gap band [pi, 2pi] holds: False; pair sums >= 1+alpha: True\n"
         "squared-zero difference: 67.1137613084; scaled-spacing limit: 16.7784403271\n"
         "     n     scaled spacing    deviation\n"
         "    10      17.5477783277       0.0459\n"
         "    20      16.9719859114       0.0115\n"),
    ])
    def test_table_output_pinned(self, argv, out, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_verify_fail_output_pinned(self, monkeypatch, capsys):
        import laguerre_spacings.report as report_module

        monkeypatch.setattr(report_module, "BETHE_RESIDUAL_TOL", 1e-30)
        assert main(["verify", "--n", "10", "--alpha", "1"]) == 1
        assert capsys.readouterr().out == (
            "bethe: max residual 1.03e-15 (FAIL at 1e-30)\n"
            "bounds: min spacing/bound ratio 2.50998 (PASS)\n"
            "krasikov: window [0.263381, 35.3178] (PASS)\n")

    def test_verify_fails_a_range_below_the_telescoped_bracket(self, monkeypatch, capsys):
        # At n = 2, alpha = 1e4 the bracket's lower side (141.4) is above the
        # uniform bound (122.5); zeros 100 apart sit inside the sharpened
        # window and (V^2, U^2) but below the bracket, and must fail.
        import laguerre_spacings.report as report_module

        params = LaguerreParams(2, 1e4)
        fake = ZeroSet(params=params, zeros=np.array([9950.0, 10050.0]), residuals=np.zeros(2))
        monkeypatch.setattr(report_module, "zeros", lambda p: fake)
        assert main(["verify", "--n", "2", "--alpha", "1e4", "--checks", "krasikov"]) == 1
        assert capsys.readouterr().out == "krasikov: window [9887.34, 10118.3] (FAIL)\n"
        assert "telescoped bracket" in report_module.check_pair(params, {"krasikov"}).failed[
            "krasikov"]

    def test_parser_is_built_once_and_commands_resolve_per_call(self, monkeypatch, capsys):
        # A tracer rebinds cli.cmd_* after a warm-up call; the next call must run the new binding.
        assert build_parser() is build_parser()
        assert main(["verify", "--n", "2", "--alpha", "1"]) == 0
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert main(["verify", "--n", "2", "--alpha", "1"]) == 7

    def test_verify_rejects_unknown_check(self, capsys):
        assert main(["verify", "--n", "5", "--alpha", "1", "--checks", "bogus"]) == 2

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_verify_refuses_an_empty_check_list(self, checks, capsys):
        # It ran no check, printed nothing and exited 0.
        assert main(["verify", "--n", "5", "--alpha", "1", "--checks", checks]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "no checks given\n"

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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "5", "--alpha", "1", "--C", "abc"],
        ["bessel-probe", "--alpha", "0.5", "--k", "1", "--ngrid", "20,x"],
        ["bessel-probe", "--alpha", "0.5", "--k", "1", "--ngrid", "20.5"],
    ])
    def test_malformed_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {argv[-2]}: invalid" in err

    @pytest.mark.parametrize("argv,message", [
        (["--k", "20", "--ngrid", "30"], "rank must be in 1..19, got 20"),
        (["--k", "0", "--ngrid", "30"], "rank must be in 1..19, got 0"),
        (["--k", "1", "--ngrid", "1"], "rank 1 needs degrees of at least 2"),
    ])
    def test_bessel_probe_refuses_before_printing(self, argv, message, capsys):
        # Each printed the zero table (and the gap facts) before limit_probe refused it.
        with pytest.raises(ParameterError, match=re.escape(message)):
            main(["bessel-probe", "--alpha", "0.5", *argv])
        assert capsys.readouterr().out == ""

    def test_figure1_and_bessel_probe(self, tmp_path, capsys):
        assert main(["figure1", "--out", str(tmp_path / "fig")]) == 0
        files = sorted(p.name for p in (tmp_path / "fig").iterdir())
        assert len(files) == 17  # 16 CSVs + plot script
        assert "plot_figure1.py" in files

        assert main(["bessel-probe", "--alpha", "0.5", "--k", "1",
                     "--ngrid", "25,50"]) == 0
        out = capsys.readouterr().out
        assert "scaled-spacing limit" in out

    @pytest.mark.parametrize("argv,kind,status", [
        (["zeros", "--n", "0", "--alpha", "1"], ParameterError, 2),
        (["bessel-probe", "--alpha", "2", "--k", "1", "--ngrid", "25"], DomainError, 2),
        (["verify", "--n", "50", "--alpha", "1e26"], ConvergenceError, 3),
        (["verify", "--n", "3", "--alpha", "1e40"], RefinementError, 3),
    ])
    def test_console_script_names_a_package_error_in_one_line(self, argv, kind, status, capsys):
        with pytest.raises(kind):  # main raises, so in-process callers see the error itself
            main(argv)
        capsys.readouterr()
        assert console_main(argv) == status
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"laguerre-spacings: {kind.__name__}: ")

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--config", "missing.cfg"], "cannot read the config: "),
        (["figure1", "--out", "a-file"], "cannot make the output directory: "),
        pytest.param(["sweep", "--config", "binary.cfg"], "cannot read the config: ",
                     marks=pytest.mark.skipif(_decodes(NOT_TEXT), reason="the locale's encoding decodes every byte")),
    ], ids=["sweep-missing-config", "figure1-out-is-a-file", "sweep-config-not-text"])
    def test_console_script_refuses_an_unusable_path(self, tmp_path, argv, message, capsys):
        (tmp_path / "a-file").write_text("kept\n")
        (tmp_path / "binary.cfg").write_bytes(NOT_TEXT)
        path = tmp_path / argv[-1]
        assert console_main(argv[:-1] + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"laguerre-spacings: ParameterError: {path}: {message}")
        assert (tmp_path / "a-file").read_text() == "kept\n"

    @pytest.mark.parametrize("value,shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"),
                                             ("-1", "-1.0")])
    def test_bounds_refuses_a_constant_that_is_not_finite_and_positive(self, value, shown, capsys):
        assert console_main(["bounds", "--n", "10", "--alpha", "100", f"--C={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"laguerre-spacings: ParameterError: C must be a finite positive number, got {shown}\n")

    def test_console_script_keeps_the_check_and_usage_statuses(self, capsys):
        assert console_main(["verify", "--n", "10", "--alpha", "-0.99999999"]) == 1  # bethe FAIL
        assert console_main(["verify", "--n", "5", "--alpha", "1", "--checks", ","]) == 2
        with pytest.raises(SystemExit) as exc:
            console_main(["zeros", "--n", "five", "--alpha", "1"])
        assert exc.value.code == 2

    def test_module_run_exits_without_a_traceback(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "laguerre_spacings.cli", "zeros", "--n", "0",
                               "--alpha", "1"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "laguerre-spacings: ParameterError: degree must be >= 1, got 0\n"
