"""Self-tests of the benchmark harness: python3 -m pytest bench/selftest.py -q

Tiny runs of every workload, plus negative cases showing that a corrupted
output or a non-zero exit is counted as a failed op, and that a traced run
errors out when a layer it must exercise records no span.
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def bench(capsys, workload, trace=0, seed=5):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert list(result["metrics"]) == list(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]
    if trace == 0 and workload == "wide_alpha":
        # 10 of 27 ops certified at the seed commit; the other 17 are typed refusals.
        assert result["metrics"]["certified_share"]["value"] == pytest.approx(10 / 27)
    elif trace == 0:
        assert result["metrics"]["certified_share"]["value"] == 1.0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.UNITS[m["name"]] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_flipped_csv_byte_fails_the_op(capsys, monkeypatch):
    from laguerre_spacings import report

    original = report._write_atomic

    def corrupting(path, text):
        if path.name == "n10_alpha1.csv" and path.parent.name == "sweep":
            last = text[-2]
            text = text[:-2] + ("1" if last != "1" else "2") + text[-1]
        original(path, text)

    monkeypatch.setattr(report, "_write_atomic", corrupting)
    result = bench(capsys, "paper_sweep")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["certified_share"]["value"] == 0.0


def test_nonzero_exit_fails_the_op(capsys, monkeypatch):
    from laguerre_spacings import cli

    monkeypatch.setattr(cli, "cmd_figure1", lambda args: 1)
    result = bench(capsys, "paper_sweep")
    assert not result["correct"] and result["failed"] >= 1


def test_missing_layer_span_is_an_error(monkeypatch):
    from laguerre_spacings import solver

    moved = types.FunctionType(solver.eigen_zeros.__code__, solver.__dict__, "eigen_zeros")
    moved.__module__ = "elsewhere"  # as if the QL moved out of the wrapped modules
    monkeypatch.setattr(solver, "eigen_zeros", moved)
    with pytest.raises(RuntimeError, match="solver.eigen_zeros"):
        run.main(["--workload", "wide_alpha", "--seed", "1", "--seconds", "0.01",
                  "--trace", "1"])


def test_self_times_partition_nested_spans():
    tracer = Tracer()
    mod = types.ModuleType("toy")

    def leaf():
        return sum(range(2000))

    def middle():
        return mod.leaf() + mod.leaf()  # looked up at call time, as a module global is

    mod.leaf, mod.middle = leaf, middle
    for fn in (leaf, middle):
        fn.__module__ = "toy"
    tracer.install([mod])
    root = tracer.open("op")
    mod.middle()
    tracer.close(root)
    tracer.uninstall()
    tracer.check_nesting()
    assert [tracer.span_name(i) for i in range(len(tracer))] == [
        "op", "toy.middle", "toy.leaf", "toy.leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert sum(tracer.self_times()) == pytest.approx(tracer.end[0] - tracer.start[0])
    assert mod.leaf is leaf  # uninstall restored the original binding
