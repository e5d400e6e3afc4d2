"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest gcxbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run as bench
import workloads

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run_tiny(capsys, out_dir, workload, trace=0, seed=3):
    """One tiny run in this process; returns (exit code, result line)."""
    code = bench.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        tiny=True,
        out_dir=str(out_dir),
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_lists_the_code_s_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(capsys, tmp_path, workload, trace):
    code, result = run_tiny(capsys, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_child_spans_lie_inside_their_parents(capsys, tmp_path):
    code, _result = run_tiny(capsys, tmp_path, "served_sessions", trace=1)
    assert code == 0
    with open(tmp_path / "trace-served_sessions-seed3.json", encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    names = {span["name"] for span in spans}
    assert {"request", "xmlio.lex", "core.projector", "engine.run",
            "core.session", "client.request", "plan.compile",
            "plan.codegen"} <= names
    children = [span for span in spans if span["parent"] is not None]
    assert children
    for span in spans:
        assert span["start"] <= span["end"]
    for child in children:
        parent = by_id[child["parent"]]
        assert parent["request"] == child["request"]
        assert parent["start"] <= child["start"] <= child["end"] <= parent["end"]


@pytest.mark.parametrize("workload", ["xmark_join", "served_sessions"])
def test_a_corrupted_reference_counts_as_failed(capsys, tmp_path, monkeypatch, workload):
    honest = workloads.reference_outputs

    def corrupted(w):
        references = honest(w)
        first = w.pairs()[0]
        references[first] = references[first] + "<corrupted/>"
        return references

    monkeypatch.setattr(workloads, "reference_outputs", corrupted)
    code, result = run_tiny(capsys, tmp_path, workload)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


@pytest.mark.parametrize("workload", ["xmark_join", "hostile_shapes", "served_sessions"])
def test_peak_buffer_nodes_repeats_exactly(capsys, tmp_path, workload):
    _code, first = run_tiny(capsys, tmp_path, workload, seed=11)
    _code, second = run_tiny(capsys, tmp_path, workload, seed=11)
    assert first["metrics"]["peak_buffer_nodes"]["value"] >= 1
    assert (
        first["metrics"]["peak_buffer_nodes"] == second["metrics"]["peak_buffer_nodes"]
    )


def test_each_time_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([0.001, 0.003, 0.002, 0.004])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    speed = hostspeed.SpeedProbe()
    ref = hostspeed.REFERENCE_S
    assert speed.scale() == pytest.approx(2 * ref / (0.001 + 0.003))
    speed.mark()  # untimed work ran: the next time starts from 0.002
    assert speed.scale() == pytest.approx(2 * ref / (0.002 + 0.004))
    assert len(speed.factors) == 2


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_inputs_come_from_the_seed(name):
    first = workloads.build(name, 5, tiny=True)
    again = workloads.build(name, 5, tiny=True)
    other = workloads.build(name, 6, tiny=True)
    assert first.documents == again.documents
    assert first.documents != other.documents
    assert sorted(first.mix) == sorted(other.mix)


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "gcxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "xmark_join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
