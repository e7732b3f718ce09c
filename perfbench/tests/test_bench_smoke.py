"""A seconds-long pass over every workload at smoke scale: the whole
harness (warm-up, child processes, checks, tracing, output) end to end."""

import functools
import json

import pytest

import run
from workloads import WORKLOADS


@pytest.fixture
def work(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_layer(work, name):
    result, report = run.run(name, seed=3, seconds=1, trace=True,
                             scale="smoke", ledger=run.Ledger(None))
    assert report["problems"] == []
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 2, 0)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    plain, traced = report["reps"]
    # tracing never touches numerics: both repetitions of the seed agree
    assert run.outcome(plain) == run.outcome(traced)
    layers = result["metrics"]
    workload = WORKLOADS[name]
    assert (layers["graph.knn_calls"]["value"] > 0) == (
        workload.sampler == "sgm")
    assert (layers["autodiff.replay_s"]["value"] > 0) == workload.compile
    assert (layers["store.checkpoints"]["value"] > 0) == (
        workload.checkpoint_every is not None)
    assert (layers["dp.allreduce_rounds"]["value"] > 0) == (
        workload.dp_shards is not None)


def test_command_line_prints_end_to_end_metrics_last(work, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(run, "run", functools.partial(run.run,
                                                      scale="smoke"))
    assert run.main(["--workload", "ns3d_uniform_eager_store", "--seed", "2",
                     "--seconds", "2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 2, 0)
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == run.END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
