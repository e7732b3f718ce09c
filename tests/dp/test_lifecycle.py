"""The data-parallel run lifecycle.

Rank 0 records and traces through the same lifecycle as a serial run
(``repro.api.session._train_wired``): its record carries the global probe
total, its traces land beside the record and on the result, a failing rank
leaves a ``failed`` record, and a dp record refuses resume (dp runs write
no checkpoints, and resuming through the serial path would retrain a
different trajectory over the record).
"""

import json

import pytest

from repro.cli import main
from repro.dp import run_dp
from repro.experiments import burgers_config
from repro.store import RunStore, resume_run
from repro.training import Trainer

STEPS = 6
N_INTERIOR = 320
BATCH = 64


def _run(store, **kwargs):
    return run_dp("burgers", burgers_config("smoke"), sampler="sgm",
                  steps=STEPS, n_interior=N_INTERIOR, batch_size=BATCH,
                  world_size=1, n_shards=2, store=store, **kwargs)


def _fail_at(monkeypatch, at_step):
    original = Trainer._dp_step

    def step(self, step):
        if step == at_step:
            raise RuntimeError(f"injected fault at step {step}")
        return original(self, step)

    monkeypatch.setattr(Trainer, "_dp_step", step)


def test_result_reports_the_recorded_global_probe_total(tmp_path):
    result = _run(tmp_path)
    stats = RunStore(tmp_path).open(result.run_id).sampler_stats()
    assert stats["name"] == "dp:sgm"
    assert stats["probe_points"] > 0
    assert result.sampler.probe_points == stats["probe_points"]
    assert result.history.probe_points[-1] == stats["probe_points"]


def test_traced_run_streams_and_returns_the_allreduce_spans(tmp_path):
    result = _run(tmp_path, trace=True)
    record = RunStore(tmp_path).open(result.run_id)
    recorded = [s for s in record.spans() if s["name"] == "dp.allreduce"]
    returned = [s for s in result.obs["spans"]
                if s["name"] == "dp.allreduce"]
    assert recorded and len(recorded) == len(returned)
    assert record.metrics_snapshots()


def test_failing_rank_leaves_a_failed_record(tmp_path, monkeypatch):
    _fail_at(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="injected"):
        _run(tmp_path)
    (record,) = RunStore(tmp_path).runs()
    assert record.status == "failed"
    assert record.meta["error"] == "RuntimeError: injected fault at step 2"


def test_stopped_dp_record_refuses_resume(tmp_path, monkeypatch):
    _fail_at(monkeypatch, 2)
    with pytest.raises(RuntimeError):
        _run(tmp_path)
    (record,) = RunStore(tmp_path).runs()
    assert record.meta["dp_shards"] == 2
    with pytest.raises(ValueError, match="data-parallel record"):
        resume_run(tmp_path, record.run_id)
    assert RunStore(tmp_path).open(record.run_id).status == "failed"


def test_completed_dp_record_refuses_resume_untouched(tmp_path, capsys):
    result = _run(tmp_path)
    path = tmp_path / result.run_id
    before = {name: (path / name).read_text()
              for name in ("history.jsonl", "sampler.json", "meta.json")}
    with pytest.raises(ValueError, match="data-parallel record"):
        resume_run(tmp_path, result.run_id, steps=60)

    assert main(["runs", "--store", str(tmp_path), "resume", result.run_id,
                 "--steps", "60"]) == 2
    assert main(["run", "--resume", result.run_id, "--store", str(tmp_path),
                 "--steps", "60"]) == 2
    out = capsys.readouterr().out
    assert out.count("is a data-parallel record") == 2
    after = {name: (path / name).read_text() for name in before}
    assert after == before
    assert json.loads(after["sampler.json"])["name"] == "dp:sgm"
