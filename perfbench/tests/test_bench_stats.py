"""Arithmetic and accounting of the benchmark, on synthetic inputs."""

import json
import math
import re
import statistics

import pytest

import run
from repro.training.history import History
from stats import (Tally, first_crossing, median, percentile, quartiles,
                   self_times)
from workloads import WORKLOADS, resolve


def synthetic_history(errors_by_step, record_every=10, validate_every=20,
                      last_step=None):
    """A history recorded every ``record_every`` steps whose errors change
    only at validations, as the trainer records them."""
    history = History()
    current = {}
    last_step = max(errors_by_step) if last_step is None else last_step
    for step in range(0, last_step + 1):
        if step % validate_every == 0 or step == last_step:
            current = dict(errors_by_step.get(step, current))
        if step % record_every == 0 or step == last_step:
            history.record(step, wall_time=step / 100.0, loss=1.0,
                           errors=current)
    return history


def test_crossing_is_the_first_validation_at_or_below_target():
    history = synthetic_history({0: {"u": 1.0}, 20: {"u": 0.8},
                                 40: {"u": 0.5}, 60: {"u": 0.4}})
    index = first_crossing(history, "u", 0.5, validate_every=20)
    assert history.steps[index] == 40
    assert history.wall_times[index] == pytest.approx(0.40)


def test_crossing_ignores_records_between_validations():
    history = synthetic_history({0: {"u": 1.0}, 20: {"u": 0.4}})
    # step 10's record repeats step 0's errors; a record that was never
    # validated must not be credited, even if it were below target
    history.errors["u"][1] = 0.1
    index = first_crossing(history, "u", 0.5, validate_every=20)
    assert history.steps[index] == 20


def test_crossing_counts_the_final_step_off_cadence():
    history = synthetic_history({0: {"u": 1.0}, 25: {"u": 0.3}},
                                last_step=25)
    index = first_crossing(history, "u", 0.5, validate_every=20)
    assert history.steps[index] == 25


def test_crossing_never_reached_nan_or_unknown_variable():
    history = synthetic_history({0: {"u": 1.0}, 20: {"u": math.nan},
                                 40: {"u": 0.9}})
    assert first_crossing(history, "u", 0.5, validate_every=20) is None
    assert first_crossing(history, "w", 0.5, validate_every=20) is None
    assert first_crossing(History(), "u", 0.5, validate_every=20) is None


def test_crossing_selects_the_variable_by_name_not_position():
    forward = synthetic_history({0: {"u": 1.0, "v": 0.1},
                                 20: {"u": 0.4, "v": 0.1}})
    backward = synthetic_history({0: {"v": 0.1, "u": 1.0},
                                  20: {"v": 0.1, "u": 0.4}})
    for history in (forward, backward):
        assert history.steps[first_crossing(history, "u", 0.5, 20)] == 20


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.9]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert median(values) == q2


def test_quartiles_of_one_and_two_values():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert median([1.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        quartiles([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 1.0) == 10
    assert percentile([7.0], 0.9) == 7.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "step", "id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "sample", "id": 2, "parent": 1, "start": 0.0, "end": 4.0},
        {"name": "refresh", "id": 3, "parent": 2, "start": 1.0, "end": 3.0},
        {"name": "sample", "id": 4, "parent": 1, "start": 5.0, "end": 6.0},
        {"name": "open", "id": 5, "parent": 1, "start": 6.0, "end": None},
    ]
    own = self_times(spans)
    assert own == {"step": 5.0, "sample": 3.0, "refresh": 2.0}


def test_tally_counts_a_repetition_once_however_many_problems():
    tally = Tally()
    assert not tally.correct
    tally.record("a", [])
    assert tally.correct
    tally.record("b", ["x", "y"])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert not tally.correct
    assert tally.problems == ["b: x", "b: y"]


def good_rep(**changes):
    rep = {"seed": 1, "mode": "replay", "losses_finite": True,
           "setup_s": 1.0, "steps_per_s": 50.0, "err_final": 0.5,
           "final_loss": 0.1, "peak_rss_mb": 90.0, "steps_to_target": 300,
           "time_to_target_s": 8.0, "time_to_target_credited_s": 7.0}
    rep.update(changes)
    return rep


def test_check_flags_each_failure_condition():
    workload = WORKLOADS["ldc_sgm_replay"]
    assert run.check(workload, good_rep()) == []
    assert run.check(workload, good_rep(losses_finite=False)) == [
        "non-finite loss"]
    assert "compiled workload ran as 'eager'" in run.check(
        workload, good_rep(mode="eager"))[0]
    assert "never reached" in run.check(
        workload, good_rep(steps_to_target=None))[0]
    assert "replay fallbacks" in run.check(
        workload, good_rep(layers={"autodiff.replay_fallbacks": 1}))[0]
    eager = WORKLOADS["ns3d_uniform_eager_store"]
    assert run.check(eager, good_rep(mode="eager")) == []


def test_ledger_requires_identical_outcomes_across_runs(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = run.Ledger(path)
    assert ledger.check("k", [300, 0.5, 0.1]) is None
    assert ledger.check("k", [300, 0.5, 0.1]) is None
    ledger.save()
    later = run.Ledger(path)
    assert later.check("k", [300, 0.5, 0.1]) is None
    assert "differs" in later.check("k", [325, 0.5, 0.1])
    assert later.check("other", [325, 0.5, 0.1]) is None


def test_run_counts_failed_repetitions(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    reps = iter([good_rep(seed=1000), good_rep(seed=1001, err_final=math.nan,
                                               losses_finite=False,
                                               steps_per_s=1.0),
                 good_rep(seed=1002)])

    def fake_child(spec, timeout):
        if spec["mode"] == "warm":
            return {"filled": [], "cold_s": None}
        return next(reps)

    monkeypatch.setattr(run, "run_child", fake_child)
    workload = resolve("ldc_sgm_replay")
    result, report = run.run(workload.name, seed=1,
                             seconds=3 * workload.rep_seconds, trace=False,
                             ledger=run.Ledger(None))
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["correct"] is False
    assert result["metrics"]["steps_per_s"] == {"value": 50.0, "unit": "1/s"}
    assert report["problems"] == ["seed 1001: non-finite loss"]


def test_failed_repetitions_stay_out_of_the_medians(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    reps = iter([good_rep(steps_per_s=10.0, mode="eager"),
                 good_rep(steps_per_s=50.0), good_rep(steps_per_s=60.0)])
    monkeypatch.setattr(run, "run_child", lambda spec, timeout: (
        {"filled": [], "cold_s": None} if spec["mode"] == "warm"
        else next(reps)))
    workload = resolve("ldc_sgm_replay")
    result, _ = run.run(workload.name, seed=1,
                        seconds=3 * workload.rep_seconds, trace=False,
                        ledger=run.Ledger(None))
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["metrics"]["steps_per_s"]["value"] == 55.0


def test_run_warms_every_time_and_counts_seeds_the_deadline_cut(
        monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    modes = []

    def fake_child(spec, timeout):
        modes.append(spec["mode"])
        if spec["mode"] == "warm":
            return {"filled": [], "cold_s": None}
        return good_rep()

    monkeypatch.setattr(run, "run_child", fake_child)
    workload = resolve("ldc_sgm_replay")
    for _ in range(2):
        run.run(workload.name, seed=1, seconds=2 * workload.rep_seconds,
                trace=False, ledger=run.Ledger(None))
    assert modes == ["warm", "train", "train"] * 2
    # no time left after the warm-up: every planned seed is a failure
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 0.0)
    result, report = run.run(workload.name, seed=1,
                             seconds=2 * workload.rep_seconds, trace=False,
                             ledger=run.Ledger(None))
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert all("deadline" in problem for problem in report["problems"])
    assert result["metrics"]["steps_per_s"]["value"] is None


def test_run_counts_a_crashed_child_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)

    def crashing_child(spec, timeout):
        if spec["mode"] == "warm":
            return {"filled": [], "cold_s": None}
        raise run.ChildFailed("child exited 1: boom")

    monkeypatch.setattr(run, "run_child", crashing_child)
    result, _ = run.run("ns3d_sgm_dp4", seed=0, seconds=1, trace=False,
                        ledger=run.Ledger(None))
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 1, 1)


def test_benchmark_json_lists_exactly_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
