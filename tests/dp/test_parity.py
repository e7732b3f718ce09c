"""World-size parity matrix: the trajectory is a function of the shard
count, never of the worker count, the backend, or the execution mode.

``world_size=1`` computes all logical shards inline; every other cell —
more ranks, thread/process/queue placement, compiled replay — must
reproduce its history (steps, losses, errors, probe points) and final
network weights bit-for-bit.  Wall times are physical and excluded by
construction (they are not compared anywhere here).

Parity across world sizes alone would not notice a change that moved every
world size the same way, so the W=1 trajectories are also pinned exactly
in ``w1_trajectories.json``: losses, probe points, and a sha256 of the
final weights.  They were recorded before the shard step, the SGM shard
sampler, and the replica wiring were folded into the serial training path,
and must not move.  Regenerate only for an intentional numeric change::

    PYTHONPATH=src python tests/dp/test_parity.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.dp import run_dp
from repro.experiments import (
    advection_diffusion_config, annular_ring_config, burgers_config,
    inverse_burgers_config, ldc_config, ns3d_config, poisson3d_config,
)

#: every registered problem, smoke-sized for the tier-1 budget
PROBLEMS = {
    "ldc": ldc_config,
    "annular_ring": annular_ring_config,
    "burgers": burgers_config,
    "poisson3d": poisson3d_config,
    "advection_diffusion": advection_diffusion_config,
    "inverse_burgers": inverse_burgers_config,
    "ns3d": ns3d_config,
}
STEPS = 4
N_INTERIOR = 320
BATCH = 64
PINNED_PATH = Path(__file__).parent / "w1_trajectories.json"
#: ``problem:sampler`` runs pinned at W=1
PINNED_KEYS = tuple(f"{problem}:sgm" for problem in sorted(PROBLEMS)) + (
    "burgers:uniform", "burgers:mis")


def _run(problem, *, world_size, backend="thread", compile=False,
         sampler="sgm", store=None):
    config = PROBLEMS[problem]("smoke")
    return run_dp(problem, config, sampler=sampler, steps=STEPS,
                  n_interior=N_INTERIOR, batch_size=BATCH,
                  world_size=world_size, backend=backend, compile=compile,
                  store=store)


def _assert_bit_identical(a, b):
    assert a.history.steps == b.history.steps
    assert a.history.losses == b.history.losses
    assert a.history.probe_points == b.history.probe_points
    assert set(a.history.errors) == set(b.history.errors)
    for var in a.history.errors:
        np.testing.assert_array_equal(a.history.errors[var],
                                      b.history.errors[var])
    a_state, b_state = a.net.state_dict(), b.net.state_dict()
    assert set(a_state) == set(b_state)
    for key in a_state:
        assert a_state[key].tobytes() == b_state[key].tobytes(), key


def _fingerprint(result):
    """Losses, probe points, and a sha256 of the final weights."""
    state = result.net.state_dict()
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode("utf-8"))
        digest.update(np.ascontiguousarray(state[key]).tobytes())
    return {"losses": [float(x) for x in result.history.losses],
            "probe_points": [int(x) for x in result.history.probe_points],
            "weights_sha256": digest.hexdigest()}


def _assert_pinned(result, key):
    with open(PINNED_PATH) as handle:
        pinned = json.load(handle)[key]
    assert _fingerprint(result) == pinned, key


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_world_size_parity_across_every_problem(problem):
    """W in {1, 2, 4} on in-process thread ranks, sgm sharding."""
    serial = _run(problem, world_size=1)
    assert serial.history.losses, "trajectory must not be empty"
    _assert_pinned(serial, f"{problem}:sgm")
    for world_size in (2, 4):
        distributed = _run(problem, world_size=world_size)
        _assert_bit_identical(serial, distributed)
        # every rank's replica folded the same reduced gradients
        head = distributed.rank_results[0].net_state
        for rank_result in distributed.rank_results[1:]:
            for key in head:
                assert np.array_equal(rank_result.net_state[key],
                                      head[key]), (world_size, key)


@pytest.mark.parametrize("kind", ["uniform", "mis", "sgm_s"])
def test_world_size_parity_for_other_sampler_kinds(kind):
    serial = _run("burgers", world_size=1, sampler=kind)
    if kind != "sgm_s":   # sgm_s has no earlier dp trajectory to pin
        _assert_pinned(serial, f"burgers:{kind}")
    distributed = _run("burgers", world_size=4, sampler=kind)
    _assert_bit_identical(serial, distributed)


def test_compiled_replay_matches_eager_shard_step():
    eager = _run("burgers", world_size=1)
    compiled = _run("burgers", world_size=1, compile=True)
    _assert_bit_identical(eager, compiled)


def test_process_backend_matches_inline(tmp_path):
    serial = _run("burgers", world_size=1)
    distributed = _run("burgers", world_size=2, backend="process")
    _assert_bit_identical(serial, distributed)


def test_compile_under_process_backend_matches_eager_inline(tmp_path):
    serial = _run("burgers", world_size=1)
    compiled = _run("burgers", world_size=2, backend="process",
                    compile=True)
    _assert_bit_identical(serial, compiled)


def test_queue_backend_matches_inline(tmp_path):
    serial = _run("burgers", world_size=1)
    distributed = _run("burgers", world_size=2, backend="queue",
                       store=tmp_path / "store")
    _assert_bit_identical(serial, distributed)
    assert distributed.run_id is not None   # rank 0 recorded durably


def test_recorded_histories_match_across_world_sizes(tmp_path):
    """The durable history.jsonl rows agree bitwise (wall_time aside)."""
    import json
    rows = {}
    for world_size in (1, 4):
        result = _run("burgers", world_size=world_size,
                      backend="thread" if world_size > 1 else "process",
                      store=tmp_path / f"w{world_size}")
        path = (tmp_path / f"w{world_size}" / result.run_id /
                "history.jsonl")
        rows[world_size] = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("wall_time")
            rows[world_size].append(record)
    assert rows[1] == rows[4]


def test_world_size_above_shard_count_is_rejected():
    with pytest.raises(ValueError, match="logical"):
        _run("burgers", world_size=5)


def test_compile_on_thread_ranks_is_rejected():
    with pytest.raises(ValueError, match="isolation"):
        _run("burgers", world_size=2, backend="thread", compile=True)


def test_custom_validator_lists_are_rejected():
    config = burgers_config("smoke")
    with pytest.raises(ValueError, match="validators"):
        run_dp("burgers", config, steps=2, n_interior=N_INTERIOR,
               batch_size=BATCH, validators=[object()])


def test_session_and_cli_surface_reach_run_dp(tmp_path):
    import repro
    serial = _run("burgers", world_size=1)
    result = (repro.problem("burgers", scale="smoke")
              .sampler("sgm").n_interior(N_INTERIOR).batch_size(BATCH)
              .train(steps=STEPS, world_size=2, backend="thread"))
    _assert_bit_identical(serial, result)

    from repro.cli import main
    rc = main(["run", "burgers", "--sampler", "sgm", "--scale", "smoke",
               "--steps", str(STEPS), "--n-interior", str(N_INTERIOR),
               "--batch-size", str(BATCH), "--world-size", "2",
               "--backend", "thread", "--store", str(tmp_path / "cli")])
    assert rc == 0


def regenerate():
    """Rewrite ``w1_trajectories.json`` from the current code."""
    pinned = {}
    for key in PINNED_KEYS:
        problem, sampler = key.split(":")
        pinned[key] = _fingerprint(_run(problem, world_size=1,
                                        sampler=sampler))
    with open(PINNED_PATH, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    regenerate()
