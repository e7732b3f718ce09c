"""One repetition of a benchmark workload, run in a fresh process.

``run.py`` starts ``python3 child.py '<json spec>'`` with the thread and
cache settings pinned in the environment, and reads the JSON object this
script prints on its last stdout line.  A fresh process per repetition is
what lets ``setup_s`` cover interpreter start, ``import repro`` and wiring,
and keeps ``peak_rss_mb`` a per-repetition peak.

With ``"trace": true`` the repetition also records the per-layer numbers:
``repro.obs`` spans through the public ``trace`` switch, plus timers this
file wraps around the layers' public entry points and ``gc.callbacks``.
Nothing under ``src/`` is modified; the wrappers live only in this process.

``"mode": "warm"`` instead fills the reference-solution cache the workload
validates against, and reports how long a cold solve took.
"""

from __future__ import annotations

import time

import functools
import gc
import json
import math
import os
import resource
import shutil
import sys
from pathlib import Path

from stats import first_crossing, percentile, self_times
from workloads import resolve


class LayerTimers:
    """Seconds and call counts of wrapped entry points, by layer name."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.ended = {}

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a timed pass-through; ``after`` sees
        ``(args, result)`` once each call returns."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.ended[name] = time.perf_counter()
                self.seconds[name] = (self.seconds.get(name, 0.0)
                                      + self.ended[name] - started)
                self.calls[name] = self.calls.get(name, 0) + 1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, timed)

    def get(self, name):
        return self.seconds.get(name, 0.0), self.calls.get(name, 0)


class GcMeter:
    """Collector pauses and yields, observed through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self.collected = 0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        self.collected += info["collected"]
        if info["generation"] == 2:
            self.gen2 += 1


class TrainProbe:
    """Wraps ``Trainer.train``: records entry and exit, the trainer, and a
    step hook that times every step and stamps each validation."""

    def __init__(self, spawned_at, gc_meter=None):
        self.spawned_at = spawned_at
        self.gc_meter = gc_meter
        self.trainer = None
        self.setup_s = None
        self.entry = self.exit = None
        self.raw_at = {}
        self.step_s = []

    def install(self, trainer_cls):
        original = trainer_cls.train
        probe = self

        @functools.wraps(original)
        def train(trainer, steps, *args, **kwargs):
            probe.setup_s = time.monotonic() - probe.spawned_at
            probe.trainer = trainer
            validate_every = kwargs["validate_every"]
            last = [time.perf_counter()]

            def hook(step, trainer=None, clock=None, errors=None):
                now = time.perf_counter()
                probe.step_s.append(now - last[0])
                last[0] = now
                if step % validate_every == 0 or step == steps - 1:
                    probe.raw_at[step] = now - probe.entry

            kwargs["step_hooks"] = list(kwargs.get("step_hooks", ())) + [hook]
            if probe.gc_meter is not None:
                gc.callbacks.append(probe.gc_meter)
            probe.entry = last[0] = time.perf_counter()
            try:
                return original(trainer, steps, *args, **kwargs)
            finally:
                probe.exit = time.perf_counter()
                if probe.gc_meter is not None:
                    gc.callbacks.remove(probe.gc_meter)

        trainer_cls.train = train


def install_layer_timers(timers):
    """Time each layer's public entry points where their callers bind
    them.  Returns the lists the compile and checkpoint wrappers fill."""
    import repro.api.session
    import repro.dp.runner
    import repro.dp.samplers
    import repro.sampling.sgm
    import repro.store.run_store
    import repro.training.trainer

    for module in (repro.api.session, repro.dp.runner):
        timers.wrap(module, "build_problem", "api.build_problem")
    for module in (repro.sampling.sgm, repro.dp.samplers):
        timers.wrap(module, "knn_adjacency", "graph.knn")
        timers.wrap(module, "lrd_decompose", "graph.lrd")

    instructions = []
    timers.wrap(repro.training.trainer, "compile_step", "autodiff.compile",
                after=lambda args, program: instructions.append(
                    program.stats["instructions"]))

    written = []

    def checkpoint_bytes(args, _):
        newest = max((args[0].path / "checkpoints").glob("*.npz"))
        written.append(newest.stat().st_size)

    timers.wrap(repro.store.run_store.RunRecorder, "save_checkpoint",
                "store.checkpoint", after=checkpoint_bytes)
    return instructions, written


def layer_metrics(timers, gc_meter, probe, obs_data, import_s,
                  instructions, written):
    """The per-layer numbers of one traced repetition, by metric name."""
    own = self_times(obs_data["spans"])
    counters = obs_data["counters"]
    knn_s, knn_calls = timers.get("graph.knn")
    lrd_s, lrd_calls = timers.get("graph.lrd")
    checkpoint_s, checkpoints = timers.get("store.checkpoint")
    step_ms = [1e3 * s for s in probe.step_s]
    return {
        "api.import_s": import_s,
        "api.build_problem_s": timers.get("api.build_problem")[0],
        "api.wire_s": probe.entry - timers.ended["api.build_problem"],
        "graph.knn_s": knn_s,
        "graph.knn_calls": knn_calls,
        "graph.lrd_s": lrd_s,
        "graph.lrd_calls": lrd_calls,
        # the sampler's own share of its rebuilds; the graph calls inside
        # them are reported under graph.*
        "sampling.rebuild_s": (counters.get("sampler.rebuild_seconds", 0.0)
                               - knn_s - lrd_s),
        "sampling.rebuilds": counters.get("sampler.rebuild_count", 0),
        "sampling.refresh_s": counters.get("sampler.refresh_seconds", 0.0),
        "sampling.refreshes": counters.get("sampler.refresh_count", 0),
        "sampling.probe_points": probe.trainer.total_probe_points(),
        "sampling.batch_s": own.get("train.sample", 0.0),
        "autodiff.forward_s": own.get("train.forward", 0.0),
        "autodiff.backward_s": own.get("train.backward", 0.0),
        "autodiff.replay_s": own.get("train.replay", 0.0),
        "autodiff.compile_s": timers.get("autodiff.compile")[0],
        "autodiff.replay_instructions": sum(instructions),
        "autodiff.replay_fallbacks": (
            counters.get("replay.fallback_refused", 0)
            + counters.get("replay.fallback_stale", 0)),
        "gc.pause_s": gc_meter.pause_s,
        "gc.gen2_collections": gc_meter.gen2,
        "gc.objects_collected": gc_meter.collected,
        "nn.optimizer_s": own.get("train.optimizer", 0.0),
        "training.validate_s": own.get("train.validate", 0.0),
        "training.validations": counters.get("train.validations", 0),
        "training.step_ms_p50": percentile(step_ms, 0.5),
        "training.step_ms_p90": percentile(step_ms, 0.9),
        "store.checkpoint_s": checkpoint_s,
        "store.checkpoints": checkpoints,
        "store.bytes_written": sum(written),
        "dp.shard_s": own.get("dp.shard", 0.0),
        "dp.allreduce_s": own.get("dp.allreduce", 0.0),
        "dp.allreduce_rounds": counters.get("dp.allreduce_rounds", 0),
        "dp.bytes_reduced": counters.get("dp.bytes_reduced", 0),
    }


def warm(spec):
    """Fill the reference cache of the workload's problem (untimed)."""
    import numpy as np
    import repro
    from repro.solvers import cache_dir

    workload = resolve(spec["workload"], spec["scale"])
    before = set(cache_dir().glob("*.npz"))
    started = time.perf_counter()
    session = repro.problem(workload.problem, scale=spec["scale"])
    session.build().make_validators(np.random.default_rng(0))
    seconds = time.perf_counter() - started
    filled = sorted(p.name for p in set(cache_dir().glob("*.npz")) - before)
    return {"filled": filled, "cold_s": seconds if filled else None}


def train(spec, import_s):
    import repro
    from repro.training import Trainer

    workload = resolve(spec["workload"], spec["scale"])
    traced = spec["trace"]
    gc_meter = GcMeter() if traced else None
    probe = TrainProbe(spec["spawned_at"], gc_meter)
    probe.install(Trainer)
    timers = LayerTimers()
    if traced:
        instructions, written = install_layer_timers(timers)

    session = (repro.problem(workload.problem, scale=spec["scale"])
               .sampler(workload.sampler)
               .config(seed=spec["seed"],
                       validate_every=workload.validate_every,
                       record_every=workload.validate_every,
                       **dict(workload.overrides))
               .compile(workload.compile)
               .trace(traced))
    store = None
    try:
        if workload.dp_shards is not None:
            result = session.train(steps=workload.steps, world_size=1,
                                   dp_shards=workload.dp_shards)
        elif workload.checkpoint_every is not None:
            store = Path(spec["work"]) / f"store-{os.getpid()}"
            result = session.train(steps=workload.steps, store=store,
                                   checkpoint_every=workload.checkpoint_every)
        else:
            result = session.train(steps=workload.steps)
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)

    history = result.history
    crossing = first_crossing(history, workload.var, workload.target,
                              workload.validate_every)
    train_s = probe.exit - probe.entry
    rep = {
        "seed": spec["seed"],
        "mode": probe.trainer.compile_info(),
        "losses_finite": all(math.isfinite(x) for x in history.losses),
        "setup_s": probe.setup_s,
        "steps_per_s": workload.steps / train_s,
        "err_final": history.errors[workload.var][-1],
        "final_loss": history.losses[-1],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_to_target": None,
        "time_to_target_s": None,
        "time_to_target_credited_s": None,
    }
    if crossing is not None:
        step = history.steps[crossing]
        rep.update(steps_to_target=step + 1,
                   time_to_target_s=probe.raw_at[step],
                   time_to_target_credited_s=history.wall_times[crossing])
    if traced:
        rep["layers"] = layer_metrics(timers, gc_meter, probe, result.obs,
                                      import_s, instructions, written)
    return rep


def main():
    spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    import repro
    import_s = time.perf_counter() - started
    src = Path(spec["src"]).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {src}")
    out = warm(spec) if spec["mode"] == "warm" else train(spec, import_s)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
