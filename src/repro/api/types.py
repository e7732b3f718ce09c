"""Shared result/spec types for the public API.

This module imports nothing from :mod:`repro`, so the training lifecycle
(:mod:`repro.api.session`), the method sweeps (:mod:`repro.experiments`)
and the data-parallel ranks (:mod:`repro.dp`) can all import it without
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MethodResult", "MethodSpec", "RunResult", "SamplerStats"]


@dataclass
class MethodSpec:
    """One column of a results table."""

    label: str
    kind: str              # a sampler-registry key: uniform | mis | sgm | sgm_s
    n_interior: int
    batch_size: int


class SamplerStats:
    """Picklable snapshot of a trained run's sampler statistics.

    Carries what the run record's ``sampler.json``, the tables, figures
    and examples read from a trained sampler (``probe_points`` overhead,
    refresh/rebuild counts, SGM cluster ``labels``) without the live probe
    closures, which cannot cross a process boundary.
    """

    def __init__(self, name, probe_points, labels=None, refresh_count=0,
                 rebuild_count=0):
        self.name = name
        self.probe_points = int(probe_points)
        self.labels = labels
        self.refresh_count = int(refresh_count)
        self.rebuild_count = int(rebuild_count)

    @classmethod
    def from_trainer(cls, trainer, name):
        """Snapshot ``trainer``'s interior sampling after training.

        ``probe_points`` is :meth:`~repro.training.Trainer.total_probe_points`
        (under data-parallel training the global total from the last
        allreduce); refresh/rebuild counts sum the trainer's interior
        samplers (the data-parallel shards this rank hosts), and ``labels``
        are the serial interior sampler's clusters, if it has any.
        """
        serial = trainer.samplers.get("interior")
        interior = ([serial] if trainer.dp is None else
                    [sampler for (constraint, _), sampler
                     in trainer.dp.shard_samplers.items()
                     if constraint == "interior"])
        labels = getattr(serial, "labels", None)
        return cls(name, trainer.total_probe_points(),
                   labels=None if labels is None else np.asarray(labels).copy(),
                   refresh_count=sum(getattr(s, "refresh_count", 0)
                                     for s in interior),
                   rebuild_count=sum(getattr(s, "rebuild_count", 0)
                                     for s in interior))

    def __repr__(self):
        return (f"SamplerStats(name={self.name!r}, "
                f"probe_points={self.probe_points})")


@dataclass
class RunResult:
    """Trained artefacts for one method.

    ``sampler`` is the live interior sampler of a serial run and the
    :class:`SamplerStats` snapshot of a data-parallel one (whose shard
    samplers live in the worker ranks); ``sampler_stats`` is always the
    snapshot, the same statistics the run record's ``sampler.json`` holds.
    ``run_id`` is set when the run recorded into a
    :class:`repro.store.RunStore` (else ``None``).  ``coefficients`` maps
    each trainable PDE coefficient (inverse problems) to its recovered
    value — empty for forward problems.  ``obs`` is the run's exported
    span/metric data (``Tracer.export()`` dict) when tracing was enabled,
    else ``None``; it is plain picklable data, so process-pool workers
    ship it back with the result.
    """

    label: str
    history: object
    net: object
    sampler: object
    config: object = field(repr=False, default=None)
    run_id: str = None
    coefficients: dict = field(default_factory=dict)
    obs: dict = field(repr=False, default=None)
    sampler_stats: SamplerStats = field(repr=False, default=None)


@dataclass
class MethodResult:
    """One trained run in picklable form: a suite column or a
    data-parallel rank.

    Pool, queue and rank workers return this instead of live trainer
    objects: the history, the trained network itself, and the
    :class:`SamplerStats` snapshot.  ``run_id`` names the run's record when
    it wrote into a :class:`repro.store.RunStore` (else ``None``).
    """

    spec: MethodSpec
    seed: int
    history: object
    wall_seconds: float
    sampler_stats: SamplerStats
    net: object = field(repr=False, default=None)
    run_id: str = None
    coefficients: dict = field(default_factory=dict)
    #: the run's exported span/metric data (``Tracer.export()`` dict) when
    #: it traced; plain picklable data that survives the pool
    obs_data: dict = field(repr=False, default=None)

    @classmethod
    def from_run(cls, spec, seed, wall_seconds, result):
        """Pack a :class:`RunResult` for shipping back from a worker."""
        return cls(spec=spec, seed=seed, history=result.history,
                   wall_seconds=wall_seconds,
                   sampler_stats=result.sampler_stats, net=result.net,
                   run_id=result.run_id, coefficients=result.coefficients,
                   obs_data=result.obs)

    @property
    def label(self):
        return self.spec.label

    @property
    def kind(self):
        return self.spec.kind

    @property
    def probe_points(self):
        return self.sampler_stats.probe_points

    @property
    def net_state(self):
        """The trained network's ``state_dict()``."""
        return self.net.state_dict()

    def to_run_result(self, config=None):
        """The :class:`RunResult` view the tables, figures and examples
        consume (its ``sampler`` is the statistics snapshot)."""
        return RunResult(label=self.label, history=self.history,
                         net=self.net, sampler=self.sampler_stats,
                         config=config, run_id=self.run_id,
                         coefficients=self.coefficients, obs=self.obs_data,
                         sampler_stats=self.sampler_stats)
