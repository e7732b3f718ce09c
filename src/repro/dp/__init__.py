"""``repro.dp`` — data-parallel single-method training.

One method's collocation points, constraints, and validators are
partitioned into ``n_shards`` disjoint logical shards; each shard's
``1/S``-scaled loss and gradient are combined by a deterministic
fixed-order pairwise tree reduction (:func:`tree_reduce`), so the float32
trajectory is bit-identical for every ``world_size``, execution backend,
and payload arrival order.  See docs/execution.md ("Data-parallel
training") and :func:`run_dp`.

Only the leaf modules load eagerly; :func:`run_dp` lives in
:mod:`repro.dp.runner`, which imports :mod:`repro.training` — resolved
lazily here so ``repro.training`` itself can import the reduction
primitives without a cycle.
"""

from __future__ import annotations

from .exchange import (LocalExchange, StoreExchange, decode_payload,
                       encode_payload)
from .partition import (assign_clusters, check_disjoint_cover,
                        shard_batch_sizes, stride_shards)
from .reduce import payload_nbytes, tree_add, tree_reduce
from .samplers import (SUPPORTED_KINDS, ClusterPlan, ShardSampler,
                       make_shard_sampler, shard_cover)

__all__ = [
    "DEFAULT_SHARDS", "DataParallelContext", "LocalExchange",
    "StoreExchange", "ClusterPlan", "ShardSampler", "SUPPORTED_KINDS",
    "assign_clusters", "check_disjoint_cover", "decode_payload",
    "encode_payload", "make_shard_sampler", "payload_nbytes", "run_dp",
    "shard_batch_sizes", "shard_cover", "stride_shards", "tree_add",
    "tree_reduce",
]

_RUNNER_EXPORTS = ("DEFAULT_SHARDS", "DataParallelContext", "run_dp")


def __getattr__(name):
    if name in _RUNNER_EXPORTS:
        from . import runner
        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
