"""Parallel sharded sweep runner with on-disk result caching.

Every sweep experiment (capacity, noise, detection, sensitivity, channel
comparison) decomposes into independent points; this package runs those
points serially or across a process pool with **bit-identical output**, and
memoizes each point's result on disk keyed by the full content of the
computation (engine version + platform config + parameters + seeds).
:func:`run_shards` is the only sweep entry point: it takes a plain worker,
a :class:`WarmStartPlan` (shared setup prefix checkpointed once), or a
:class:`TraceBatchPlan` (trials batched through one array program, up to
the plan's ``batch_size`` per chunk).

Typical wiring, from an experiment module::

    def _point_worker(shard):          # top level: must pickle
        p = shard.params
        machine = Machine(p["config"], seed=p["machine_seed"])
        ...
        return {"interval": p["interval"], "ber": outcome.bit_error_rate}

    shards = make_shards(root_seed, [{...} for point in grid])
    rows = run_shards(_point_worker, shards, jobs=jobs, cache=cache,
                      cache_tag="my_sweep/v1")

    # or, with the machine build and warm-up shared per prefix:
    plan = WarmStartPlan(setup=_setup, body=_body,
                         prefix_keys=("config", "machine_seed"))
    rows = run_shards(plan, shards, jobs=jobs, cache=cache,
                      cache_tag="my_sweep/v1")
"""

from .batchexec import TraceBatchPlan
from .cache import CACHE_DIR_ENV, ResultCache, default_cache_root
from .pool import (
    BACKOFF_CAP_SECONDS,
    SHARD_ERROR_KEY,
    backoff_seconds,
    is_error_record,
    run_shards,
)
from .runtime import (
    FRESH,
    RUNTIME_ENV,
    Runtime,
    resolve_runtime,
    set_default_runtime,
    use_default_runtime,
)
from .shard import (
    Shard,
    canonical_json,
    derive_seed,
    make_content_shards,
    make_shards,
)
from .warmstart import WarmStartPlan, clear_warm_states

__all__ = [
    "TraceBatchPlan",
    "WarmStartPlan",
    "clear_warm_states",
    "FRESH",
    "RUNTIME_ENV",
    "Runtime",
    "resolve_runtime",
    "set_default_runtime",
    "use_default_runtime",
    "BACKOFF_CAP_SECONDS",
    "CACHE_DIR_ENV",
    "ResultCache",
    "SHARD_ERROR_KEY",
    "backoff_seconds",
    "default_cache_root",
    "is_error_record",
    "run_shards",
    "Shard",
    "canonical_json",
    "derive_seed",
    "make_content_shards",
    "make_shards",
]
