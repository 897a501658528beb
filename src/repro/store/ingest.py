"""Ingest wiring: how sweep runs reach the store, and where the store is.

:func:`repro.runner.run_shards` calls :func:`record_sweep` once after
every merge.  Recording is **fail-soft**: a broken or read-only store
costs the history entry, never the sweep — mirroring the
:class:`~repro.runner.cache.ResultCache` contract that results must not
depend on filesystem health.  A lost sweep entry is still loud: it counts
under ``runner.store.errors``, emits a ``runner.store.error`` trace event
naming the exception, and the CLI's runner summary says the run was not
recorded.

Code below the edges never looks for a store: it records into the
:class:`~repro.store.db.CampaignStore` it is handed, and ``store=None``
records nothing.  The edges (the CLI, ``repro serve``, the benchmark
conftest) choose the store once, reading ``$REPRO_STORE`` through
:func:`env_store_path`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence, Union

from .db import CampaignStore

#: Env var naming the default campaign store file.
STORE_ENV = "REPRO_STORE"

#: Values of ``REPRO_STORE`` that mean "no store".
_DISABLING_VALUES = ("", "0", "off", "none")


def env_store_path(
    default: Union[str, os.PathLike, None] = None
) -> Union[str, os.PathLike, None]:
    """The store file ``$REPRO_STORE`` names; None when it disables recording.

    ``0`` / ``off`` / ``none`` (any case) and the empty string disable;
    an unset variable yields ``default``.
    """
    path = os.environ.get(STORE_ENV)
    if path is None:
        return default
    if path.lower() in _DISABLING_VALUES:
        return None
    return path


def campaign_name(cache_tag: Optional[str], identity: str) -> str:
    """Default campaign name: the cache tag minus its ``/vN`` suffix.

    ``capacity_sweep/v1`` -> ``capacity_sweep``; with no tag, the worker's
    dotted identity names the campaign.
    """
    if not cache_tag:
        return identity
    base, sep, version = cache_tag.rpartition("/")
    if sep and version.startswith("v") and version[1:].isdigit():
        return base
    return cache_tag


def record_sweep(
    store: Optional[CampaignStore],
    campaign: str,
    shards: Sequence,
    results: Sequence,
    *,
    executor: str,
    engine: Optional[str] = None,
    batch_size: int = 1,
    jobs: int = 1,
    shards_computed: int = 0,
    shards_cached: int = 0,
    retries: int = 0,
    failures: int = 0,
    wall_seconds: float = 0.0,
    registry=None,
    trace=None,
    digests: Optional[Dict[str, str]] = None,
    cache_keys: Optional[Sequence[Optional[str]]] = None,
) -> Optional[int]:
    """Record one completed sweep run, fail-soft; returns the run id or None.

    ``engine`` defaults to the first shard's ``engine`` param (every sweep
    experiment stamps one) and falls back to the process default backend.
    ``registry``'s snapshot is stored as the run's metrics; the recording
    itself is accounted under ``runner.store.*`` and a ``runner.store``
    trace event (``runner.store.error``, with the exception's type and
    message, when the write fails), so history ingestion is observable
    like everything else.
    """
    if store is None or not shards:
        return None
    if engine is None:
        engine = _sweep_engine(shards)
    from ..cache import ENGINE_VERSION

    metrics_snapshot = None
    if registry is not None and registry.enabled:
        metrics_snapshot = registry.as_dict()
    try:
        run_id = store.record_run(
            campaign,
            list(shards),
            list(results),
            executor=executor,
            engine=engine,
            engine_version=str(ENGINE_VERSION),
            batch_size=batch_size,
            jobs=jobs,
            shards_computed=shards_computed,
            shards_cached=shards_cached,
            retries=retries,
            failures=failures,
            wall_seconds=wall_seconds,
            metrics=metrics_snapshot,
            digests=digests,
            cache_keys=cache_keys,
        )
    except Exception as error:
        if registry is not None:
            registry.counter("runner.store.errors").inc()
        if trace is not None:
            trace.emit("runner.store.error", campaign=campaign,
                       error=type(error).__name__, message=str(error))
        return None
    if registry is not None:
        registry.counter("runner.store.runs").inc()
        registry.counter("runner.store.shards").inc(len(shards))
    if trace is not None:
        trace.emit("runner.store", campaign=campaign, run=run_id,
                   shards=len(shards))
    return run_id


def _sweep_engine(shards: Sequence) -> str:
    """The sweep's engine backend, from shard params or the process default."""
    try:
        engine = shards[0].params.get("engine")
    except (AttributeError, IndexError):
        engine = None
    if engine:
        return engine
    from ..engine import default_backend

    return default_backend()


def stamp_artifact(result: Any) -> Any:
    """A *copy* of ``result`` stamped with engine backend and batch width.

    Benchmarks that already pin ``engine_backend`` / ``trial_batch_size``
    keep their values.  Non-dict results pass through untouched.  The input
    is never mutated — benchmark code frequently asserts on the very dict
    it hands to ``artifact()``.
    """
    if not isinstance(result, dict):
        return result
    from ..engine import default_backend

    stamped = dict(result)
    stamped.setdefault("engine_backend", default_backend())
    stamped.setdefault("trial_batch_size", 1)
    return stamped
