"""Persistent campaign store: queryable history for every sweep and bench.

``repro.store`` is the storage layer the reporting pipeline
(:mod:`repro.analysis.reports`, ``python -m repro report`` /
``python -m repro campaigns``) reads from:

* :class:`CampaignStore` — the sqlite database (campaigns, runs, shard
  results, checkpoint digests, benchmark artifacts, memoized analysis).
* :func:`record_sweep` — the fail-soft ingest hook called by
  :func:`repro.runner.run_shards` with the store it was handed.
* :func:`env_store_path` — the store file ``$REPRO_STORE`` names; the
  CLI, ``repro serve`` and the benchmark conftest read it once and pass
  the opened store down (see :mod:`repro.store.ingest`).

See ``docs/campaigns.md`` for the schema and the report commands.
"""

from .db import (
    ArtifactRecord,
    CampaignStore,
    CampaignSummary,
    RunRecord,
    SCHEMA_VERSION,
    ShardRow,
    run_fingerprint,
)
from .ingest import (
    STORE_ENV,
    campaign_name,
    env_store_path,
    record_sweep,
    stamp_artifact,
)

__all__ = [
    "ArtifactRecord",
    "CampaignStore",
    "CampaignSummary",
    "RunRecord",
    "SCHEMA_VERSION",
    "ShardRow",
    "run_fingerprint",
    "STORE_ENV",
    "campaign_name",
    "env_store_path",
    "record_sweep",
    "stamp_artifact",
]
