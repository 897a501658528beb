"""Persistent campaign store: queryable history for every sweep and bench.

``repro.store`` is the storage layer the reporting pipeline
(:mod:`repro.analysis.reports`, ``python -m repro report`` /
``python -m repro campaigns``) reads from:

* :class:`CampaignStore` — the sqlite database (campaigns, runs, shard
  results, checkpoint digests, benchmark artifacts, memoized analysis).
* :func:`record_sweep` / :func:`record_artifact` — the fail-soft ingest
  hooks called by :func:`repro.runner.run_shards` and
  ``benchmarks/conftest.artifact``.
* ``REPRO_STORE`` / :func:`set_default_store` / :func:`use_default_store`
  — how a process opts into recording (see :mod:`repro.store.ingest`).

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
    DISABLED,
    STORE_ENV,
    campaign_name,
    get_default_store,
    record_artifact,
    record_sweep,
    resolve_store,
    set_default_store,
    stamp_artifact,
    use_default_store,
)

__all__ = [
    "ArtifactRecord",
    "CampaignStore",
    "CampaignSummary",
    "RunRecord",
    "SCHEMA_VERSION",
    "ShardRow",
    "run_fingerprint",
    "DISABLED",
    "STORE_ENV",
    "campaign_name",
    "get_default_store",
    "record_artifact",
    "record_sweep",
    "resolve_store",
    "set_default_store",
    "stamp_artifact",
    "use_default_store",
]
