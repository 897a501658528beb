"""The sweep service: queue, executor, HTTP front end, client.

Promotes :mod:`repro.runner` from a single-process CLI into a job service
with location-transparent shard execution — identical requests dedupe
fleet-wide through the content-addressed result cache, and a sweep
submitted to the service produces store rows and fingerprints identical
to the same sweep run directly (see docs/service.md).

=====================  =================================================
Module                 Responsibility
=====================  =================================================
:mod:`.spec`           :class:`JobSpec` — the validated JSON surface
:mod:`.queue`          :class:`JobQueue` — persistent sqlite priority queue
:mod:`.exec`           :func:`execute_job` — spec → experiment call
:mod:`.backends`       :class:`LocalBackend` — the in-process executor
:mod:`.server`         :class:`SweepService` — asyncio HTTP + dispatcher
:mod:`.client`         :class:`ServiceClient` — blocking HTTP client
=====================  =================================================
"""

from .backends import LocalBackend
from .client import ServiceClient
from .exec import ForwardingTrace, execute_job
from .queue import DEFAULT_MAX_DEPTH, Job, JobQueue, QUEUE_SCHEMA_VERSION
from .server import ServiceThread, SweepService, run_service
from .spec import EXPERIMENT_PARAMS, PLATFORMS, JobSpec, register_platform

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "EXPERIMENT_PARAMS",
    "ForwardingTrace",
    "Job",
    "JobQueue",
    "JobSpec",
    "LocalBackend",
    "PLATFORMS",
    "QUEUE_SCHEMA_VERSION",
    "ServiceClient",
    "ServiceThread",
    "SweepService",
    "execute_job",
    "register_platform",
    "run_service",
]
