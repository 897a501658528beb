"""Selectable trace-execution backends for :meth:`Machine.run_trace`.

Three backends execute batched memory-op traces with bit-identical results.
The choice concerns ``run_trace`` only: scheduled programs
(:class:`~repro.sim.scheduler.Scheduler`) step each op through a
:func:`~repro.engine.soa.open_session` plane session whenever the machine's
policies are supported, whatever its backend.

``object``
    The default: per-op dispatch through the ``CacheHierarchy`` object
    graph.  Supports every policy/mapping combination.

``soa``
    The struct-of-arrays engine (:mod:`repro.engine.soa`): the hierarchy
    is flattened into per-level planes, traces are pre-compiled into
    flat row tuples (:mod:`repro.engine.compile`), and one plane
    session steps the batch with no per-op allocation or method
    dispatch.  Falls back to ``object`` for machines with unsupported
    (non-stock) replacement policies unless the caller demanded it
    explicitly.

``batch``
    The trial-batched engine (:mod:`repro.engine.batch`): N independent
    trials execute as one array program over the SoA planes extended
    with a leading trial axis (shared coherent rows plus per-set
    copy-on-diverge overlays).  :meth:`Machine.run_trace` treats it as a
    one-trial batch; the multi-trial entry points are
    :func:`run_trace_batch` and :class:`BatchMachine`.  Support and
    fallback rules are exactly the SoA ones.

The process-wide default comes from the ``REPRO_ENGINE`` environment
variable (CI runs the whole test suite again with ``REPRO_ENGINE=soa``
and ``REPRO_ENGINE=batch`` as backend-equivalence checks); per-machine
and per-call selection go through ``Machine(..., backend=...)`` and
``Machine.run_trace(..., backend=...)``.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import ConfigurationError
from .batch import BatchMachine, BatchResult, TrialView, run_trace_batch
from .compile import CompiledTrace, OP_NAMES, compile_trace
from .planes import PlaneManifest, export_planes, pack_planes, unpack_planes
from .soa import execute, hierarchy_arrays, open_session, pmu_vectors, supports

#: Recognised backend names.
BACKENDS = ("object", "soa", "batch")

#: Environment variable selecting the process-wide default backend.
ENGINE_ENV_VAR = "REPRO_ENGINE"


def default_backend() -> str:
    """The process-wide default backend (``REPRO_ENGINE`` or ``object``)."""
    return resolve_backend(None)


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend name, or resolve the env default.

    Raises :class:`ConfigurationError` eagerly — callers
    (:class:`Machine` construction included) surface a bad name or a bad
    ``REPRO_ENGINE`` value immediately, naming the offending source,
    instead of failing deep inside the first ``run_trace``.
    """
    if backend is None:
        env = os.environ.get(ENGINE_ENV_VAR)
        if not env:
            return "object"
        if env not in BACKENDS:
            raise ConfigurationError(
                f"unknown engine backend {env!r} from the {ENGINE_ENV_VAR} "
                f"environment variable; expected one of {BACKENDS}"
            )
        return env
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown engine backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


__all__ = [
    "BACKENDS",
    "BatchMachine",
    "BatchResult",
    "CompiledTrace",
    "ENGINE_ENV_VAR",
    "OP_NAMES",
    "PlaneManifest",
    "TrialView",
    "compile_trace",
    "default_backend",
    "execute",
    "export_planes",
    "hierarchy_arrays",
    "open_session",
    "pack_planes",
    "pmu_vectors",
    "resolve_backend",
    "unpack_planes",
    "run_trace_batch",
    "supports",
]
