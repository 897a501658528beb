"""Job specs: the JSON surface of the sweep service.

A :class:`JobSpec` is everything a client may ask the service to run — an
experiment name, its parameters, and the runner surface the CLI already
exposes (jobs, engine, warm start, fault plan, retries).  Specs are
validated eagerly at construction, round-trip through JSON, and carry a
content :meth:`~JobSpec.fingerprint` (priority excluded — scheduling must
never change what a job computes) so duplicate submissions are recognizable
fleet-wide.

Determinism note: a spec deliberately contains *only* values that feed the
experiment functions the CLI calls.  Executing a spec (see
:mod:`repro.service.exec`) therefore produces shard seeds, cache keys,
warm-start digests, and store fingerprints byte-identical to the same
sweep run via ``python -m repro ...`` directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import KABY_LAKE, SKYLAKE, PlatformConfig
from ..errors import ConfigurationError, ReproError, ServiceError
from ..faults import FaultPlan
from ..runner.shard import canonical_json

#: Platform names a spec may reference (mirrors the CLI's ``--platform``).
#: Tests may register extra configs (e.g. a tiny geometry) via
#: :func:`register_platform`.
PLATFORMS: Dict[str, PlatformConfig] = {
    "skylake": SKYLAKE,
    "kaby-lake": KABY_LAKE,
}

#: Experiment name -> parameter keys a spec's ``params`` may carry.  The
#: execution functions live in :mod:`repro.service.exec`; this table is
#: what submission-time validation checks against, so a typo'd parameter
#: is a 400 at the front door, not a TypeError in a worker.
EXPERIMENT_PARAMS: Dict[str, frozenset] = {
    "capacity": frozenset({"channel", "intervals", "n_bits"}),
    "insertion": frozenset({"trials", "batch_size"}),
    "noise": frozenset({"n_bits"}),
    "detection": frozenset({"duration"}),
    "sensitivity": frozenset({"n_bits"}),
    "comparison": frozenset({"n_bits"}),
    "search": frozenset({"objective", "strategy", "budget"}),
}


def register_platform(name: str, config: PlatformConfig) -> None:
    """Make ``config`` addressable from specs as ``platform=name`` (tests)."""
    PLATFORMS[name] = config


@dataclass(frozen=True)
class JobSpec:
    """One validated sweep/search request.

    ``params`` carries the experiment-specific knobs (see
    :data:`EXPERIMENT_PARAMS`); everything else mirrors the sweep CLI's
    runner flags.  ``priority`` orders the job in the queue (higher runs
    first, FIFO within a priority) and is excluded from the fingerprint.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    platform: str = "skylake"
    engine: Optional[str] = None
    seed: int = 0
    jobs: int = 1
    priority: int = 0
    warm_start: bool = True
    faults: Optional[Dict[str, Any]] = None
    retries: int = 0

    def __post_init__(self) -> None:
        experiment = self.experiment
        if not isinstance(experiment, str) or experiment not in EXPERIMENT_PARAMS:
            raise ServiceError(
                f"unknown experiment {experiment!r} "
                f"(choose from {', '.join(sorted(EXPERIMENT_PARAMS))})"
            )
        if not isinstance(self.platform, str) or self.platform not in PLATFORMS:
            raise ServiceError(
                f"unknown platform {self.platform!r} "
                f"(choose from {', '.join(sorted(PLATFORMS))})"
            )
        if not isinstance(self.params, dict):
            raise ServiceError(
                f"params must be a JSON object, got {type(self.params).__name__}"
            )
        unknown = sorted(set(self.params) - EXPERIMENT_PARAMS[self.experiment])
        if unknown:
            raise ServiceError(
                f"unknown {self.experiment} param(s): {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(EXPERIMENT_PARAMS[self.experiment]))})"
            )
        for name in ("seed", "jobs", "priority", "retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServiceError(
                    f"{name} must be an integer, got {type(value).__name__}"
                )
        if not isinstance(self.warm_start, bool):
            raise ServiceError(
                f"warm_start must be a boolean, got {type(self.warm_start).__name__}"
            )
        if self.jobs < 0:
            raise ServiceError(f"jobs must be >= 0, got {self.jobs}")
        if self.retries < 0:
            raise ServiceError(f"retries must be >= 0, got {self.retries}")
        if self.engine is not None:
            from ..engine import resolve_backend

            try:
                resolve_backend(self.engine)
            except ConfigurationError as error:
                raise ServiceError(str(error)) from error
        if self.faults is not None:
            try:
                FaultPlan.from_dict(self.faults)
            except (ReproError, TypeError) as error:
                # A field of the wrong type fails the plan's own range
                # checks with a TypeError.
                raise ServiceError(f"invalid fault plan: {error}") from error

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over the spec's computation-relevant content.

        Priority is excluded: two submissions that differ only in urgency
        are the *same work* and must dedupe against the same cache keys.
        """
        material = {
            key: value
            for key, value in self.to_dict().items()
            if key != "priority"
        }
        return hashlib.sha256(
            canonical_json(material).encode("utf-8")
        ).hexdigest()

    def fault_plan(self) -> Optional[FaultPlan]:
        """The spec's :class:`~repro.faults.FaultPlan`, or None."""
        return FaultPlan.from_dict(self.faults) if self.faults is not None else None

    def config(self) -> PlatformConfig:
        """The resolved platform configuration."""
        return PLATFORMS[self.platform]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(
                f"unknown job spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        if "experiment" not in data:
            raise ServiceError("job spec is missing the 'experiment' field")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ServiceError(f"job spec is not valid JSON: {error}") from error
        return cls.from_dict(data)
