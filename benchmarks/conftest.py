"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures and prints
a paper-vs-measured report.  Absolute numbers come from a simulator, so the
assertions check the *shape* of each result (who wins, by what factor, where
crossovers fall), not cycle-exact equality.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.results_io import save_result
from repro.store import CampaignStore, env_store_path, stamp_artifact

#: Machine-readable copies of benchmark results land here.
ARTIFACT_DIR = Path(__file__).parent / "bench_artifacts"

#: Sentinel for a campaign store not opened yet.
_UNOPENED = object()

#: The benchmarks' campaign store, opened by the first :func:`artifact`.
_STORE = _UNOPENED


def _bench_store():
    """The campaign store benchmark runs record into, opened on first use.

    ``$REPRO_STORE`` when set, else a database next to the JSON artifacts.
    Opening lazily keeps a bare import (test collection) from creating a
    file.  Fail-soft — an unopenable store costs the history entry, never
    the benchmark.
    """
    global _STORE
    if _STORE is _UNOPENED:
        path = env_store_path(default=ARTIFACT_DIR / "campaigns.sqlite")
        try:
            _STORE = CampaignStore(path) if path is not None else None
        except Exception:  # pragma: no cover - storage health must not gate benches
            _STORE = None
    return _STORE


def report(title: str, body: str) -> None:
    """Print one experiment's paper-vs-measured block."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def artifact(name: str, result) -> None:
    """Persist one experiment result as a JSON artifact (best effort).

    Every dict artifact is stamped with the engine backend the run
    defaulted to and its trial-batch width, so numbers from different
    backends (e.g. a ``REPRO_ENGINE=batch`` CI leg) never get compared
    as like-for-like by accident.  Benchmarks that pin these explicitly
    keep their own values.  Stamping happens on a *copy*: callers assert
    against the dicts they hand in, so the input is never mutated.

    Each artifact also lands in the campaign store (``campaigns.sqlite``
    beside the JSON files, or ``$REPRO_STORE``), which is what feeds the
    ``python -m repro report`` perf trajectory.
    """
    result = stamp_artifact(result)
    try:
        save_result(result, ARTIFACT_DIR / f"{name}.json")
    except Exception as error:  # pragma: no cover - artifacts are optional
        print(f"(artifact {name} not saved: {error})")
    if not isinstance(result, dict):
        return
    store = _bench_store()
    if store is None:
        return
    try:
        store.record_artifact(name, result)
    except Exception as error:  # the history entry is optional too
        print(f"(artifact {name} not recorded: {error})")


@pytest.fixture
def once(benchmark):
    """Run the (expensive) experiment exactly once under pytest-benchmark."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
