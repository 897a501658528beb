"""Tests for the search objectives: scoring shape and substrate wiring."""

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.runner import clear_warm_states, make_content_shards
from repro.search import (
    CapacityCliffObjective,
    DetectionKneeObjective,
    EvalContext,
    SuccessiveHalving,
    ToyCliffObjective,
    make_driver,
    make_objective,
)
from repro.search.objectives import _toy_cliff_worker


def _score(objective, candidate, fidelity):
    params = dict(objective.params(candidate, fidelity), round=0)
    [shard] = make_content_shards(0, [params],
                                  seed_keys=sorted(k for k in params if k != "round"))
    [row] = objective.evaluate_shards([shard], EvalContext())
    return row["score"]


class TestToyCliff:
    def test_score_climbs_to_the_cliff_then_collapses(self):
        objective = ToyCliffObjective(cliff=256)
        below = _score(objective, {"interval": 128}, 16)
        at = _score(objective, {"interval": 256}, 16)
        past = _score(objective, {"interval": 260}, 16)
        assert below < at
        assert past < below  # the far side of the cliff loses a full unit

    def test_noise_shrinks_with_fidelity(self):
        objective = ToyCliffObjective(cliff=256, noise_scale=0.5)
        spread = {}
        for fidelity in (1, 16):
            scores = [
                _toy_cliff_worker(shard)["score"]
                for shard in make_content_shards(0, [
                    dict(objective.params({"interval": 100}, fidelity), probe=i)
                    for i in range(40)
                ])
            ]
            mean = sum(scores) / len(scores)
            spread[fidelity] = sum((s - mean) ** 2 for s in scores) / len(scores)
        assert spread[16] < spread[1] / 4

    def test_cliff_must_be_a_grid_point(self):
        with pytest.raises(ReproError):
            ToyCliffObjective(cliff=257)


class TestSimulatorObjectives:
    def test_capacity_cliff_scores_are_capacities(self):
        objective = CapacityCliffObjective(fidelities=(16,))
        score = _score(objective, {"interval": 1500}, 16)
        assert score > 0  # KB/s at a working operating point

    def test_capacity_search_end_to_end_on_a_narrow_space(self):
        objective = CapacityCliffObjective(
            lo=1400, hi=2000, step=200, fidelities=(16, 32)
        )
        outcome = SuccessiveHalving(objective, 5).run(EvalContext(seed=0))
        assert 1400 <= outcome.winner["interval"] <= 2000
        assert outcome.winner_score > 0

    def test_capacity_search_builds_its_prefix_once(self):
        """Every round of a mutate search evaluates on the same channel
        prefix: one build serves them all, at any ``jobs`` value."""
        objective = CapacityCliffObjective(
            lo=1200, hi=2800, step=100, fidelities=(16,)
        )
        fingerprints = []
        for jobs in (1, 2):
            clear_warm_states()
            registry = MetricsRegistry()
            outcome = make_driver("mutate", objective, 14).run(
                EvalContext(seed=3, jobs=jobs, metrics=registry)
            )
            assert registry.counter("search.rounds").value > 1
            assert registry.counter("runner.checkpoint.captures").value == 1
            assert (
                registry.counter("runner.checkpoint.reuses").value
                == registry.counter("search.rounds").value - 1
            )
            fingerprints.append(outcome.fingerprint)
        clear_warm_states()
        assert fingerprints[0] == fingerprints[1]

    def test_detection_knee_prefers_short_feasible_periods(self):
        objective = DetectionKneeObjective(fidelities=(60_000,))
        slow = _score(objective, {"period": 4500}, 60_000)
        fast_feasible = _score(objective, {"period": 2600}, 60_000)
        assert fast_feasible > slow  # shorter period, still detected

    def test_registry_builds_each_objective(self):
        for name in ("toy-cliff", "capacity-cliff", "detection-knee"):
            objective = make_objective(name)
            assert objective.name == name
            assert objective.fidelities == tuple(sorted(objective.fidelities))
