"""The `SearchDriver` contract: seeded, budgeted, store-backed evaluation.

Every strategy in :mod:`repro.search` is a subclass of
:class:`SearchDriver` that proposes candidates; the base class owns the
part all three share — turning a batch of candidates into an ordinary
shard sweep on the runner substrate.  That split is what makes the
strategies deterministic for free:

* Candidate seeds come from :func:`~repro.runner.shard.make_content_shards`
  restricted to the objective's own params, so the same candidate gets
  the same seed (and therefore the same simulated result) no matter
  which round, batch position, or strategy evaluates it.  The search
  ``round`` number rides along in the shard params — the stored rows are
  self-describing — but never feeds seeds or cache keys' content.
* Each round runs through ``run_shards`` (a worker or a warm-start plan),
  inheriting the stable merge order, the content-addressed result cache,
  the fault/retry layer, and campaign-store recording unchanged.
* The search fingerprint hashes the per-round
  :func:`~repro.store.run_fingerprint` values in round order, so two
  searches match iff every round evaluated the same candidates and saw
  the same results — at any ``jobs`` value.

Budget semantics: ``budget`` caps *computed evaluations*.  A candidate
the driver has already scored at the same fidelity is served from an
in-run memo and costs nothing; a round that would overrun the budget is
trimmed to the remaining allowance, deterministically (request order).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults import FaultPlan
from ..obs import EventTrace, MetricsRegistry, NULL_TRACE, get_registry
from ..runner.cache import ResultCache
from ..runner.pool import is_error_record
from ..runner.shard import canonical_json, make_content_shards
from ..store.db import run_fingerprint
from .objectives import Objective
from .space import Candidate, candidate_key


@dataclass
class EvalContext:
    """Everything one search run threads into its shard sweeps.

    Mirrors the sweep commands' runner surface: ``seed`` is the search's
    root seed (candidate proposal stream *and* shard seed derivation);
    the rest passes straight through to the runner.  ``store=None``
    resolves the process default / ``$REPRO_STORE`` as usual, and
    ``runtime=None`` likewise resolves the process-default execution
    runtime — :meth:`SearchDriver.run` installs one persistent
    :class:`~repro.runner.Runtime` per search when nothing else is
    configured, so a 40-round search spawns its worker pool once.
    """

    seed: int = 0
    jobs: int = 1
    cache: Optional[ResultCache] = None
    metrics: Optional[MetricsRegistry] = None
    trace: Optional[EventTrace] = None
    faults: Optional[FaultPlan] = None
    retries: int = 0
    store: Any = None
    campaign: Optional[str] = None
    runtime: Any = None


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate, in global evaluation order."""

    order: int
    round: int
    candidate: Candidate
    fidelity: int
    score: float


@dataclass
class SearchOutcome:
    """What a finished search hands back (and what the CLI prints)."""

    objective: str
    strategy: str
    budget: int
    grid_size: int
    winner: Candidate
    winner_score: float
    evaluations: List[Evaluation] = field(default_factory=list)
    round_fingerprints: List[str] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluations)

    @property
    def rounds(self) -> int:
        return self.evaluations[-1].round + 1 if self.evaluations else 0

    def trajectory(self) -> List[Dict[str, Any]]:
        """Per-round convergence rows: evaluations, round best, best so far.

        "Best so far" tracks the running maximum of evaluation scores;
        across a fidelity ladder the early entries are low-fidelity
        estimates, which is exactly what a convergence plot should show.
        """
        rows: List[Dict[str, Any]] = []
        best = -math.inf
        for ev in self.evaluations:
            if not rows or rows[-1]["round"] != ev.round:
                rows.append(
                    {"round": ev.round, "fidelity": ev.fidelity,
                     "evaluations": 0, "best": -math.inf, "best_so_far": best}
                )
            row = rows[-1]
            row["evaluations"] += 1
            row["best"] = max(row["best"], ev.score)
            best = max(best, ev.score)
            row["best_so_far"] = best
        return rows


class _RunState:
    """Mutable per-run bookkeeping shared by the base-class helpers."""

    def __init__(self) -> None:
        self.evaluations: List[Evaluation] = []
        self.memo: Dict[Tuple[str, int], float] = {}
        self.fingerprints: List[str] = []
        self.used = 0


class SearchDriver:
    """Base class: one objective, one budget, one seeded ``run``.

    Subclasses implement :meth:`search`, proposing candidate batches and
    calling :meth:`evaluate`; the base class supplies the determinism,
    budget, caching, and store plumbing described in the module
    docstring, and wraps the result into a :class:`SearchOutcome`.
    """

    #: Subclass strategy name (CLI ``--strategy`` value, campaign suffix).
    strategy = "base"

    def __init__(self, objective: Objective, budget: int):
        if budget < 1:
            raise ReproError(f"search budget must be >= 1, got {budget}")
        self.objective = objective
        self.budget = budget

    # -- subclass surface --------------------------------------------------

    def search(self, ctx: EvalContext, state: _RunState) -> Tuple[Candidate, float]:
        """Propose, evaluate, and return ``(winner, winner_score)``."""
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------

    def run(self, ctx: Optional[EvalContext] = None) -> SearchOutcome:
        """Execute the search; deterministic in ``ctx.seed`` at any ``jobs``.

        When no runtime is configured anywhere (no ``ctx.runtime``, no
        process default, no ``$REPRO_RUNTIME``), the driver owns one
        persistent :class:`~repro.runner.Runtime` for the whole search —
        every round reuses one worker pool — and closes it before
        returning.  An explicit choice (including ``FRESH``) is respected.
        """
        from ..runner.runtime import Runtime, runtime_configured

        ctx = ctx if ctx is not None else EvalContext()
        if ctx.campaign is None:
            ctx.campaign = f"search/{self.objective.name}/{self.strategy}"
        state = _RunState()
        registry = ctx.metrics if ctx.metrics is not None else get_registry()
        owned_runtime = None
        if ctx.runtime is None and ctx.jobs > 1 and not runtime_configured():
            owned_runtime = ctx.runtime = Runtime(name=f"search/{self.strategy}")
        try:
            winner, winner_score = self.search(ctx, state)
        finally:
            if owned_runtime is not None:
                owned_runtime.close()
                ctx.runtime = None
        if winner is None:
            raise ReproError(
                f"{self.strategy} search produced no scored candidate "
                f"(budget {self.budget})"
            )
        fingerprint = hashlib.sha256(
            canonical_json(
                ["search", self.objective.name, self.strategy, state.fingerprints]
            ).encode("utf-8")
        ).hexdigest()
        registry.counter("search.evaluations").inc(0)  # materialize
        registry.counter("search.runs").inc()
        registry.gauge("search.best_score").set(winner_score)
        trace = ctx.trace if ctx.trace is not None else NULL_TRACE
        trace.emit(
            "search.done",
            objective=self.objective.name,
            strategy=self.strategy,
            evaluations=state.used,
            budget=self.budget,
            best=winner_score,
            fingerprint=fingerprint,
        )
        return SearchOutcome(
            objective=self.objective.name,
            strategy=self.strategy,
            budget=self.budget,
            grid_size=self.objective.space.grid_size,
            winner=winner,
            winner_score=winner_score,
            evaluations=list(state.evaluations),
            round_fingerprints=list(state.fingerprints),
            fingerprint=fingerprint,
        )

    def remaining(self, state: _RunState) -> int:
        return self.budget - state.used

    def evaluate(
        self,
        ctx: EvalContext,
        state: _RunState,
        candidates: Sequence[Candidate],
        fidelity: int,
        round_no: int,
    ) -> List[Tuple[Candidate, float]]:
        """Score ``candidates`` at ``fidelity``; one shard batch per call.

        Returns ``(candidate, score)`` pairs in request order.  Already-
        scored (candidate, fidelity) pairs come from the in-run memo and
        are free; fresh candidates past the remaining budget are dropped
        from the tail (their pairs are omitted from the return).  A shard
        that exhausts its retries scores ``-inf`` — a deterministic
        verdict, since fault decisions key on (shard index, attempt).
        """
        fresh: List[Candidate] = []
        for candidate in candidates:
            key = (candidate_key(candidate), fidelity)
            if key not in state.memo and all(
                candidate_key(c) != key[0] for c in fresh
            ):
                fresh.append(candidate)
        fresh = fresh[: max(0, self.remaining(state))]
        if fresh:
            params_sets = [
                dict(self.objective.params(candidate, fidelity), round=round_no)
                for candidate in fresh
            ]
            seed_keys = sorted(k for k in params_sets[0] if k != "round")
            shards = make_content_shards(ctx.seed, params_sets, seed_keys=seed_keys)
            rows = self.objective.evaluate_shards(shards, ctx)
            state.fingerprints.append(run_fingerprint(shards, rows))
            registry = ctx.metrics if ctx.metrics is not None else get_registry()
            registry.counter("search.evaluations").inc(len(fresh))
            registry.counter("search.rounds").inc()
            best_here = -math.inf
            for candidate, row in zip(fresh, rows):
                if is_error_record(row):
                    score = -math.inf
                elif "score" not in row:
                    raise ReproError(
                        f"objective {self.objective.name!r} returned a row "
                        "without a 'score' key; search objectives must score "
                        "every evaluation"
                    )
                else:
                    score = float(row["score"])
                state.memo[(candidate_key(candidate), fidelity)] = score
                state.evaluations.append(
                    Evaluation(
                        order=len(state.evaluations),
                        round=round_no,
                        candidate=dict(candidate),
                        fidelity=fidelity,
                        score=score,
                    )
                )
                state.used += 1
                best_here = max(best_here, score)
            trace = ctx.trace if ctx.trace is not None else NULL_TRACE
            trace.emit(
                "search.round",
                strategy=self.strategy,
                round=round_no,
                fidelity=fidelity,
                evaluated=len(fresh),
                best=best_here,
                used=state.used,
                budget=self.budget,
            )
        scored: List[Tuple[Candidate, float]] = []
        for candidate in candidates:
            score = state.memo.get((candidate_key(candidate), fidelity))
            if score is not None:
                scored.append((candidate, score))
        return scored
