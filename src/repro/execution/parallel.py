"""Partitioned ("cluster") rule execution with fault tolerance.

Section 4 suggests executing rules "in parallel on a cluster of machines
(e.g., using Hadoop)". The cluster is simulated: items are sharded across
workers, rules are *serialized* to each worker and rebuilt there (as they
would be shipped to Hadoop tasks), each shard reports its own work, and the
driver merges shard outputs. With ``use_processes=True`` the shards run in
a real process pool.

The driver tokenizes each item exactly once into a
:class:`~repro.core.prepared.PreparedItem` and ships the *prepared token
payloads* to the shards, so workers never re-tokenize — the same
"precompute the per-record views once" discipline the single-node
executors follow.

The driver also implements the §2.2 failure model ("the system must keep
running and degrade gracefully"):

* every shard attempt is assigned to a worker by rotation
  (``worker = (shard + attempt) % n_workers``), so retrying a shard
  *re-dispatches it to a different worker* — a dead worker costs retries,
  not results;
* failed attempts (crash, hang/timeout, corrupt output) back off
  exponentially with seeded jitter (:class:`RetryPolicy`) through an
  injectable sleep, then retry, up to ``max_attempts``;
* shard output is validated before merging
  (:func:`~repro.execution.resilience.validate_shard_output`), so a
  corrupt worker cannot poison the merged fired map;
* when a shard exhausts its attempts the run *degrades instead of
  raising*: :class:`PartitionedRunResult` reports exactly which shards and
  item ids were skipped, and callers that need all-or-nothing semantics
  use :meth:`PartitionedRunResult.require_complete`.

Fault injection for tests goes through the optional ``fault_plan``
(see :mod:`repro.testing.faults`): the driver consults it at each
(worker, shard, attempt) dispatch, which keeps injected crashes, hangs,
and corruption fully deterministic — and free of real sleeps.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Rule
from repro.core.serialize import rules_from_dicts, rules_to_dicts
from repro.execution.executor import ExecutionStats, IndexedExecutor
from repro.observability import Observability, ensure_observability
from repro.execution.resilience import (
    CorruptShardOutput,
    DegradedRunError,
    FaultEvent,
    RetryPolicy,
    ShardFailure,
    WorkerCrash,
    WorkerHang,
    validate_shard_output,
)


@dataclass(frozen=True)
class ShardReport:
    """Per-shard outcome: which work was done, and what it took to get it.

    ``retries`` counts failed attempts before success; ``status`` is
    ``"ok"`` for merged shards and ``"skipped"`` for shards that exhausted
    their retry budget (their items are absent from the fired map and
    listed on the run result). ``worker_id`` is the worker that produced
    the accepted output (-1 for skipped shards).

    ``wall_time`` / ``prepare_time`` / ``match_time`` are the *accepted
    attempt's* worker-side timings — failed attempts never contribute, so
    summing these across reports reconstructs exactly what landed in the
    merged stats (the regression tests in ``tests/test_timing_stats.py``
    hold the driver to that).
    """

    shard_id: int
    items: int
    rule_evaluations: int
    matches: int
    attempts: int = 1
    retries: int = 0
    status: str = "ok"
    worker_id: int = -1
    wall_time: float = 0.0
    prepare_time: float = 0.0
    match_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class PartitionedRunResult:
    """A possibly-degraded partitioned run: results plus an honest account.

    The degraded-mode contract: the fired map contains exactly the output
    of every shard that succeeded, ``skipped_item_ids`` names every item
    whose shard did not, and ``fault_events`` records each failure the
    driver observed and how it responded. ``fired`` is never silently
    partial — ``degraded`` says so.

    Timing contract: ``stats.wall_time`` is the driver's elapsed time for
    the whole run (retries, backoff, and failed attempts included);
    ``stats.prepare_time`` is ``driver_prepare_time`` (tokenizing the
    shards once) plus the accepted attempts' shard-side prepare times, and
    ``stats.match_time`` sums the accepted attempts' match times — both
    additive CPU totals that count each shard's work exactly once no
    matter how many times it was retried.
    """

    fired: Dict[str, List[str]]
    stats: ExecutionStats
    reports: List[ShardReport]
    skipped_shards: List[int] = field(default_factory=list)
    skipped_item_ids: List[str] = field(default_factory=list)
    fault_events: List[FaultEvent] = field(default_factory=list)
    driver_prepare_time: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(self.skipped_shards)

    @property
    def complete(self) -> bool:
        return not self.degraded

    @property
    def total_retries(self) -> int:
        return sum(1 for event in self.fault_events if event.action == "retry")

    def require_complete(self) -> "PartitionedRunResult":
        """Raise :class:`DegradedRunError` unless every shard merged."""
        if self.degraded:
            raise DegradedRunError(
                f"run degraded: shards {self.skipped_shards} skipped "
                f"({len(self.skipped_item_ids)} items) after "
                f"{len(self.fault_events)} fault(s)"
            )
        return self


def _run_shard(
    shard_id: int,
    rule_payloads: List[Dict[str, Any]],
    item_payloads: List[Dict[str, Any]],
    token_frequency: Optional[Dict[str, int]],
    clock: Optional[Callable[[], float]] = None,
) -> Tuple[int, Dict[str, List[str]], ExecutionStats]:
    """In-process worker entry point: rebuild rules and items, execute.

    ``clock`` is only threaded through for in-process shards (process-pool
    workers keep the default monotonic clock — an arbitrary callable is
    not guaranteed to be picklable).
    """
    rules = rules_from_dicts(rule_payloads)
    shard_items = [PreparedItem.from_payload(payload) for payload in item_payloads]
    executor = IndexedExecutor(rules, token_frequency=token_frequency, clock=clock)
    fired, stats = executor.run(shard_items)
    return shard_id, fired, stats


def partition_round_robin(items: Sequence[Any], n_shards: int) -> List[List[Any]]:
    """Deal ``items`` round-robin into ``n_shards`` lists (some may be empty).

    The canonical sharding used across the repo — item ``i`` goes to shard
    ``i % n_shards`` — extracted so the partitioned executor and the
    sharded rule generator split work identically.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    shards: List[List[Any]] = [[] for _ in range(n_shards)]
    for index, item in enumerate(items):
        shards[index % n_shards].append(item)
    return shards


# Per-process worker state, installed once by the pool initializer: rules
# cross the process boundary once per *worker*, so each shard submission
# carries only its own items and pickle size stays O(shard items).
_WORKER_STATE: Dict[str, Any] = {}


def _init_worker(
    rule_payloads: List[Dict[str, Any]],
    token_frequency: Optional[Dict[str, int]],
) -> None:
    _WORKER_STATE["executor"] = IndexedExecutor(
        rules_from_dicts(rule_payloads), token_frequency=token_frequency
    )


def _run_shard_pooled(
    shard_id: int, shard_payload: List[Dict[str, Any]]
) -> Tuple[int, Dict[str, List[str]], ExecutionStats]:
    """Process-pool worker entry point: only the shard's prepared-item
    payloads travel; the worker's per-process :class:`IndexedExecutor`
    runs them."""
    shard_items = [PreparedItem.from_payload(payload) for payload in shard_payload]
    fired, stats = _WORKER_STATE["executor"].run(shard_items)
    return shard_id, fired, stats


class PartitionedExecutor:
    """Shards items over N workers, each running an IndexedExecutor.

    Resilience knobs (all optional; the defaults reproduce a healthy run):

    * ``retry_policy`` — attempts/backoff for failed shards
      (:class:`~repro.execution.resilience.RetryPolicy`);
    * ``shard_timeout`` — seconds before a process-pool shard counts as a
      straggler and is re-dispatched (ignored in-process);
    * ``fault_plan`` — a :class:`~repro.testing.faults.FaultPlan` consulted
      at every dispatch, for deterministic failure testing;
    * ``sleep`` — the backoff sleep callable (tests inject a
      :class:`~repro.testing.faults.VirtualSleeper`);
    * ``retry_seed`` — seeds the backoff jitter RNG.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        n_workers: int = 4,
        use_processes: bool = False,
        token_frequency: Optional[Dict[str, int]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        fault_plan: Optional[Any] = None,
        sleep: Optional[Callable[[float], None]] = None,
        retry_seed: int = 0,
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be positive, got {shard_timeout}")
        self.rule_payloads = rules_to_dicts(rules)
        self.n_workers = n_workers
        self.use_processes = use_processes
        self.token_frequency = token_frequency
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.shard_timeout = shard_timeout
        self.fault_plan = fault_plan
        self._sleep = sleep if sleep is not None else time.sleep
        self.retry_seed = retry_seed
        self.observability = ensure_observability(observability)
        self._clock = clock if clock is not None else time.perf_counter
        self._known_rule_ids = frozenset(
            payload["rule_id"] for payload in self.rule_payloads
        )

    def _shards(
        self, items: Sequence[ItemLike]
    ) -> Tuple[List[List[Dict[str, Any]]], List[List[str]], float]:
        """Round-robin prepared-payload shards, their item ids, and time."""
        started = self._clock()
        prepared_shards = partition_round_robin(
            [prepare(item) for item in items], self.n_workers
        )
        shards = [
            [prepared.to_payload() for prepared in shard]
            for shard in prepared_shards
        ]
        shard_ids = [
            [prepared.item_id for prepared in shard] for shard in prepared_shards
        ]
        return shards, shard_ids, self._clock() - started

    def _worker_for(self, shard_id: int, attempt: int) -> int:
        """Rotate a retried shard onto the next worker (re-dispatch)."""
        return (shard_id + attempt) % self.n_workers

    def _fault_for(self, worker: int, shard_id: int, attempt: int):
        if self.fault_plan is None:
            return None
        return self.fault_plan.fault_for(worker, shard_id, attempt)

    def _dispatch_round(
        self,
        pending: Sequence[int],
        attempt: int,
        shards: List[List[Dict[str, Any]]],
        pool: Optional[ProcessPoolExecutor],
    ) -> Dict[int, Any]:
        """Run every pending shard once; outcome is a tuple or a failure."""
        obs = self.observability
        outcomes: Dict[int, Any] = {}
        submitted: List[Tuple[int, Any, Any, int]] = []
        for shard_id in sorted(pending):
            worker = self._worker_for(shard_id, attempt)
            spec = self._fault_for(worker, shard_id, attempt)
            if spec is not None and spec.blocks_execution:
                self.fault_plan.record(spec, worker, shard_id, attempt)
                outcomes[shard_id] = spec.to_exception(worker, shard_id, attempt)
                continue
            if pool is None:
                try:
                    with obs.span(
                        "shard", shard=shard_id, worker=worker, attempt=attempt
                    ):
                        output = _run_shard(
                            shard_id, self.rule_payloads, shards[shard_id],
                            self.token_frequency, clock=self._clock,
                        )
                except Exception as exc:  # a real worker fault, not injected
                    outcomes[shard_id] = WorkerCrash(f"shard {shard_id} raised: {exc!r}")
                    continue
                if spec is not None:
                    self.fault_plan.record(spec, worker, shard_id, attempt)
                    output = spec.corrupt_output(output)
                outcomes[shard_id] = output
            else:
                # Only the shard's own items travel: rules reached every
                # worker once, via the pool initializer.
                future = pool.submit(_run_shard_pooled, shard_id, shards[shard_id])
                submitted.append((shard_id, future, spec, worker))
        if submitted:
            with obs.span("gather", shards=len(submitted), attempt=attempt):
                for shard_id, future, spec, worker in submitted:
                    try:
                        output = future.result(timeout=self.shard_timeout)
                    except FutureTimeoutError:
                        future.cancel()
                        outcomes[shard_id] = WorkerHang(
                            f"shard {shard_id} exceeded {self.shard_timeout}s"
                        )
                        continue
                    except Exception as exc:
                        outcomes[shard_id] = WorkerCrash(
                            f"shard {shard_id} raised: {exc!r}"
                        )
                        continue
                    if spec is not None:
                        self.fault_plan.record(spec, worker, shard_id, attempt)
                        output = spec.corrupt_output(output)
                    outcomes[shard_id] = output
        return outcomes

    @staticmethod
    def _failure_kind(failure: ShardFailure) -> str:
        if isinstance(failure, WorkerHang):
            return "hang"
        if isinstance(failure, CorruptShardOutput):
            return "corrupt"
        return "crash"

    def run_detailed(self, items: Sequence[ItemLike]) -> PartitionedRunResult:
        """Execute with retry/re-dispatch; degrade (never raise) on faults.

        Timing discipline (see the satellite audit in
        ``tests/test_timing_stats.py``): only the *accepted* attempt of
        each shard lands in the merged ``prepare_time`` / ``match_time`` —
        a retried shard's failed attempts cost driver wall-clock (which
        ``wall_time`` reports truthfully) but are never folded into the
        additive CPU totals, so retries cannot double-count shard work.
        """
        obs = self.observability
        clock = self._clock
        with obs.span(
            "exec.partitioned.run", workers=self.n_workers, items=len(items)
        ) as run_span:
            started = clock()
            with obs.span("prepare"):
                shards, shard_item_ids, driver_prepare_time = self._shards(items)
            policy = self.retry_policy
            rng = random.Random(self.retry_seed)
            events: List[FaultEvent] = []
            accepted: Dict[
                int, Tuple[Dict[str, List[str]], ExecutionStats, int, int]
            ] = {}
            pool: Optional[ProcessPoolExecutor] = None
            try:
                if self.use_processes:
                    pool = ProcessPoolExecutor(
                        max_workers=self.n_workers,
                        initializer=_init_worker,
                        initargs=(self.rule_payloads, self.token_frequency),
                    )
                pending = list(range(self.n_workers))
                attempt = 0
                while pending and attempt < policy.max_attempts:
                    with obs.span("round", attempt=attempt, pending=len(pending)):
                        outcomes = self._dispatch_round(pending, attempt, shards, pool)
                    failed: List[int] = []
                    for shard_id in sorted(outcomes):
                        outcome = outcomes[shard_id]
                        worker = self._worker_for(shard_id, attempt)
                        if not isinstance(outcome, ShardFailure):
                            _, fired, stats = outcome
                            try:
                                fired = validate_shard_output(
                                    fired, stats, shard_item_ids[shard_id],
                                    self._known_rule_ids,
                                )
                            except CorruptShardOutput as exc:
                                outcome = exc
                            else:
                                accepted[shard_id] = (fired, stats, attempt, worker)
                                continue
                        retrying = attempt + 1 < policy.max_attempts
                        backoff = (
                            policy.backoff_delay(attempt, rng) if retrying else 0.0
                        )
                        events.append(
                            FaultEvent(
                                shard_id=shard_id,
                                worker_id=worker,
                                attempt=attempt,
                                kind=self._failure_kind(outcome),
                                action="retry" if retrying else "skip",
                                error=str(outcome),
                                backoff=backoff,
                            )
                        )
                        failed.append(shard_id)
                    if failed and attempt + 1 < policy.max_attempts:
                        delay = max(
                            event.backoff for event in events[-len(failed):]
                        )
                        if delay > 0:
                            with obs.span("backoff", delay=round(delay, 6)):
                                self._sleep(delay)
                    pending = failed
                    attempt += 1
            finally:
                if pool is not None:
                    pool.shutdown(wait=False)

            merged: Dict[str, List[str]] = {}
            total = ExecutionStats()
            reports: List[ShardReport] = []
            skipped_shards: List[int] = []
            skipped_item_ids: List[str] = []
            with obs.span("merge", accepted=len(accepted)):
                for shard_id in range(self.n_workers):
                    if shard_id in accepted:
                        fired, shard_stats, final_attempt, worker = accepted[shard_id]
                        merged.update(fired)
                        # Shard merging: additive counters only; the driver
                        # owns wall_time (set below from its own clock).
                        total.merge(shard_stats, wall="keep")
                        total.retries += final_attempt
                        reports.append(
                            ShardReport(
                                shard_id,
                                shard_stats.items,
                                shard_stats.rule_evaluations,
                                shard_stats.matches,
                                attempts=final_attempt + 1,
                                retries=final_attempt,
                                status="ok",
                                worker_id=worker,
                                wall_time=shard_stats.wall_time,
                                prepare_time=shard_stats.prepare_time,
                                match_time=shard_stats.match_time,
                            )
                        )
                    else:
                        item_ids = shard_item_ids[shard_id]
                        skipped_shards.append(shard_id)
                        skipped_item_ids.extend(item_ids)
                        total.retries += max(0, policy.max_attempts - 1)
                        total.skipped_items += len(item_ids)
                        total.skipped_item_ids.extend(item_ids)
                        reports.append(
                            ShardReport(
                                shard_id,
                                len(item_ids),
                                0,
                                0,
                                attempts=policy.max_attempts,
                                retries=policy.max_attempts - 1,
                                status="skipped",
                                worker_id=-1,
                            )
                        )
            total.prepare_time += driver_prepare_time
            total.wall_time = clock() - started
            run_span.set_attribute("rule_evaluations", total.rule_evaluations)
            run_span.set_attribute("matches", total.matches)
            run_span.set_attribute("retries", total.retries)
            run_span.set_attribute("skipped_shards", len(skipped_shards))
        obs.observe_execution(total, executor="partitioned")
        obs.observe_fired(merged)
        if obs.enabled:
            for event in events:
                obs.metrics.counter(
                    "exec_fault_events_total", kind=event.kind, action=event.action
                ).inc()
            obs.metrics.counter("exec_shards_skipped_total").inc(len(skipped_shards))
        return PartitionedRunResult(
            fired=merged,
            stats=total,
            reports=reports,
            skipped_shards=skipped_shards,
            skipped_item_ids=skipped_item_ids,
            fault_events=events,
            driver_prepare_time=driver_prepare_time,
        )

    def run(
        self, items: Sequence[ItemLike]
    ) -> Tuple[Dict[str, List[str]], ExecutionStats, List[ShardReport]]:
        """Back-compatible entry point; see :meth:`run_detailed` for faults."""
        result = self.run_detailed(items)
        return result.fired, result.stats, result.reports


def critical_path(reports: Sequence[ShardReport]) -> int:
    """Max per-shard rule evaluations: the simulated parallel makespan."""
    return max((report.rule_evaluations for report in reports), default=0)
