"""Incremental execution: re-evaluate only the delta, not the world.

Section 4 poses rule maintenance under *churn* as an open problem: "when
rule R is modified ... re-run only what changed". Chimera never stops —
analysts add, refine, disable, and retire rules daily while vendor batches
keep arriving — yet a from-scratch executor recomputes the full
``rules × items`` fired map on every change. This module is the
materialized-view answer (the classic incremental view-maintenance trick;
see PAPERS.md on incremental view maintenance and DeepDive's incremental
KB construction):

* :class:`MatchStore` — the materialized fired map, a set of
  ``(rule_id, item_id)`` match pairs mirrored both ways, with per-rule and
  per-item generation counters recording how often each side was
  (re)computed and a global generation for O(1) staleness checks;
* :class:`IncrementalExecutor` — wraps the store with a delta API
  (``add_rules`` / ``remove_rules`` / ``update_rule`` / ``add_items`` /
  ``remove_items`` / ``refresh``). Rule-side deltas consult the
  :class:`~repro.execution.data_index.DataIndex` for the candidate *rows*
  of just the changed rules, so a single-rule edit costs O(candidate items
  of that rule); item-side deltas consult the
  :class:`~repro.execution.rule_index.RuleIndex` for the candidate *rules*
  of just the new items, so a batch arrival costs O(batch), not O(corpus).

Soundness rests on the two index anchor contracts (any matching item
contains an anchor token of the rule): every true match pair is inside the
candidate set the delta re-evaluates, so the store always equals the truth
table and :meth:`IncrementalExecutor.fired_map` is byte-identical to a
from-scratch :class:`~repro.execution.executor.IndexedExecutor` run over
the current rules and items.

The store records matches for *all* tracked rules, enabled or not: a match
is a property of the rule's condition and the item, while ``enabled`` is a
view filter applied at snapshot time. Disabling a type (§2.2 scale-down)
and restoring it are therefore zero-evaluation deltas.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import DuplicateRuleError, UnknownRuleError
from repro.core.prepared import (
    ItemLike,
    PreparedCache,
    PreparedItem,
    prepare_cached,
)
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet
from repro.execution.data_index import DataIndex
from repro.execution.executor import ExecutionStats
from repro.execution.rule_index import RuleIndex
from repro.observability import Observability, ensure_observability


class MatchStore:
    """Materialized fired map keyed by ``(rule_id, item_id)``.

    Pairs are mirrored in both directions (rule -> items, item -> rules) so
    either side of a delta can find exactly the entries it invalidates.
    ``generation`` bumps on every mutation; the per-rule / per-item
    counters record how many times that row/column has been (re)computed —
    the audit trail tests use to prove a delta did not touch the rest of
    the store.
    """

    def __init__(self) -> None:
        self._by_item: Dict[str, Set[str]] = {}
        self._by_rule: Dict[str, Set[str]] = {}
        self._rule_generation: Dict[str, int] = {}
        self._item_generation: Dict[str, int] = {}
        self.generation = 0

    def __len__(self) -> int:
        return sum(len(rules) for rules in self._by_item.values())

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        rule_id, item_id = pair
        return item_id in self._by_rule.get(rule_id, ())

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """All stored ``(rule_id, item_id)`` pairs (unordered)."""
        for rule_id, item_ids in self._by_rule.items():
            for item_id in item_ids:
                yield (rule_id, item_id)

    def items_of_rule(self, rule_id: str) -> FrozenSet[str]:
        return frozenset(self._by_rule.get(rule_id, ()))

    def rules_of_item(self, item_id: str) -> FrozenSet[str]:
        return frozenset(self._by_item.get(item_id, ()))

    def rule_generation(self, rule_id: str) -> int:
        """How many times this rule's column has been (re)computed."""
        return self._rule_generation.get(rule_id, 0)

    def item_generation(self, item_id: str) -> int:
        """How many times this item's row has been (re)computed."""
        return self._item_generation.get(item_id, 0)

    # -- delta writes -------------------------------------------------------------

    def set_rule_matches(self, rule_id: str, item_ids: Iterable[str]) -> int:
        """Replace a rule's column wholesale; returns pairs invalidated."""
        new = set(item_ids)
        old = self._by_rule.get(rule_id, set())
        invalidated = len(old - new)
        for item_id in old - new:
            self._discard_pair(rule_id, item_id)
        for item_id in new - old:
            self._record_pair(rule_id, item_id)
        self._rule_generation[rule_id] = self._rule_generation.get(rule_id, 0) + 1
        self.generation += 1
        return invalidated

    def set_item_matches(self, item_id: str, rule_ids: Iterable[str]) -> int:
        """Replace an item's row wholesale; returns pairs invalidated."""
        new = set(rule_ids)
        old = self._by_item.get(item_id, set())
        invalidated = len(old - new)
        for rule_id in old - new:
            self._discard_pair(rule_id, item_id)
        for rule_id in new - old:
            self._record_pair(rule_id, item_id)
        self._item_generation[item_id] = self._item_generation.get(item_id, 0) + 1
        self.generation += 1
        return invalidated

    def discard_rule(self, rule_id: str) -> int:
        """Drop every pair of a retired rule; returns pairs invalidated."""
        item_ids = self._by_rule.pop(rule_id, set())
        for item_id in item_ids:
            row = self._by_item.get(item_id)
            if row is not None:
                row.discard(rule_id)
                if not row:
                    del self._by_item[item_id]
        self._rule_generation.pop(rule_id, None)
        self.generation += 1
        return len(item_ids)

    def discard_item(self, item_id: str) -> int:
        """Drop every pair of a removed item; returns pairs invalidated."""
        rule_ids = self._by_item.pop(item_id, set())
        for rule_id in rule_ids:
            column = self._by_rule.get(rule_id)
            if column is not None:
                column.discard(item_id)
                if not column:
                    del self._by_rule[rule_id]
        self._item_generation.pop(item_id, None)
        self.generation += 1
        return len(rule_ids)

    def clear(self) -> int:
        """Drop everything (full refresh); returns pairs invalidated."""
        invalidated = len(self)
        self._by_item.clear()
        self._by_rule.clear()
        self.generation += 1
        return invalidated

    def _record_pair(self, rule_id: str, item_id: str) -> None:
        self._by_rule.setdefault(rule_id, set()).add(item_id)
        self._by_item.setdefault(item_id, set()).add(rule_id)

    def _discard_pair(self, rule_id: str, item_id: str) -> None:
        column = self._by_rule.get(rule_id)
        if column is not None:
            column.discard(item_id)
            if not column:
                del self._by_rule[rule_id]
        row = self._by_item.get(item_id)
        if row is not None:
            row.discard(rule_id)
            if not row:
                del self._by_item[item_id]

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the full store (pairs + generations)."""
        return {
            "by_rule": {
                rule_id: sorted(item_ids)
                for rule_id, item_ids in sorted(self._by_rule.items())
            },
            "rule_generation": dict(sorted(self._rule_generation.items())),
            "item_generation": dict(sorted(self._item_generation.items())),
            "generation": self.generation,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot verbatim.

        Generations are restored as-is (no bumps): a resumed store is
        indistinguishable from the one that was checkpointed.
        """
        self._by_item.clear()
        self._by_rule.clear()
        for rule_id, item_ids in state["by_rule"].items():
            for item_id in item_ids:
                self._record_pair(rule_id, item_id)
        self._rule_generation = dict(state["rule_generation"])
        self._item_generation = dict(state["item_generation"])
        self.generation = state["generation"]

    # -- reads --------------------------------------------------------------------

    def fired_map(self, enabled_rule_ids: FrozenSet[str]) -> Dict[str, List[str]]:
        """item_id -> sorted fired (enabled) rule ids, items sorted by id.

        Exactly the executor output shape: items with no enabled match are
        absent, rule-id lists are sorted — byte-identical (canonical JSON)
        to an :class:`~repro.execution.executor.IndexedExecutor` run.
        """
        result: Dict[str, List[str]] = {}
        for item_id in sorted(self._by_item):
            hits = sorted(self._by_item[item_id] & enabled_rule_ids)
            if hits:
                result[item_id] = hits
        return result


class IncrementalExecutor:
    """Delta-maintained executor: same fired map, a fraction of the work.

    Holds the live corpus in a mutable :class:`DataIndex`, the live rule
    base in a :class:`RuleIndex`, and the materialized matches in a
    :class:`MatchStore`; the delta API keeps all three consistent.

    ``stats`` accumulates the lifetime ledger (every delta op also returns
    its own :class:`ExecutionStats`): ``delta_rules`` / ``delta_items``
    count what the delta path re-evaluated, ``invalidations`` counts
    stored pairs dropped as stale, and ``cache_hits`` / ``cache_misses``
    count prepared-item reuse plus fired-map snapshots served without a
    rebuild. An optional ``monitor`` (anything with
    ``record(op, stats)``, e.g.
    :class:`~repro.chimera.monitoring.DeltaExecutionMonitor`) observes
    each op.

    Evaluation is fail-fast: a raising rule/record propagates (wrap inputs
    upstream; the degraded modes live on the batch executors).

    Both delta sides run on the interpreted indexes: the compiled engine
    was measured as the daemon's tracker and gained no end-to-end
    throughput while making rule registration dearer (DESIGN.md §11).
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        items: Iterable[ItemLike] = (),
        token_frequency: Optional[Dict[str, int]] = None,
        prepared_cache: Optional[PreparedCache] = None,
        monitor: Optional[object] = None,
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.prepared_cache: PreparedCache = (
            prepared_cache if prepared_cache is not None else {}
        )
        self.observability = ensure_observability(observability)
        self._clock = clock if clock is not None else time.perf_counter
        self._rules: Dict[str, Rule] = {}
        self._data_index = DataIndex(cache=self.prepared_cache)
        self._rule_index = RuleIndex(
            token_frequency=token_frequency, prepared_cache=self.prepared_cache
        )
        self.store = MatchStore()
        self.stats = ExecutionStats()
        self.monitor = monitor
        self._snapshot: Optional[Dict[str, List[str]]] = None
        self._snapshot_generation = -1
        self._snapshot_enabled: FrozenSet[str] = frozenset()
        self._unsubscribes: List[Callable[[], None]] = []
        if rules:
            self.add_rules(rules)
        if items:
            self.add_items(items)

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def for_ruleset(
        cls,
        ruleset: RuleSet,
        items: Iterable[ItemLike] = (),
        **kwargs,
    ) -> "IncrementalExecutor":
        """Build over a :class:`RuleSet` and subscribe to its churn.

        Every subsequent ``add`` / ``remove`` / ``replace`` on the rule set
        — including :meth:`~repro.core.ruleset.RuleSet.disable_type` from
        the §2.2 scale-down playbook and the repair rules analysts add —
        flows into this executor as a delta automatically.
        """
        executor = cls(rules=list(ruleset), items=items, **kwargs)
        executor.attach_ruleset(ruleset)
        return executor

    def attach_ruleset(self, ruleset: RuleSet) -> Callable[[], None]:
        """Subscribe to ``ruleset`` mutations; returns the unsubscribe."""

        def on_event(event: str, rule: Rule) -> None:
            if event == "added":
                self.add_rules([rule])
            elif event == "removed":
                self.remove_rules([rule.rule_id])
            elif event == "replaced":
                self.update_rule(rule)
            elif event in ("enabled", "disabled"):
                # No recompute: stored matches are condition-truth; the
                # fired-map snapshot filter sees the flip. Rule sets own
                # their rule copies, so mirror the flag onto our tracked
                # object when the executor was built from different ones.
                tracked = self._rules.get(rule.rule_id)
                if tracked is not None and tracked is not rule:
                    tracked.enabled = rule.enabled

        unsubscribe = ruleset.subscribe(on_event)
        self._unsubscribes.append(unsubscribe)
        return unsubscribe

    def follow_batches(self, stream) -> Callable[[], None]:
        """Subscribe to a :class:`~repro.catalog.batches.BatchStream` so
        every arriving vendor batch lands as an ``add_items`` delta."""
        return stream.subscribe(lambda batch: self.add_items(batch.items))

    def detach(self) -> None:
        """Drop every subscription taken out by this executor."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    @property
    def item_count(self) -> int:
        return len(self._data_index)

    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    # -- delta API ----------------------------------------------------------------

    def add_items(self, items: Iterable[ItemLike]) -> ExecutionStats:
        """Fold a batch arrival in: O(batch × candidate rules), not O(corpus).

        An item_id already tracked is treated as a re-listing: its old row
        is invalidated and the item is re-evaluated from scratch.
        """
        op = ExecutionStats()
        items = list(items)
        with self.observability.span("exec.incremental.add_items", items=len(items)):
            started = self._clock()
            for item in items:
                item_id = getattr(item, "item_id", None)
                if item_id in self._data_index:
                    # Re-listing: the old row's stored matches must not
                    # survive. prepare_cached itself refuses to serve a stale
                    # cache entry wrapping the old record, so no explicit
                    # eviction is needed.
                    op.invalidations += self.store.discard_item(item_id)
                cached = self.prepared_cache.get(item_id)
                record = item.item if isinstance(item, PreparedItem) else item
                hit = isinstance(item, PreparedItem) or (
                    cached is not None
                    and (cached.item is record or cached.item == record)
                )
                op.cache_hits += 1 if hit else 0
                op.cache_misses += 0 if hit else 1
                prepare_started = self._clock()
                prepared = prepare_cached(item, self.prepared_cache).warm(anchors=True)
                op.prepare_time += self._clock() - prepare_started
                self._data_index.add(prepared.item)
                hits: List[str] = []
                for rule in self._rule_index.candidates(prepared):
                    op.rule_evaluations += 1
                    if rule.matches_prepared(prepared):
                        hits.append(rule.rule_id)
                op.invalidations += self.store.set_item_matches(prepared.item_id, hits)
                op.matches += len(hits)
                op.items += 1
                op.delta_items += 1
            return self._finish("add_items", op, started)

    def remove_items(self, item_ids: Iterable[str]) -> ExecutionStats:
        """Drop departed items; cost is O(their stored matches)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.remove_items"):
            started = self._clock()
            for item_id in item_ids:
                if self._data_index.remove(item_id):
                    op.invalidations += self.store.discard_item(item_id)
                    self.prepared_cache.pop(item_id, None)
                    op.delta_items += 1
            return self._finish("remove_items", op, started)

    def add_rules(self, rules: Iterable[Rule]) -> ExecutionStats:
        """Fold new rules in: O(candidate rows of each rule), not O(catalog)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.add_rules"):
            started = self._clock()
            for rule in rules:
                if rule.rule_id in self._rules:
                    raise DuplicateRuleError(
                        f"rule {rule.rule_id!r} already tracked; use update_rule"
                    )
                self._rules[rule.rule_id] = rule
                self._rule_index.add(rule)
                self._evaluate_rule(rule, op)
                op.delta_rules += 1
            return self._finish("add_rules", op, started)

    def remove_rules(self, rule_ids: Iterable[str]) -> ExecutionStats:
        """Retire rules; cost is O(their postings + stored matches)."""
        op = ExecutionStats()
        with self.observability.span("exec.incremental.remove_rules"):
            started = self._clock()
            for rule_id in rule_ids:
                if rule_id not in self._rules:
                    raise UnknownRuleError(rule_id)
                del self._rules[rule_id]
                self._rule_index.remove(rule_id)
                op.invalidations += self.store.discard_rule(rule_id)
                op.delta_rules += 1
            return self._finish("remove_rules", op, started)

    def update_rule(self, rule: Rule) -> ExecutionStats:
        """An analyst edited ``rule`` (same rule_id, new condition).

        The rule's column is recomputed over the *new* condition's
        candidate rows; stale pairs the new condition no longer proves are
        invalidated. Everything else in the store is untouched.
        """
        op = ExecutionStats()
        with self.observability.span(
            "exec.incremental.update_rule", rule_id=rule.rule_id
        ):
            started = self._clock()
            if rule.rule_id not in self._rules:
                raise UnknownRuleError(rule.rule_id)
            self._rules[rule.rule_id] = rule
            self._rule_index.remove(rule.rule_id)
            self._rule_index.add(rule)
            self._evaluate_rule(rule, op)
            op.delta_rules += 1
            return self._finish("update_rule", op, started)

    def refresh(self) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Rebuild the store from scratch (escape hatch / initial load).

        Returns ``(fired map, op stats)``; the op's ``invalidations`` is
        the size of the store it threw away.
        """
        op = ExecutionStats()
        with self.observability.span("exec.incremental.refresh"):
            started = self._clock()
            op.invalidations += self.store.clear()
            for _row, prepared in self._data_index.live_rows():
                hits: List[str] = []
                for rule in self._rule_index.candidates(prepared):
                    op.rule_evaluations += 1
                    if rule.matches_prepared(prepared):
                        hits.append(rule.rule_id)
                self.store.set_item_matches(prepared.item_id, hits)
                op.matches += len(hits)
                op.items += 1
                op.delta_items += 1
            op.delta_rules += len(self._rules)
            self._finish("refresh", op, started)
        return self.fired_map(), op

    # -- checkpointing ------------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """JSON-safe operational state for a durable-service checkpoint.

        Covers the materialized matches and generation counters. Rules and
        items are *not* embedded: the service layer rebuilds rules
        deterministically and journals raw item records separately (see
        ``repro.service.checkpoint``), then calls :meth:`restore_items` +
        :meth:`restore_state`.
        """
        return {"store": self.store.state_dict()}

    def restore_items(self, items: Iterable[ItemLike]) -> int:
        """Re-admit previously-evaluated items without re-evaluating them.

        Prepares and indexes each item (so future rule-side deltas see the
        full corpus) but performs no rule matching and no store writes —
        the matches arrive verbatim via :meth:`restore_state`.
        """
        count = 0
        for item in items:
            prepared = prepare_cached(item, self.prepared_cache).warm(anchors=True)
            self._data_index.add(prepared.item)
            count += 1
        return count

    def restore_state(self, state: Dict[str, object]) -> None:
        """Load an :meth:`export_state` snapshot and re-prime the memo.

        The fired-map memo is rebuilt directly from the restored store
        (bypassing the observability hook): the checkpoint was taken at a
        batch boundary where the snapshot had already been materialized
        and observed, so re-observing here would double-feed the health
        tracker relative to an uninterrupted run.
        """
        self.store.load_state(state["store"])
        enabled = frozenset(
            rule_id for rule_id, rule in self._rules.items() if rule.enabled
        )
        self._snapshot = self.store.fired_map(enabled)
        self._snapshot_generation = self.store.generation
        self._snapshot_enabled = enabled

    # -- reads --------------------------------------------------------------------

    def fired_map(self) -> Dict[str, List[str]]:
        """The current materialized fired map (enabled rules only).

        Byte-identical (canonical JSON) to
        ``IndexedExecutor(rules).run(items)[0]`` over the executor's
        current rules and items. Snapshots are memoized on
        ``(store generation, enabled-rule set)`` — repeated reads between
        deltas are cache hits. Treat the returned dict as read-only.
        """
        enabled = frozenset(
            rule_id for rule_id, rule in self._rules.items() if rule.enabled
        )
        if (
            self._snapshot is not None
            and self._snapshot_generation == self.store.generation
            and self._snapshot_enabled == enabled
        ):
            self.stats.cache_hits += 1
            return self._snapshot
        self.stats.cache_misses += 1
        self._snapshot = self.store.fired_map(enabled)
        self._snapshot_generation = self.store.generation
        self._snapshot_enabled = enabled
        # Provenance hook: each freshly materialized snapshot is one
        # observation of "which rules fire where" — mirror it into
        # metrics and (when attached) the rule-health windows. Strictly
        # observational; the returned map is untouched.
        if self.observability.enabled or self.observability.quality is not None:
            self.observability.observe_fired(self._snapshot)
        return self._snapshot

    def fired_for_item(self, item_id: str) -> List[str]:
        """Sorted enabled rule ids currently firing on one item."""
        return sorted(
            rule_id
            for rule_id in self.store.rules_of_item(item_id)
            if self._rules[rule_id].enabled
        )

    def fired_for_rule(self, rule_id: str) -> List[str]:
        """Sorted item ids one rule currently fires on (enabled or not)."""
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        return sorted(self.store.items_of_rule(rule_id))

    # -- internals ----------------------------------------------------------------

    def _evaluate_rule(self, rule: Rule, op: ExecutionStats) -> None:
        """Recompute one rule's column over its DataIndex candidate rows."""
        matched: List[str] = []
        for row in self._data_index.candidate_rows(rule):
            prepared = self._data_index.prepared_at(row)
            op.rule_evaluations += 1
            if rule.matches_prepared(prepared):
                matched.append(prepared.item_id)
        op.invalidations += self.store.set_rule_matches(rule.rule_id, matched)
        op.matches += len(matched)

    def _finish(
        self, op_name: str, op: ExecutionStats, started: float
    ) -> ExecutionStats:
        op.wall_time = self._clock() - started
        op.match_time = max(0.0, op.wall_time - op.prepare_time)
        # Serial composition: each delta op ran after the previous one, so
        # the lifetime ledger's wall clock is the sum of op walls.
        self.stats.merge(op, wall="sum")
        if self.monitor is not None:
            self.monitor.record(op_name, op)
        obs = self.observability
        if obs.enabled:
            obs.observe_execution(op, executor="incremental")
            obs.metrics.counter("incremental_ops_total", op=op_name).inc()
        return op
