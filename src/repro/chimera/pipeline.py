"""The assembled Chimera pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.generator import LabeledTitle
from repro.catalog.types import ProductItem
from repro.chimera.classifiers import (
    AttributeValueClassifier,
    LearningClassifierStage,
    RuleBasedClassifier,
)
from repro.chimera.filter import FinalFilter
from repro.chimera.gatekeeper import GateAction, GateKeeper
from repro.chimera.monitoring import (
    DeltaExecutionMonitor,
    GuardedStage,
    StageHealthMonitor,
)
from repro.chimera.voting import VotingMaster
from repro.core.prepared import ItemLike, prepare
from repro.core.rule import Rule
from repro.core.ruleset import RuleSet
from repro.execution.incremental import IncrementalExecutor
from repro.learning.ensemble import VotingEnsemble
from repro.observability import Observability, ensure_observability
from repro.observability.provenance import ProvenanceRecord, StageTrace
from repro.observability.quality import QualityTelemetry
from repro.learning.knn import KNearestNeighbors
from repro.learning.naive_bayes import MultinomialNaiveBayes
from repro.learning.svm import LinearSvmClassifier


@dataclass(frozen=True)
class ItemResult:
    """Outcome for one item: a label, or None when the system declines."""

    item: ProductItem
    label: Optional[str]
    source: str = ""

    @property
    def classified(self) -> bool:
        return self.label is not None


@dataclass
class BatchResult:
    """Outcome for a batch.

    ``declined`` items go to the manual classification team (section 2.2);
    ``rejected`` items were junk the Gate Keeper refused.
    """

    results: List[ItemResult] = field(default_factory=list)
    rejected: List[ProductItem] = field(default_factory=list)

    @property
    def classified_pairs(self) -> List[Tuple[ProductItem, str]]:
        return [(r.item, r.label) for r in self.results if r.classified]

    @property
    def declined(self) -> List[ProductItem]:
        return [r.item for r in self.results if not r.classified]

    @property
    def coverage(self) -> float:
        """Fraction of (non-junk) items the system classified."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.classified) / len(self.results)

    # Ground-truth metrics: for experiment reporting only — the deployed
    # pipeline never sees true_type, but benchmarks need the real numbers.

    def true_precision(self) -> float:
        pairs = self.classified_pairs
        if not pairs:
            return 1.0
        return sum(1 for item, label in pairs if item.true_type == label) / len(pairs)

    def true_recall(self) -> float:
        if not self.results:
            return 0.0
        correct = sum(
            1 for r in self.results if r.classified and r.item.true_type == r.label
        )
        return correct / len(self.results)

    def per_type_metrics(self) -> Dict[str, Tuple[float, float, int]]:
        """type -> (precision, recall, item count) over this batch.

        The per-type view is what the monitoring/incident flow drills into:
        an aggregate precision can look fine while one type burns.
        """
        predicted: Dict[str, int] = {}
        correct: Dict[str, int] = {}
        actual: Dict[str, int] = {}
        for result in self.results:
            actual[result.item.true_type] = actual.get(result.item.true_type, 0) + 1
            if not result.classified:
                continue
            predicted[result.label] = predicted.get(result.label, 0) + 1
            if result.item.true_type == result.label:
                correct[result.label] = correct.get(result.label, 0) + 1
        metrics: Dict[str, Tuple[float, float, int]] = {}
        for type_name in sorted(set(predicted) | set(actual)):
            tp = correct.get(type_name, 0)
            p_count = predicted.get(type_name, 0)
            a_count = actual.get(type_name, 0)
            precision = tp / p_count if p_count else 1.0
            recall = tp / a_count if a_count else 0.0
            metrics[type_name] = (precision, recall, a_count)
        return metrics


class Chimera:
    """The full pipeline: gate → stages → voting → filter.

    Use :meth:`build` for the standard assembly, or construct the pieces
    explicitly for ablations (e.g. a learning-only Chimera for E5).
    """

    def __init__(
        self,
        gatekeeper: GateKeeper,
        rule_stage: RuleBasedClassifier,
        attr_stage: AttributeValueClassifier,
        learning_stage: LearningClassifierStage,
        voting: VotingMaster,
        final_filter: FinalFilter,
        health: Optional[StageHealthMonitor] = None,
        observability: Optional[Observability] = None,
    ):
        self.gatekeeper = gatekeeper
        self.rule_stage = rule_stage
        self.attr_stage = attr_stage
        self.learning_stage = learning_stage
        self.voting = voting
        self.filter = final_filter
        # ``observability`` threads one tracer + metrics registry through
        # the whole pipeline: classify calls emit chimera.* spans (gate →
        # stages → vote → filter) and the health monitor mirrors breaker
        # state as gauges. The default NULL instance records nothing.
        self.observability = ensure_observability(observability)
        # Every stage call is routed through a circuit-breaker guard: a
        # stage that throws repeatedly is routed around (no votes) until
        # its breaker cools down, so one bad component degrades coverage
        # instead of stopping classification (§2.2).
        self.health = health if health is not None else StageHealthMonitor()
        if self.observability.enabled and self.health.metrics is None:
            self.health.metrics = self.observability.metrics
        tracer = (
            self.observability.tracer if self.observability.enabled else None
        )
        self._guarded_stages = [
            GuardedStage(stage, self.health, tracer=tracer)
            for stage in (self.rule_stage, self.attr_stage, self.learning_stage)
        ]
        self.training_data: List[LabeledTitle] = []
        self._pending_training = 0
        # stage name -> incremental fired-map tracker (see track_fired_map).
        self.fired_trackers: Dict[str, IncrementalExecutor] = {}
        # Rule-quality telemetry (see enable_quality_telemetry): when set,
        # every classify_item records its full attribution chain.
        self.quality: Optional[QualityTelemetry] = None
        self._batch_counter = 0

    @classmethod
    def build(
        cls,
        confidence_threshold: float = 0.4,
        ensemble: Optional[VotingEnsemble] = None,
        seed: int = 0,
        observability: Optional[Observability] = None,
    ) -> "Chimera":
        """Standard assembly with the NB + kNN + SVM ensemble of section 3.1."""
        if ensemble is None:
            ensemble = VotingEnsemble(
                [
                    MultinomialNaiveBayes(),
                    KNearestNeighbors(),
                    LinearSvmClassifier(seed=seed),
                ]
            )
        return cls(
            gatekeeper=GateKeeper(),
            rule_stage=RuleBasedClassifier(RuleSet(name="rule-based")),
            attr_stage=AttributeValueClassifier(RuleSet(name="attr-value")),
            learning_stage=LearningClassifierStage(ensemble),
            voting=VotingMaster(confidence_threshold=confidence_threshold),
            final_filter=FinalFilter(RuleSet(name="filter")),
            observability=observability,
        )

    # -- rule management hooks --------------------------------------------------

    def add_whitelist_rules(self, rules: Sequence[Rule]) -> None:
        self.rule_stage.rules.extend(rules)

    def add_blacklist_rules(self, rules: Sequence[Rule], to_filter: bool = True) -> None:
        """Blacklists default to the Filter (the analysts' usual target)."""
        target = self.filter.rules if to_filter else self.rule_stage.rules
        target.extend(rules)

    def add_attribute_rules(self, rules: Sequence[Rule]) -> None:
        self.attr_stage.rules.extend(rules)

    def rule_count(self) -> Dict[str, int]:
        return {
            "gate": len(self.gatekeeper.bypass_rules),
            "rule-based": len(self.rule_stage.rules),
            "attr-value": len(self.attr_stage.rules),
            "filter": len(self.filter.rules),
        }

    # -- incremental fired-map maintenance ----------------------------------------

    def _stage_ruleset(self, stage: str) -> RuleSet:
        rulesets = {
            "rule-based": self.rule_stage.rules,
            "attr-value": self.attr_stage.rules,
            "filter": self.filter.rules,
        }
        if stage not in rulesets:
            raise ValueError(f"unknown rule stage {stage!r}; one of {sorted(rulesets)}")
        return rulesets[stage]

    def track_fired_map(
        self,
        stage: str = "rule-based",
        items: Sequence[ItemLike] = (),
        batch_stream=None,
    ) -> IncrementalExecutor:
        """Maintain a stage's ``rules × items`` fired map incrementally.

        The long-running deployment's view of "which rules fire where" —
        the input to coverage evaluation, scale-down blast-radius checks,
        and rule repair — is kept as a materialized
        :class:`~repro.execution.incremental.MatchStore` instead of being
        recomputed from scratch. The returned executor is subscribed to
        the stage's :class:`~repro.core.ruleset.RuleSet`, so every
        analyst add/replace/retire and every ``disable_type`` from the
        §2.2 scale-down playbook arrives as a delta; a
        :class:`~repro.catalog.batches.BatchStream`, when given, drives
        item arrivals the same way. Per-delta accounting lands on the
        tracker's :class:`DeltaExecutionMonitor` (see
        :meth:`fired_delta_report`).

        Calling again for an already-tracked stage detaches the old
        tracker first.
        """
        previous = self.fired_trackers.get(stage)
        if previous is not None:
            previous.detach()
        tracker = IncrementalExecutor.for_ruleset(
            self._stage_ruleset(stage),
            items=items,
            monitor=DeltaExecutionMonitor(),
            observability=(
                self.observability if self.observability.enabled else None
            ),
        )
        if batch_stream is not None:
            tracker.follow_batches(batch_stream)
        self.fired_trackers[stage] = tracker
        return tracker

    def fired_delta_report(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Per-stage delta ledgers from the attached fired-map trackers."""
        return {
            stage: tracker.monitor.report()
            for stage, tracker in self.fired_trackers.items()
            if tracker.monitor is not None
        }

    # -- health -------------------------------------------------------------------

    def degraded_stages(self) -> List[str]:
        """Stages currently routed around by their circuit breaker."""
        return self.health.degraded_stages()

    def health_report(self) -> Dict[str, Dict[str, object]]:
        return self.health.report()

    # -- training management -----------------------------------------------------

    def add_training(self, labeled: Sequence[LabeledTitle]) -> None:
        self.training_data.extend(labeled)
        self._pending_training += len(labeled)

    def retrain(self, min_examples_per_type: int = 1) -> bool:
        """Retrain the ensemble on the accumulated training data.

        Types with fewer than ``min_examples_per_type`` examples are dropped
        from training (unreliable predictions hurt precision; those types
        stay rule-handled, matching section 3.3's 30% figure).
        Returns False when there is nothing to train on.
        """
        counts: Dict[str, int] = {}
        for example in self.training_data:
            counts[example.label] = counts.get(example.label, 0) + 1
        usable = [
            example
            for example in self.training_data
            if counts[example.label] >= min_examples_per_type
        ]
        if not usable:
            return False
        titles = [example.title for example in usable]
        labels = [example.label for example in usable]
        self.learning_stage.fit(titles, labels)
        self._pending_training = 0
        return True

    @property
    def pending_training(self) -> int:
        return self._pending_training

    # -- rule-quality telemetry ---------------------------------------------------

    def enable_quality_telemetry(
        self, quality: Optional[QualityTelemetry] = None
    ) -> QualityTelemetry:
        """Attach rule-quality telemetry (label provenance + health windows).

        Turns on provenance recording in every stage and the filter:
        from here on each classified item's full attribution chain lands
        on ``quality.provenance`` and feeds ``quality.health``'s per-rule
        windows; ``classify_batch`` closes a health batch per call.
        Recording reads only values the pipeline computed anyway, so
        labels stay byte-identical (tests/test_quality_properties.py).
        """
        if quality is None:
            metrics = (
                self.observability.metrics if self.observability.enabled else None
            )
            from repro.observability.quality import RuleHealthTracker

            quality = QualityTelemetry(health=RuleHealthTracker(metrics=metrics))
        self.quality = quality
        for stage in (self.rule_stage, self.attr_stage, self.learning_stage):
            stage.record_provenance = True
        self.filter.record_provenance = True
        return quality

    def disable_quality_telemetry(self) -> None:
        """Detach telemetry and stop provenance recording."""
        self.quality = None
        for stage in (self.rule_stage, self.attr_stage, self.learning_stage):
            stage.record_provenance = False
        self.filter.record_provenance = False

    def why(self, item_id: str):
        """Provenance records for one item (requires telemetry enabled)."""
        if self.quality is None:
            raise RuntimeError("call enable_quality_telemetry() first")
        return self.quality.why(item_id)

    def blame(self, rule_id: str):
        """Provenance records in which one rule fired (requires telemetry)."""
        if self.quality is None:
            raise RuntimeError("call enable_quality_telemetry() first")
        return self.quality.blame(rule_id)

    def _record_provenance(
        self,
        item_id: str,
        batch_id: str,
        label: Optional[str],
        source: str,
        decision,
        stages: Tuple[StageTrace, ...] = (),
        ranked=(),
        final=None,
    ) -> None:
        # Hot path: positional construction, seq stamped inside record()
        # — every call and keyword saved here is per classified item
        # (benchmarks/bench_quality_overhead.py).
        quality = self.quality
        filt = self.filter
        filter_trace = filt._last_trace
        if filter_trace is not None:
            filt._last_trace = None
            filter_fired = filter_trace.fired
            filter_vetoed = filter_trace.vetoed
        else:
            filter_fired = filter_vetoed = ()
        record = ProvenanceRecord(
            0,  # seq: assigned by ProvenanceLog.record
            item_id,
            batch_id,
            label,
            source,
            decision.action.value,
            decision.reason,
            stages,
            tuple([(p.label, p.weight) for p in ranked]) if ranked else (),
            (final.label, final.weight) if final is not None else None,
            filter_fired,
            filter_vetoed,
        )
        quality.provenance.record(record)
        quality.health.observe_record(record)

    def _collect_stage_traces(self) -> Tuple[StageTrace, ...]:
        # Reads the stages' trace stashes directly (take-and-clear, same
        # contract as ClassifierStage.take_trace) — three method calls per
        # item add up against the telemetry overhead budget.
        traces = []
        stage = self.rule_stage
        trace = stage._last_trace
        if trace is not None:
            stage._last_trace = None
            traces.append(trace)
        stage = self.attr_stage
        trace = stage._last_trace
        if trace is not None:
            stage._last_trace = None
            traces.append(trace)
        stage = self.learning_stage
        trace = stage._last_trace
        if trace is not None:
            stage._last_trace = None
            traces.append(trace)
        return tuple(traces)

    def _clear_traces(self) -> None:
        self.rule_stage._last_trace = None
        self.attr_stage._last_trace = None
        self.learning_stage._last_trace = None
        self.filter._last_trace = None

    # -- classification -----------------------------------------------------------

    def classify_item(
        self, item: ItemLike, batch_id: str = ""
    ) -> Optional[ItemResult]:
        """Classify one item; None means the gate rejected it as junk.

        The item is prepared (tokenized) once here; every stage, rule set,
        and filter below shares the same
        :class:`~repro.core.prepared.PreparedItem` view. With quality
        telemetry enabled, the item's attribution chain (gate decision,
        per-stage fired rules and votes, voting-master ranking, filter
        outcome) is recorded under ``batch_id``.
        """
        obs = self.observability
        quality = self.quality
        with obs.span("chimera.classify_item") as item_span:
            with obs.span("chimera.prepare"):
                prepared = prepare(item)
            raw_item = prepared.item
            with obs.span("chimera.gate"):
                decision = self.gatekeeper.process(prepared)
            if decision.action is GateAction.REJECT:
                item_span.set_attribute("source", "gate-reject")
                if quality is not None:
                    self._record_provenance(
                        prepared.item_id, batch_id, None, "gate-reject", decision
                    )
                return None
            if decision.action is GateAction.CLASSIFY:
                item_span.set_attribute("source", "gate")
                if quality is not None:
                    self._record_provenance(
                        prepared.item_id, batch_id, decision.label, "gate", decision
                    )
                return ItemResult(raw_item, decision.label, source="gate")
            if quality is not None:
                # Drop any stash left by a bypassed/rejected item so a
                # routed-around stage can't surface a stale trace.
                self._clear_traces()
            with obs.span("chimera.vote"):
                final, ranked = self.voting.combine(prepared, self._guarded_stages)
            stage_traces = (
                self._collect_stage_traces() if quality is not None else ()
            )
            if final is None and not ranked:
                item_span.set_attribute("source", "no-votes")
                if quality is not None:
                    self._record_provenance(
                        prepared.item_id, batch_id, None, "no-votes",
                        decision, stage_traces,
                    )
                return ItemResult(raw_item, None, source="no-votes")
            with obs.span("chimera.filter"):
                chosen = self.filter.select(
                    prepared, ranked, self.voting.confidence_threshold
                )
            if chosen is None:
                item_span.set_attribute("source", "low-confidence-or-filtered")
                if quality is not None:
                    self._record_provenance(
                        prepared.item_id, batch_id, None,
                        "low-confidence-or-filtered", decision,
                        stage_traces, ranked, final,
                    )
                return ItemResult(raw_item, None, source="low-confidence-or-filtered")
            item_span.set_attribute("source", "pipeline")
            if quality is not None:
                self._record_provenance(
                    prepared.item_id, batch_id, chosen.label, "pipeline",
                    decision, stage_traces, ranked, final,
                )
            return ItemResult(raw_item, chosen.label, source="pipeline")

    def explain_item(self, item: ProductItem) -> str:
        """A human-readable account of how the pipeline treated ``item``.

        Section 3.2's liability requirement: predictions for sensitive
        types must be explainable, and rule provenance is what makes the
        explanation crisp. Learning votes are reported as such — which is
        exactly why business-critical types are forced through rules.
        """
        from repro.core.explain import explain_verdict

        prepared = prepare(item)
        result = self.classify_item(prepared)
        lines: List[str] = []
        decision = self.gatekeeper.process(prepared)
        lines.append(f"gate: {decision.action.value}"
                     + (f" ({decision.reason})" if decision.reason else ""))
        for stage in (self.rule_stage, self.attr_stage):
            explanation = explain_verdict(stage.rules, item)
            if explanation.steps:
                lines.append(f"stage {stage.name}:")
                for step in explanation.steps:
                    lines.append(f"  [{step.kind}] {step.statement} -> {step.effect}")
        learning_votes = self.learning_stage.predict(prepared)
        if learning_votes:
            rendered = ", ".join(f"{p.label} ({p.weight:.2f})" for p in learning_votes)
            lines.append(f"stage learning: {rendered}")
        filter_vetoes = self.filter.vetoed_types(prepared)
        if filter_vetoes:
            lines.append(f"filter vetoes: {sorted(filter_vetoes)}")
        label = result.label if result is not None else None
        lines.append(f"final: {label if label else 'unclassified'}")
        return "\n".join(lines)

    def classify_batch(
        self, items: Sequence[ProductItem], batch_id: Optional[str] = None
    ) -> BatchResult:
        """Classify a batch: one learning call, then each item in order.

        The learning stage predicts every title of the batch with a single
        ensemble call up front (:meth:`LearningClassifierStage.predict_titles`).
        The per-item loop is :meth:`classify_item` itself, so stage guards,
        health counters and provenance see exactly what a loop of
        ``classify_item`` calls would (tests/test_chimera_batch.py).
        """
        obs = self.observability
        result = BatchResult()
        if batch_id is None:
            batch_id = f"batch-{self._batch_counter:04d}"
        self._batch_counter += 1
        with obs.span("chimera.classify_batch", items=len(items)) as batch_span:
            prepared_items = [prepare(item) for item in items]
            # Rows for items the gate settles on its own go unread.
            with obs.span("chimera.learn_batch"):
                self.learning_stage.predict_titles([p.title for p in prepared_items])
            try:
                for item, prepared in zip(items, prepared_items):
                    item_result = self.classify_item(prepared, batch_id=batch_id)
                    if item_result is None:
                        result.rejected.append(item)
                    else:
                        result.results.append(item_result)
            finally:
                self.learning_stage.clear_titles()
            batch_span.set_attribute(
                "classified", sum(1 for r in result.results if r.classified)
            )
            batch_span.set_attribute("rejected", len(result.rejected))
        if self.quality is not None:
            self.quality.finish_batch(batch_id, len(items))
        if obs.enabled:
            classified = sum(1 for r in result.results if r.classified)
            obs.metrics.counter("chimera_items_total").inc(len(items))
            obs.metrics.counter("chimera_classified_total").inc(classified)
            obs.metrics.counter("chimera_declined_total").inc(
                len(result.results) - classified
            )
            obs.metrics.counter("chimera_rejected_total").inc(len(result.rejected))
            for result_source in ("gate", "pipeline"):
                count = sum(1 for r in result.results if r.source == result_source)
                if count:
                    obs.metrics.counter(
                        "chimera_labeled_by_total", source=result_source
                    ).inc(count)
        return result
