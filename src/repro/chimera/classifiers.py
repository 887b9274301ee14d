"""Chimera's three classifier stages (section 3.3).

1. a **rule-based classifier**: analyst whitelist/blacklist regex rules;
2. an **attribute/value-based classifier**: attribute-presence rules
   (``attr(isbn) -> books``) plus value rules that *constrain* candidate
   types (brand "apple" → laptop/phone/...);
3. **learning-based classifiers** behind a voting ensemble.

All stages emit weighted :class:`~repro.core.rule.Prediction` lists so the
Voting Master can combine them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Prediction
from repro.core.ruleset import RuleSet, RuleVerdict
from repro.learning.ensemble import VotingEnsemble
from repro.observability.provenance import StageTrace


class ClassifierStage(ABC):
    """A named pipeline stage producing per-item predictions.

    When ``record_provenance`` is on, each ``predict`` call stashes a
    :class:`~repro.observability.provenance.StageTrace` of what fired and
    what was voted, captured from the values the stage computed anyway —
    recording never re-evaluates a rule, which is what keeps labels
    byte-identical with telemetry on or off. The pipeline collects the
    stash with :meth:`take_trace` (take-and-clear). A stage with nothing
    to report — routed around by its breaker, untrained, or simply no
    rule fired and no vote cast — stashes nothing, so empty traces never
    hit the per-item recording budget.
    """

    def __init__(self, name: str):
        self.name = name
        self.enabled = True
        self.record_provenance = False
        self._last_trace: Optional[StageTrace] = None

    @abstractmethod
    def predict(self, item: ItemLike) -> List[Prediction]:
        """Weighted type votes for one item (empty when nothing fires)."""

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        """Allowed-type restriction for ``item``, or None for unconstrained."""
        return None

    def take_trace(self) -> Optional[StageTrace]:
        """The last predict's provenance trace, cleared on read."""
        trace, self._last_trace = self._last_trace, None
        return trace


class RuleBasedClassifier(ClassifierStage):
    """Stage 1: whitelist/blacklist regex rules written by analysts."""

    def __init__(self, rules: Optional[RuleSet] = None, name: str = "rule-based"):
        super().__init__(name)
        self.rules = rules if rules is not None else RuleSet(name=name)

    def predict(self, item: ItemLike) -> List[Prediction]:
        verdict = self.rules.apply(item)
        predictions = [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in verdict.predictions
        ]
        if self.record_provenance and (
            verdict.fired or verdict.vetoed or verdict.constrained_to is not None
        ):
            self._last_trace = StageTrace(
                self.name,
                verdict.fired,
                tuple([(p.label, p.weight, p.source) for p in predictions]),
                verdict.vetoed,
                verdict.constrained_to,
            )
        return predictions


class AttributeValueClassifier(ClassifierStage):
    """Stage 2: attribute rules predict; value rules constrain.

    The Voting Master asks this stage for ``predict`` and then
    ``constraints`` on the same prepared item; both read one
    :meth:`RuleSet.apply` verdict. ``predict`` stashes it keyed on the
    prepared item, the rule set and its :attr:`RuleSet.version`, and
    ``constraints`` takes it (take-and-clear) only when all three still
    match, so a rule edit in between is never served a stale verdict.
    """

    def __init__(self, rules: Optional[RuleSet] = None, name: str = "attr-value"):
        super().__init__(name)
        self.rules = rules if rules is not None else RuleSet(name=name)
        self._shared: Optional[Tuple[PreparedItem, RuleSet, int, RuleVerdict]] = None

    def predict(self, item: ItemLike) -> List[Prediction]:
        prepared = prepare(item)
        # Cleared first, so an apply that raises leaves no older verdict.
        self._shared = None
        verdict = self.rules.apply(prepared)
        self._shared = (prepared, self.rules, self.rules.version, verdict)
        predictions = [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in verdict.predictions
        ]
        if self.record_provenance and (
            verdict.fired or verdict.vetoed or verdict.constrained_to is not None
        ):
            self._last_trace = StageTrace(
                self.name,
                verdict.fired,
                tuple([(p.label, p.weight, p.source) for p in predictions]),
                verdict.vetoed,
                verdict.constrained_to,
            )
        return predictions

    def constraints(self, item: ItemLike) -> Optional[Set[str]]:
        shared, self._shared = self._shared, None
        if (
            shared is not None
            and shared[0] is item
            and shared[1] is self.rules
            and shared[2] == self.rules.version
        ):
            verdict = shared[3]
        else:
            verdict = self.rules.apply(item)
        if verdict.constrained_to is None:
            return None
        return set(verdict.constrained_to)


class LearningClassifierStage(ClassifierStage):
    """Stage 3: the learning ensemble, guarded against being unfit.

    The stage reports no predictions until it has been trained — Chimera
    must keep running (and declining) even when learning is not ready for
    some or all types (section 3.2).
    """

    def __init__(self, ensemble: VotingEnsemble, name: str = "learning"):
        super().__init__(name)
        self.ensemble = ensemble
        self._trained = False
        # Types the operator has suppressed (incident scale-down).
        self.suppressed_types: Set[str] = set()
        # title -> ensemble predictions for the batch in flight (see
        # predict_titles); empty outside a batch.
        self._batch_predictions: Dict[str, List[Prediction]] = {}

    def fit(self, titles: Sequence[str], labels: Sequence[str]) -> None:
        self._batch_predictions = {}
        self.ensemble.fit(titles, labels)
        self._trained = True

    @property
    def is_trained(self) -> bool:
        return self._trained

    def predict_titles(self, titles: Sequence[str]) -> None:
        """Predict a batch's titles with one ensemble call, ahead of voting.

        Each later :meth:`predict` on one of ``titles`` reads the result
        instead of calling the ensemble for a single title; the rows are
        exactly what a single-title call returns. Skipped when the stage
        is untrained or disabled. If the batch call raises, no table is
        kept, so each item's own :meth:`predict` meets (and reports) its
        own outcome. :meth:`clear_titles` drops the table.
        """
        self._batch_predictions = {}
        if not self._trained or not self.enabled:
            return
        unique = list(dict.fromkeys(titles))
        try:
            rows = self.ensemble.predict_batch(unique)
        except Exception:
            return
        self._batch_predictions = dict(zip(unique, rows))

    def clear_titles(self) -> None:
        """Drop the table :meth:`predict_titles` built."""
        self._batch_predictions = {}

    def predict(self, item: ItemLike) -> List[Prediction]:
        if not self._trained:
            return []
        predictions = self._batch_predictions.get(item.title)
        if predictions is None:
            predictions = self.ensemble.predict_batch([item.title])[0]
        surviving = [
            Prediction(p.label, weight=p.weight, source=f"{self.name}:{p.source}")
            for p in predictions
            if p.label not in self.suppressed_types
        ]
        if self.record_provenance and surviving:
            # Learning votes carry no fired rule ids — the vote source
            # names the ensemble member, which is exactly the liability
            # distinction §3.2 draws between rule and learning labels.
            self._last_trace = StageTrace(
                self.name,
                (),
                tuple([(p.label, p.weight, p.source) for p in surviving]),
            )
        return surviving
