"""Batch-native classification must not change an outcome.

``Chimera.classify_batch`` predicts every title of the batch with one
ensemble call and lets the attr-value stage's ``predict`` and
``constraints`` share one rule-set verdict. These tests hold it to a loop
of standalone ``classify_item`` calls: the same labels and sources, the
same provenance records, the same stage-health counters and events —
with telemetry on or off, with a rule stage breaking mid-batch, and with
an ensemble that cannot featurize one poison title.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.chimera import Chimera
from repro.chimera.gatekeeper import GateAction
from repro.core import AttributeRule, ValueConstraintRule, parse_rules
from repro.core.prepared import prepare
from repro.core.serialize import rules_from_dicts
from repro.learning.ensemble import VotingEnsemble
from repro.learning.knn import KNearestNeighbors
from repro.learning.naive_bayes import MultinomialNaiveBayes
from repro.learning.svm import LinearSvmClassifier

GOLDEN = pathlib.Path(__file__).parent / "golden"

JUNK = [
    ProductItem(item_id="junk-empty", title=""),
    ProductItem(item_id="junk-blank", title="   "),
]


def _load_items():
    rows = json.loads((GOLDEN / "catalog.json").read_text())
    return [
        ProductItem(
            item_id=row["item_id"],
            title=row["title"],
            attributes=dict(row.get("attributes", {})),
            true_type=row.get("true_type", ""),
        )
        for row in rows
    ]


ITEMS = _load_items()
POOL = ITEMS + JUNK
RULES = rules_from_dicts(json.loads((GOLDEN / "ruleset.json").read_text()))
# Parsed once so every pipeline built here shares the rule ids.
FILTER_RULES = parse_rules("""
    keychains? -> NOT rings
    cover -> NOT cell phones
""")
GATE_RULES = parse_rules("cat foods? -> cat food")


@pytest.fixture(scope="module")
def fitted_ensemble():
    ensemble = VotingEnsemble(
        [MultinomialNaiveBayes(), KNearestNeighbors(), LinearSvmClassifier(seed=7)]
    )
    labeled = [item for item in ITEMS if item.true_type]
    ensemble.fit([i.title for i in labeled], [i.true_type for i in labeled])
    return ensemble


class FittedEnsemble:
    """A pre-fitted ensemble shared by several pipelines (``fit`` is a
    no-op), counting its calls and failing on one ``poison`` title."""

    def __init__(self, inner, poison=None):
        self.inner = inner
        self.poison = poison
        self.batch_sizes = []

    def fit(self, titles, labels):
        pass

    def predict_batch(self, titles):
        self.batch_sizes.append(len(titles))
        if self.poison is not None and self.poison in titles:
            raise RuntimeError(f"cannot featurize {self.poison!r}")
        return self.inner.predict_batch(titles)


def build(ensemble, telemetry=False, trained=True):
    chimera = Chimera.build(ensemble=ensemble)
    chimera.health.failure_threshold = 2
    chimera.health.cooldown = 3
    attr_rules = [r for r in RULES if isinstance(r, (AttributeRule, ValueConstraintRule))]
    chimera.add_whitelist_rules([r for r in RULES if r not in attr_rules])
    chimera.add_attribute_rules(attr_rules)
    chimera.add_blacklist_rules(FILTER_RULES)
    chimera.gatekeeper.bypass_rules.extend(GATE_RULES)
    if trained:
        chimera.learning_stage.fit(["placeholder"], ["placeholder"])
    if telemetry:
        chimera.enable_quality_telemetry()
    return chimera


def break_stage(stage, broken_ids):
    """Make ``stage``'s rule set throw on the items in ``broken_ids`` —
    a dictionary that goes bad mid-batch and recovers later."""
    apply = stage.rules.apply

    def flaky(item):
        if prepare(item).item_id in broken_ids:
            raise RuntimeError("rule dictionary corrupted")
        return apply(item)

    stage.rules.apply = flaky


def observe(chimera, items, batched):
    """Everything a batch leaves behind, in order."""
    if batched:
        result = chimera.classify_batch(items, batch_id="b-0")
        outcomes = [(r.item.item_id, r.label, r.source) for r in result.results]
        rejected = [item.item_id for item in result.rejected]
    else:
        outcomes, rejected = [], []
        for item in items:
            item_result = chimera.classify_item(item, batch_id="b-0")
            if item_result is None:
                rejected.append(item.item_id)
            else:
                outcomes.append(
                    (item_result.item.item_id, item_result.label, item_result.source)
                )
        if chimera.quality is not None:
            chimera.quality.finish_batch("b-0", len(items))
    health = chimera.health
    return {
        "outcomes": outcomes,
        "rejected": rejected,
        "records": (
            chimera.quality.provenance.records if chimera.quality is not None else None
        ),
        "report": health.report(),
        "events": list(health.events),
        "faults": list(health.faults),
        "transitions": {
            name: list(health.breaker(name).transitions)
            for name in health.report()
        },
    }


class TestBatchEqualsItemLoop:
    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(st.integers(0, len(POOL) - 1), max_size=40),
        telemetry=st.booleans(),
        trained=st.booleans(),
        broken=st.sampled_from([None, "rule-based", "attr-value"]),
        window=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        poison_at=st.one_of(st.none(), st.integers(0, 39)),
    )
    def test_same_outcome_as_classify_item_loop(
        self, fitted_ensemble, picks, telemetry, trained, broken, window, poison_at
    ):
        items = [POOL[i] for i in picks]
        poison = None
        if poison_at is not None and items:
            poison = items[poison_at % len(items)].title
        start, stop = sorted(window)
        broken_ids = {item.item_id for item in items[start:stop]}

        observed = []
        for batched in (True, False):
            chimera = build(
                FittedEnsemble(fitted_ensemble, poison), telemetry, trained
            )
            if broken is not None:
                stage = {"rule-based": chimera.rule_stage, "attr-value": chimera.attr_stage}
                break_stage(stage[broken], broken_ids)
            observed.append(observe(chimera, items, batched))
        assert observed[0] == observed[1]

    def test_poison_title_costs_only_its_own_learning_votes(self, fitted_ensemble):
        items = ITEMS[:40]
        poison_item = next(item for item in items if item.title == "qled smart tvs")
        clean = build(FittedEnsemble(fitted_ensemble), telemetry=True)
        poisoned = build(
            FittedEnsemble(fitted_ensemble, poison_item.title), telemetry=True
        )
        clean.classify_batch(items)
        poisoned.classify_batch(items)
        assert poisoned.health.failures["learning"] == 1
        assert [f.stage for f in poisoned.health.faults] == ["learning"]
        differing = [
            a.item_id
            for a, b in zip(clean.quality.provenance.records,
                            poisoned.quality.provenance.records)
            if a != b
        ]
        assert differing == [poison_item.item_id]
        (record,) = poisoned.why(poison_item.item_id)
        assert all(trace.stage != "learning" for trace in record.stages)


class TestBatchContract:
    def test_one_ensemble_call_per_batch(self, fitted_ensemble):
        ensemble = FittedEnsemble(fitted_ensemble)
        chimera = build(ensemble)
        items = ITEMS[:30] + ITEMS[:5]  # repeated titles are predicted once
        chimera.classify_batch(items)
        assert ensemble.batch_sizes == [len({i.title for i in items})]
        # The table is gone after the batch: a standalone item predicts alone.
        chimera.classify_item(ITEMS[0])
        assert ensemble.batch_sizes[1:] == [1]

    def test_untrained_or_disabled_stage_skips_the_batch_call(self, fitted_ensemble):
        ensemble = FittedEnsemble(fitted_ensemble)
        build(ensemble, trained=False).classify_batch(ITEMS[:10])
        disabled = build(ensemble)
        disabled.learning_stage.enabled = False
        disabled.classify_batch(ITEMS[:10])
        assert ensemble.batch_sizes == []

    def test_fit_drops_the_table(self, fitted_ensemble):
        ensemble = FittedEnsemble(fitted_ensemble)
        stage = build(ensemble).learning_stage
        stage.predict_titles([ITEMS[0].title])
        stage.fit(["placeholder"], ["placeholder"])
        stage.predict(prepare(ITEMS[0]))
        assert ensemble.batch_sizes == [1, 1]

    def test_attr_stage_applies_its_rules_once_per_item(self, fitted_ensemble):
        chimera = build(FittedEnsemble(fitted_ensemble))
        rules = chimera.attr_stage.rules
        apply = rules.apply
        calls = []

        def counting_apply(item):
            calls.append(item)
            return apply(item)

        rules.apply = counting_apply
        chimera.classify_batch(ITEMS[:20])
        voted = [
            item for item in ITEMS[:20]
            if chimera.gatekeeper.process(item).action is GateAction.PASS
        ]
        assert voted and len(calls) == len(voted)

    def test_shared_verdict_is_not_served_after_an_edit(self):
        chimera = Chimera.build()
        stage = chimera.attr_stage
        prepared = prepare(ProductItem(item_id="tv", title="lg oled tv",
                                       attributes={"brand_name": "lg"}))
        stage.predict(prepared)
        assert stage.constraints(prepared) is None
        stage.predict(prepared)
        stage.rules.extend(parse_rules("value(brand_name)=lg -> televisions|tv mounts"))
        assert stage.constraints(prepared) == {"televisions", "tv mounts"}


class TestEnsembleBatchRows:
    @settings(max_examples=25, deadline=None)
    @given(
        titles=st.lists(
            st.one_of(
                st.sampled_from([item.title for item in ITEMS]),
                st.text(alphabet="abcdefghij rstu", max_size=20),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_batch_rows_equal_single_title_calls(self, fitted_ensemble, titles):
        # Exact equality, floats included: the batch table must hand each
        # item precisely what a single-title call would have.
        for model in [*fitted_ensemble.members, fitted_ensemble]:
            rows = model.predict_batch(titles)
            assert rows == [model.predict(title) for title in titles], model.name
