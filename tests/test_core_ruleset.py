"""Tests for RuleSet evaluation semantics."""

import pytest

from repro.catalog.types import ProductItem
from repro.core import (
    AttributeRule,
    BlacklistRule,
    DuplicateRuleError,
    RuleSet,
    UnknownRuleError,
    ValueConstraintRule,
    WhitelistRule,
    parse_rules,
)


def item(title, **attributes):
    return ProductItem(item_id=title[:20], title=title, attributes=attributes)


@pytest.fixture()
def ruleset():
    return RuleSet(parse_rules("""
        rings? -> rings
        wedding bands? -> rings
        key rings? -> NOT rings
        attr(isbn) -> books
        value(brand_name)=apple -> laptop computers|smart phones
        laptops? -> laptop computers
        phones? -> smart phones
    """))


class TestEvaluation:
    def test_whitelist_fires(self, ruleset):
        verdict = ruleset.apply(item("diamond ring"))
        assert verdict.labels == ["rings"]

    def test_blacklist_vetoes(self, ruleset):
        verdict = ruleset.apply(item("carabiner key ring"))
        assert verdict.labels == []
        assert verdict.vetoed == ("rings",)

    def test_whitelist_before_blacklist_order(self, ruleset):
        # A wedding band is a ring even though "band" appears — no blacklist
        # fires, and the two whitelist rules dedupe to one prediction.
        verdict = ruleset.apply(item("platinaire wedding band ring"))
        assert verdict.labels == ["rings"]

    def test_constraint_restricts(self, ruleset):
        # brand=apple constrains to laptop/smartphone; 'ring' vote is dropped.
        verdict = ruleset.apply(item("apple ring laptop", brand_name="apple"))
        assert verdict.labels == ["laptop computers"]
        assert verdict.constrained_to == ("laptop computers", "smart phones")

    def test_constraint_can_empty_the_verdict(self, ruleset):
        verdict = ruleset.apply(item("apple ring", brand_name="apple"))
        assert verdict.labels == []

    def test_attribute_rule_predicts(self, ruleset):
        verdict = ruleset.apply(item("some title", isbn="9781234567890"))
        assert "books" in verdict.labels

    def test_fired_lists_all_matching_rules(self, ruleset):
        verdict = ruleset.apply(item("key ring"))
        assert len(verdict.fired) == 2  # whitelist + blacklist

    def test_best_breaks_ties_deterministically(self):
        rules = RuleSet([
            WhitelistRule("a", "zeta", confidence=0.5),
            WhitelistRule("a", "alpha", confidence=0.5),
        ])
        best = rules.apply(item("a thing")).best()
        assert best.label == "zeta"  # (weight, label) max -> lexicographically last

    def test_strongest_vote_per_label_kept(self):
        rules = RuleSet([
            WhitelistRule("ring", "rings", confidence=0.3),
            WhitelistRule("gold", "rings", confidence=0.9),
        ])
        verdict = rules.apply(item("gold ring"))
        assert len(verdict.predictions) == 1
        assert verdict.predictions[0].weight == 0.9


class TestMutation:
    def test_duplicate_id_rejected(self):
        rule = WhitelistRule("a", "t")
        ruleset = RuleSet([rule])
        with pytest.raises(DuplicateRuleError):
            ruleset.add(rule)

    def test_remove(self, ruleset):
        first = next(iter(ruleset))
        ruleset.remove(first.rule_id)
        assert first.rule_id not in ruleset

    def test_remove_unknown(self, ruleset):
        with pytest.raises(UnknownRuleError):
            ruleset.remove("nope")

    def test_disable_enable(self, ruleset):
        target = next(iter(ruleset))
        ruleset.disable(target.rule_id)
        assert target not in ruleset.active_rules()
        ruleset.enable(target.rule_id)
        assert target in ruleset.active_rules()

    def test_disable_type(self, ruleset):
        disabled = ruleset.disable_type("rings")
        assert len(disabled) == 3  # two whitelists + one blacklist
        assert ruleset.apply(item("diamond ring")).labels == []
        ruleset.enable_all(disabled)
        assert ruleset.apply(item("diamond ring")).labels == ["rings"]


class TestViews:
    def test_partition(self, ruleset):
        assert len(ruleset.whitelists()) == 5
        assert len(ruleset.blacklists()) == 1
        assert len(ruleset.constraints()) == 1

    def test_rules_for_type(self, ruleset):
        assert len(ruleset.rules_for_type("rings")) == 3

    def test_coverage(self, ruleset):
        items = [item("gold ring"), item("key ring"), item("area rug")]
        coverage = ruleset.coverage(items)
        ring_rule = ruleset.rules_for_type("rings")[0]
        assert len(coverage[ring_rule.rule_id]) == 2


class TestKindPartitionCache:
    """``apply`` caches its whitelist/constraint/blacklist partition per
    version; every mutation between two calls must still show up.

    Each test warms the cache with a first ``apply`` before mutating, so
    a cache that ignores the version, keys on the rule count, or bakes
    ``enabled`` into the partition fails at least one of them.
    """

    def test_in_place_disable_is_read_live(self, ruleset):
        assert ruleset.apply(item("diamond ring")).labels == ["rings"]
        version = ruleset.version
        for rule in ruleset.rules_for_type("rings"):
            rule.enabled = False  # no event, no version bump
        assert ruleset.version == version
        assert ruleset.apply(item("diamond ring")).labels == []
        for rule in ruleset.rules_for_type("rings"):
            rule.enabled = True
        assert ruleset.apply(item("diamond ring")).labels == ["rings"]

    def test_apply_plan_disable_is_read_live(self, ruleset):
        from repro.maintenance.taxonomy_change import TaxonomyChangePlan, apply_plan

        assert ruleset.apply(item("carabiner key ring")).vetoed == ("rings",)
        blacklist = ruleset.blacklists()[0]
        plan = TaxonomyChangePlan(
            old_type="rings", new_types=("rings", "key chains"),
            invalidated=[blacklist.rule_id], undecidable=[blacklist.rule_id],
        )
        assert apply_plan(list(ruleset), plan) == [blacklist]
        verdict = ruleset.apply(item("carabiner key ring"))
        assert verdict.vetoed == ()
        assert verdict.labels == ["rings"]

    def test_replace_same_size(self, ruleset):
        assert ruleset.apply(item("cordless phone")).labels == ["smart phones"]
        old = ruleset.whitelists()[-1]
        edited = parse_rules("phones? -> NOT smart phones")[0]
        edited.rule_id = old.rule_id
        ruleset.replace(edited)
        verdict = ruleset.apply(item("cordless phone"))
        assert verdict.labels == []
        assert verdict.vetoed == ("smart phones",)

    def test_remove(self, ruleset):
        assert ruleset.apply(item("carabiner key ring")).labels == []
        ruleset.remove(ruleset.blacklists()[0].rule_id)
        assert ruleset.apply(item("carabiner key ring")).labels == ["rings"]

    def test_add(self, ruleset):
        assert ruleset.apply(item("area rug")).labels == []
        ruleset.add(WhitelistRule("rugs?", "area rugs"))
        assert ruleset.apply(item("area rug")).labels == ["area rugs"]

    def test_disable_type(self, ruleset):
        assert ruleset.apply(item("diamond ring")).labels == ["rings"]
        disabled = ruleset.disable_type("rings")
        assert ruleset.apply(item("diamond ring")).labels == []
        ruleset.enable_all(disabled)
        assert ruleset.apply(item("diamond ring")).labels == ["rings"]

    def test_kind_order_survives_mutation(self):
        ruleset = RuleSet(parse_rules("""
            key rings? -> NOT rings
            value(brand_name)=tiffany -> rings|necklaces
            rings? -> rings
        """))
        probe = item("tiffany key ring", brand_name="tiffany")
        assert len(ruleset.apply(probe).fired) == 3
        ruleset.add(parse_rules("tiffany -> necklaces")[0])
        ruleset.add(BlacklistRule("tiffany", "watches"))
        fired = ruleset.apply(probe).fired
        kinds = [
            "bl" if ruleset.get(r).is_blacklist
            else "cons" if ruleset.get(r).is_constraint
            else "wl"
            for r in fired
        ]
        assert kinds == ["wl", "wl", "cons", "bl", "bl"]
