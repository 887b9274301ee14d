"""Tests for RuleSet evaluation semantics."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.prepared import prepare
from repro.core.rule import Clause, PredicateRule, SequenceRule


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


def scan_apply(ruleset, item):
    """The full scan ``RuleSet.apply`` ran before its prefilter: every
    enabled rule, whitelists then constraints then blacklists."""
    rules = list(ruleset)
    whitelists = [r for r in rules if not r.is_blacklist and not r.is_constraint]
    constraints = [r for r in rules if r.is_constraint]
    blacklists = [r for r in rules if r.is_blacklist]
    prepared = prepare(item)
    fired = []
    predictions = []
    seen_labels = set()
    for rule in whitelists:
        if not rule.enabled:
            continue
        prediction = rule.predict_prepared(prepared)
        if prediction is not None:
            fired.append(rule.rule_id)
            if prediction.label not in seen_labels:
                predictions.append(prediction)
                seen_labels.add(prediction.label)
            else:
                predictions = [
                    p if p.label != prediction.label or p.weight >= prediction.weight
                    else prediction
                    for p in predictions
                ]
    allowed = None
    for rule in constraints:
        if rule.enabled and rule.matches_prepared(prepared):
            fired.append(rule.rule_id)
            rule_allowed = set(rule.allowed_types)
            allowed = rule_allowed if allowed is None else (allowed & rule_allowed)
    if allowed is not None:
        predictions = [p for p in predictions if p.label in allowed]
    vetoed = []
    for rule in blacklists:
        if rule.enabled and rule.matches_prepared(prepared):
            fired.append(rule.rule_id)
            vetoed.append(rule.target_type)
    veto_set = set(vetoed)
    return (
        tuple(p for p in predictions if p.label not in veto_set),
        tuple(sorted(veto_set)),
        tuple(sorted(allowed)) if allowed is not None else None,
        tuple(fired),
    )


def verdict_fields(verdict):
    return (verdict.predictions, verdict.vetoed, verdict.constrained_to, verdict.fired)


class TestPrefilterSoundness:
    """Shapes whose required literal sits inside a longer token, or after
    an optional or class-matched character. The anchor index behind
    ``IndexedExecutor`` and the compiled engine miss the last four (see
    ``TestLiteralInsideTokenDivergence`` in test_execution_compiled.py);
    ``apply`` must fire every one, as the full scan does."""

    @pytest.mark.parametrize("pattern, title", [
        ("5g.*phones?", "5g smartphone"),
        ("tvs?", "4k smart tvs"),
        ("colou?r", "color tv"),
        (r"\dgb", "4gb ram"),
        ("[xy]z", "xz widget"),
        ("ab{0,1}", "a widget"),
    ])
    def test_fires_like_the_full_scan(self, pattern, title):
        ruleset = RuleSet([WhitelistRule(pattern, "t", rule_id="r1")])
        probe = item(title)
        assert ruleset.apply(probe).fired == ("r1",)
        assert verdict_fields(ruleset.apply(probe)) == scan_apply(ruleset, probe)

    def test_case_insensitive_group_is_always_checked(self):
        ruleset = RuleSet([WhitelistRule("(?i:RING)s?", "rings", rule_id="r1")])
        assert ruleset.apply(item("gold ring")).fired == ("r1",)

    def test_pattern_valid_only_inside_the_title_wrapping_is_always_checked(self):
        # "gold)|(ring" is unbalanced alone; compile_title_regex's group
        # turns it into "(?:gold)|(ring)", which fires on "ring".
        ruleset = RuleSet([WhitelistRule("gold)|(ring", "rings", rule_id="r1")])
        probe = item("silver ring")
        assert ruleset.apply(probe).fired == ("r1",)
        assert verdict_fields(ruleset.apply(probe)) == scan_apply(ruleset, probe)

    def test_overridden_matcher_is_always_checked(self):
        class Everywhere(WhitelistRule):
            def matches_prepared(self, prepared):
                return True

        ruleset = RuleSet([Everywhere("zzz", "t", rule_id="r1")])
        assert ruleset.apply(item("gold ring")).fired == ("r1",)


# -- the prefilter against the full scan ------------------------------------------

WORDS = [
    "ring", "rings", "tv", "tvs", "color", "colour", "gb", "4gb", "phone",
    "smartphone", "5g", "z", "xz", "a", "ab", "key", "usb-c", "13-293snb", "caf\u00e9",
]
TYPES = ["t1", "t2", "t3"]
ATTRIBUTES = ["ISBN", "isbn", "Brand", "brand", "Color"]

word = st.sampled_from(WORDS)
simple_piece = st.one_of(
    word.map(re.escape),
    word.map(lambda w: re.escape(w) + "s?"),
    word.map(lambda w: re.escape(w[:-1]) + "u?" + re.escape(w[-1])),
    word.map(lambda w: re.escape(w) + "{0,1}"),
    word.map(lambda w: f"(?:{re.escape(w)}){{0,1}}"),
    word.map(lambda w: f"(?i:{re.escape(w.upper())})"),
    st.sampled_from([r"\d", r"\s", r"[xy]", r"[a-c]z", ".", ".*", r"\d+"]),
)
regex_piece = st.one_of(
    simple_piece,
    st.tuples(simple_piece, simple_piece).map(lambda p: f"(?:{p[0]}|{p[1]})"),
)
regex = st.lists(
    st.tuples(regex_piece, st.sampled_from(["", " ", ".*", r"\s"])), min_size=1, max_size=3,
).map(lambda parts: "".join(piece + sep for piece, sep in parts[:-1]) + parts[-1][0])

title = st.one_of(
    st.lists(
        st.one_of(word, st.sampled_from([
            "Gold", "KEY", "Ring!", "4GB", "tvs,", "co-lour", "smart-phone",
            "\u00c9CLAIR", "na\u00efve", "\u65e5\u672c", "x.z", "a/b", "  ", "5G-PHONES",
        ])),
        max_size=6,
    ).map(" ".join),
    st.text(max_size=20),
)
test_item = st.builds(
    lambda t, attrs: ProductItem(item_id="i", title=t, attributes=attrs),
    title,
    st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(["apple", "Apple", "x"]), max_size=3),
)


def _contains_a(item):
    return "a" in item.title.lower()


@st.composite
def any_rule(draw):
    kind = draw(st.sampled_from(["wl", "bl", "seq", "attr", "val", "pred"]))
    target = draw(st.sampled_from(TYPES))
    weight = draw(st.sampled_from([0.2, 0.5, 0.9]))
    if kind in ("wl", "bl"):
        cls = WhitelistRule if kind == "wl" else BlacklistRule
        return cls(draw(regex), target, confidence=weight)
    if kind == "seq":
        return SequenceRule(draw(st.lists(word, min_size=1, max_size=2)), target, confidence=weight)
    if kind == "attr":
        return AttributeRule(draw(st.sampled_from(ATTRIBUTES)), target, confidence=weight)
    if kind == "val":
        allowed = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=2, unique=True))
        return ValueConstraintRule(
            draw(st.sampled_from(ATTRIBUTES)), draw(st.sampled_from(["apple", "x"])), allowed,
        )
    clause = Clause("title has an a", _contains_a)
    return PredicateRule([clause], target, negated=draw(st.booleans()), confidence=weight)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prefiltered_apply_equals_the_full_scan(data):
    ruleset = RuleSet()
    serial = 0

    def fresh(rule_id=None):
        nonlocal serial
        rule = data.draw(any_rule())
        if rule_id is None:
            serial += 1
            rule_id = f"r{serial}"
        rule.rule_id = rule_id
        return rule

    for _ in range(data.draw(st.integers(0, 8))):
        ruleset.add(fresh())
    ops = st.sampled_from(["apply", "apply", "apply", "flip", "add", "replace", "remove", "toggle"])
    for op in data.draw(st.lists(ops, min_size=1, max_size=12)):
        ids = [rule.rule_id for rule in ruleset]
        if op == "apply":
            probe = data.draw(test_item)
            assert verdict_fields(ruleset.apply(probe)) == scan_apply(ruleset, probe)
        elif op == "add":
            ruleset.add(fresh())
        elif not ids:
            continue
        elif op == "flip":  # in place, no event: the apply_plan path
            rule = ruleset.get(data.draw(st.sampled_from(ids)))
            rule.enabled = not rule.enabled
        elif op == "replace":
            ruleset.replace(fresh(data.draw(st.sampled_from(ids))))
        elif op == "remove":
            ruleset.remove(data.draw(st.sampled_from(ids)))
        else:
            rule_id = data.draw(st.sampled_from(ids))
            if ruleset.is_enabled(rule_id):
                ruleset.disable(rule_id)
            else:
                ruleset.enable(rule_id)
    probe = data.draw(test_item)
    assert verdict_fields(ruleset.apply(probe)) == scan_apply(ruleset, probe)
