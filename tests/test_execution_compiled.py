"""Compiled execution layer: automaton, lowering, parity, explain.

The contract under test everywhere: the compiled engine is an *optimizer*,
never a semantic fork — fired maps, evaluation counts, skip accounting,
and explain output must be indistinguishable from the interpreted
executors on every input, including the traps (plural-bridge collisions,
stop-word sequences, dirty titles, disabled rules). The known exceptions
are pinned: short-plural regexes the interpreted anchor index misses
(:class:`TestShortPluralDivergence`), and required literals inside longer
tokens that both engines miss (:class:`TestLiteralInsideTokenDivergence`).
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import ProductItem
from repro.core.errors import UnknownRuleError
from repro.core.explain import ExplanationStep
from repro.core.prepared import PreparedItem, prepare
from repro.core.rule import (
    AttributeRule,
    BlacklistRule,
    Clause,
    PredicateRule,
    SequenceRule,
    ValueConstraintRule,
    WhitelistRule,
)
from repro.execution import (
    CompiledRuleSet,
    ExecutionStats,
    IncrementalExecutor,
    IndexedExecutor,
    NaiveExecutor,
    PartitionedExecutor,
    RuleIndex,
    RuleSetCompiler,
    TokenAutomaton,
    rarest_anchor,
)
from repro.execution.compiler import _lower_regex_branches
from repro.observability import Observability


def item(item_id, title, attributes=None):
    return ProductItem(
        item_id=item_id,
        title=title,
        attributes=attributes or {},
        true_type="t",
        vendor="v",
        description="",
    )


def run_compiled(rules, items, **execute_kwargs):
    return RuleSetCompiler().compile(rules).execute(items, **execute_kwargs)


def assert_parity(rules, items):
    """Fired map AND evaluation count identical, interpreted vs compiled."""
    fired_i, stats_i = IndexedExecutor(rules).run(items)
    fired_c, stats_c = run_compiled(rules, items)
    assert fired_c == fired_i
    assert stats_c.rule_evaluations == stats_i.rule_evaluations
    assert stats_c.matches == stats_i.matches
    assert stats_c.items == stats_i.items
    return fired_i


class TestTokenAutomaton:
    def test_classic_overlapping_patterns(self):
        # The textbook he/she/his/hers example, lifted to token alphabet.
        ac = TokenAutomaton()
        for pid, pattern in {
            "he": ("h", "e"),
            "she": ("s", "h", "e"),
            "his": ("h", "i", "s"),
            "hers": ("h", "e", "r", "s"),
        }.items():
            ac.add(pattern, pid)
        hits = ac.scan(list("ushers"))
        assert set(hits) == {("she", 3), ("he", 3), ("hers", 5)}

    def test_matching_ids_and_end_positions(self):
        ac = TokenAutomaton()
        ac.add(("rose", "gold", "ring"), "p1")
        ac.add(("gold", "ring"), "p2")
        tokens = ["a", "rose", "gold", "ring", "b"]
        assert ac.matching_ids(tokens) == {"p1", "p2"}
        assert set(ac.scan(tokens)) == {("p1", 3), ("p2", 3)}
        assert ac.matching_ids(["gold", "rose", "ring"]) == set()

    def test_add_remove_and_generation(self):
        ac = TokenAutomaton()
        ac.add(("a", "b", "c"), "p")
        gen = ac.generation
        assert ac.matching_ids(["a", "b", "c"]) == {"p"}
        assert ac.remove("p") is True
        assert ac.remove("p") is False
        assert ac.generation == gen + 1
        assert ac.matching_ids(["a", "b", "c"]) == set()

    def test_readd_replaces_pattern(self):
        ac = TokenAutomaton()
        ac.add(("a", "b"), "p")
        ac.add(("c", "d"), "p")
        assert ac.matching_ids(["a", "b"]) == set()
        assert ac.matching_ids(["c", "d"]) == {"p"}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            TokenAutomaton().add((), "p")

    def test_gate_tokens_cover_every_pattern(self):
        ac = TokenAutomaton()
        ac.add(("x", "y", "z"), "p1")
        ac.add(("q", "r"), "p2")
        gate = ac.gate_tokens()
        assert gate & {"x", "y", "z"}
        assert gate & {"q", "r"}


class TestRegexBranchLowering:
    def test_bare_word(self):
        assert _lower_regex_branches("ring") == ({"ring"}, set())

    def test_plural_optional_enumerates_both_surface_forms(self):
        words, phrases = _lower_regex_branches("rings?")
        assert words == {"ring", "rings"}
        assert phrases == set()

    def test_alternation_and_phrase(self):
        words, phrases = _lower_regex_branches("ring|gold band|rose gold ring")
        assert words == {"ring"}
        assert phrases == {("gold", "band"), ("rose", "gold", "ring")}

    def test_unloweable_branch_bails_entirely(self):
        assert _lower_regex_branches("ring|ba.d") is None
        assert _lower_regex_branches("ri+ng") is None


class TestRarestAnchorSharedTiebreak:
    """Satellite: the anchor tiebreak is one function used by both layers."""

    def test_ranking_frequency_then_length_then_lexicographic(self):
        freq = {"common": 100, "rare": 1, "rarer": 1}
        assert rarest_anchor(["common", "rare"], freq) == "rare"
        # tie on frequency -> longer wins
        assert rarest_anchor(["rare", "rarer"], freq) == "rarer"
        # tie on frequency and length -> lexicographically smallest
        assert rarest_anchor(["bb", "aa"], {}) == "aa"
        # missing tokens rank as frequency 0 (rarer than anything seen)
        assert rarest_anchor(["common", "unseen"], freq) == "unseen"

    def test_rule_index_delegates_to_shared_function(self):
        freq = {"gold": 50, "ring": 2}
        index = RuleIndex(token_frequency=freq)
        rule = SequenceRule(["gold", "ring"], "t", rule_id="s1")
        index.add(rule)
        assert rarest_anchor(["gold", "ring"], freq) == "ring"
        assert index._keys_by_rule["s1"] == ["ring"]

    def test_candidate_counts_comparable_between_layers(self):
        """evaluations_per_item must agree, else bench series diverge."""
        freq = {"gold": 9, "ring": 3, "band": 1}
        rules = [
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            SequenceRule(["gold", "band"], "t", rule_id="s2"),
            WhitelistRule("rings?|band", "t", rule_id="w1"),
        ]
        items = [
            item("i1", "gold ring"),
            item("i2", "gold band special"),
            item("i3", "gold rings"),
            item("i4", "nothing here"),
        ]
        index = RuleIndex(rules, token_frequency=freq)
        compiled = RuleSetCompiler(token_frequency=freq).compile(rules)
        for it in items:
            interpreted = len(index.candidates(prepare(it)))
            _, n_evaluated = compiled.match_item(it)
            assert n_evaluated == interpreted, it.item_id


class TestCompiledParityPerRuleClass:
    def test_whitelist_word_and_plural(self):
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            WhitelistRule("rings?", "t", rule_id="w2"),
        ]
        items = [
            item("i1", "gold ring"),
            item("i2", "gold rings"),
            item("i3", "earrings"),
            item("i4", "ring rings"),
        ]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["w1", "w2"],
            "i2": ["w2"],
            "i4": ["w1", "w2"],
        }

    def test_blacklist_fires_like_whitelist_in_fired_map(self):
        rules = [BlacklistRule("toy", "jewelry", rule_id="b1")]
        fired = assert_parity(rules, [item("i1", "toy ring"), item("i2", "ring")])
        assert fired == {"i1": ["b1"]}

    def test_whitelist_phrases_all_depths(self):
        rules = [
            WhitelistRule("gold band", "t", rule_id="p2"),
            WhitelistRule("rose gold ring", "t", rule_id="p3"),
            WhitelistRule("very fine rose gold ring", "t", rule_id="p5"),
        ]
        items = [
            item("i1", "gold band"),
            item("i2", "band gold"),  # wrong order: no phrase
            item("i3", "a rose gold ring"),
            item("i4", "very fine rose gold ring x"),
            item("i5", "rose gold band"),
            item("i6", "gold gold band"),  # second occurrence is adjacent
        ]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["p2"],
            "i3": ["p3"],
            "i4": ["p3", "p5"],
            "i5": ["p2"],
            "i6": ["p2"],
        }

    def test_regex_fallback_closure_branch(self):
        # "colou?r" has no \w-run shape the lowerer accepts wholesale if
        # paired with an unloweable branch; the whole rule verifies via
        # its compiled regex and must still agree.
        rules = [WhitelistRule("silver .* ring", "t", rule_id="rx1")]
        items = [
            item("i1", "silver gold ring"),
            item("i2", "silver ring"),
            item("i3", "ring silver"),
        ]
        assert_parity(rules, items)

    def test_sequence_rules_all_lengths(self):
        rules = [
            SequenceRule(["ring"], "t", rule_id="s1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s2"),
            SequenceRule(["fine", "gold", "ring"], "t", rule_id="s3"),
        ]
        items = [
            item("i1", "fine gold diamond ring"),  # subsequence, not contiguous
            item("i2", "ring gold fine"),  # wrong order
            item("i3", "gold x y z ring"),
            item("i4", "ring"),
        ]
        fired = assert_parity(rules, items)
        assert fired == {
            "i1": ["s1", "s2", "s3"],
            "i2": ["s1"],
            "i3": ["s1", "s2"],
            "i4": ["s1"],
        }

    def test_stopword_sequence_counts_but_never_fires(self):
        # matches_prepared walks stop-word-filtered tokens, so a sequence
        # containing a stop word cannot fire; the candidate evaluation is
        # still counted by both layers.
        rules = [SequenceRule(["of", "gold"], "t", rule_id="s1")]
        items = [item("i1", "ring of gold"), item("i2", "gold of ring")]
        fired = assert_parity(rules, items)
        assert fired == {}

    def test_attribute_and_value_rules(self):
        rules = [
            AttributeRule("ISBN", "book", rule_id="a1"),
            ValueConstraintRule("Brand", "Apple", ["laptop", "phone"], rule_id="v1"),
        ]
        items = [
            item("i1", "some product", {"isbn": "123"}),
            item("i2", "apple thing", {"brand": "APPLE"}),
            item("i3", "apple thing", {"brand": "pear"}),
            item("i4", "no attrs"),
            item("i5", "dup keys", {"Brand": "apple", "brand": "pear"}),
        ]
        fired = assert_parity(rules, items)
        assert fired == {"i1": ["a1"], "i2": ["v1"], "i5": ["v1"]}

    def test_predicate_rule_lands_in_generic_residue(self):
        rules = [
            PredicateRule([Clause("title_contains ring", lambda it: "ring" in it.title)], "t", rule_id="pr1"),
            WhitelistRule("gold", "t", rule_id="w1"),
        ]
        items = [item("i1", "gold ring"), item("i2", "silver band")]
        assert_parity(rules, items)
        compiled = RuleSetCompiler().compile(rules)
        assert "residue-generic" in compiled.lane_of("pr1")
        assert not compiled.forced_compat

    def test_unknown_anchored_rule_class_forces_compat(self):
        class ExoticRule(WhitelistRule):
            def matches_prepared(self, prepared):  # overridden semantics
                return "gold" in prepared.tokens and super().matches_prepared(prepared)

        rules = [ExoticRule("ring", "t", rule_id="x1"),
                 WhitelistRule("band", "t", rule_id="w1")]
        items = [item("i1", "gold ring"), item("i2", "silver ring"),
                 item("i3", "band")]
        fired_i, _ = IndexedExecutor(rules).run(items)
        fired_c, _ = run_compiled(rules, items)
        assert fired_c == fired_i == {"i1": ["x1"], "i3": ["w1"]}
        compiled = RuleSetCompiler().compile(rules)
        assert compiled.forced_compat
        assert "compilation skipped" in compiled.lane_of("w1")


class TestPluralBridgeTrap:
    """The fire lane must never bridge: an exact-word rule does not fire
    on the plural surface form, even though the index proposes it."""

    @pytest.mark.parametrize("rule", [
        SequenceRule(["ring"], "t", rule_id="r1"),
        WhitelistRule("ring", "t", rule_id="r1"),
    ])
    def test_candidate_counted_but_no_fire_on_plural_only_title(self, rule):
        items = [item("i1", "blue rings")]
        fired_i, stats_i = IndexedExecutor([rule]).run(items)
        fired_c, stats_c = run_compiled([rule], items)
        assert fired_i == fired_c == {}
        # The singular-expanded probe proposes the rule: exactly one
        # (failed) evaluation on both paths.
        assert stats_i.rule_evaluations == stats_c.rule_evaluations == 1

    def test_multi_anchor_rule_not_double_counted_via_bridge(self):
        # anchors {ring, rings}: on "rings" the rule is reachable both
        # directly and through the bridge — one candidate, like the index.
        rules = [WhitelistRule("ring|rings", "t", rule_id="w1")]
        items = [item("i1", "rings"), item("i2", "ring rings")]
        assert_parity(rules, items)


class TestDirtyTitlesAndSkipMode:
    def test_dirty_titles_route_through_compat_path(self):
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
        ]
        items = [
            item("i1", "café gold ring"),     # non-ascii
            item("i2", "gold-plated ring!!"),      # punctuation
            item("i3", "GOLD Ring"),               # clean after lowering
            item("i4", ""),                        # empty title
            item("i5", "gold/ring combo"),
        ]
        assert_parity(rules, items)

    def test_skip_mode_accounting_matches_interpreted(self):
        class BadTitle:
            item_id = "bad"
            attributes = {}

            @property
            def title(self):
                raise RuntimeError("boom")

        rules = [WhitelistRule("ring", "t", rule_id="w1")]
        items = [item("i1", "a ring"), BadTitle(), item("i2", "band")]
        fired_i, stats_i = IndexedExecutor(rules, on_error="skip").run(items)
        fired_c, stats_c = run_compiled(rules, items, on_error="skip")
        assert fired_c == fired_i == {"i1": ["w1"]}
        assert stats_c.skipped_items == stats_i.skipped_items == 1
        assert stats_c.skipped_item_ids == stats_i.skipped_item_ids == ["bad"]
        assert stats_c.items == stats_i.items == 3

    def test_raise_mode_propagates(self):
        class BadTitle:
            item_id = "bad"
            attributes = {}

            @property
            def title(self):
                raise RuntimeError("boom")

        compiled = RuleSetCompiler().compile([WhitelistRule("x", "t")])
        with pytest.raises(RuntimeError):
            compiled.execute([BadTitle()])


class TestDisabledRulesAndRecompile:
    def test_disabled_rules_never_fire_and_are_not_counted(self):
        rules = [
            WhitelistRule("ring", "t", rule_id="w1"),
            WhitelistRule("ring", "t", rule_id="w2"),
        ]
        rules[1].enabled = False
        items = [item("i1", "a ring")]
        fired = assert_parity(rules, items)
        assert fired == {"i1": ["w1"]}

    def test_enabled_flip_between_runs_recompiles(self):
        """An artifact snapshots the enabled flags it was compiled with;
        a flip takes effect on the next compile."""
        rules = [WhitelistRule("ring", "t", rule_id="w1"),
                 WhitelistRule("band", "t", rule_id="w2")]
        items = [item("i1", "ring band")]
        before = RuleSetCompiler().compile(rules)
        rules[0].enabled = False
        assert before.execute(items)[0] == {"i1": ["w1", "w2"]}
        assert run_compiled(rules, items)[0] == {"i1": ["w2"]}
        assert before.lane_of("w1") == "depth1-fire"
        assert "excluded" in RuleSetCompiler().compile(rules).lane_of("w1")


class TestPhasedExecution:
    def test_phase_timing_split_and_identical_results(self):
        rules = [WhitelistRule("rings?", "t", rule_id="w1"),
                 SequenceRule(["gold", "ring"], "t", rule_id="s1"),
                 AttributeRule("isbn", "book", rule_id="a1")]
        items = [item(f"i{n}", f"gold ring {n}") for n in range(50)]
        items.append(item("dirty", "café ring"))
        compiled = RuleSetCompiler().compile(rules)
        fired_fast, stats_fast = compiled.execute(items)
        fired_phased, stats_phased = compiled.execute(items, phase_timing=True)
        assert fired_phased == fired_fast
        assert stats_phased.rule_evaluations == stats_fast.rule_evaluations
        assert stats_phased.prefilter_time > 0.0
        assert stats_phased.verify_time > 0.0
        assert stats_fast.prefilter_time == stats_fast.verify_time == 0.0

    def test_observability_implies_phased_spans(self):
        obs = Observability()
        rules = [WhitelistRule("ring", "t", rule_id="w1")]
        stats = ExecutionStats()
        compiled = RuleSetCompiler(observability=obs).compile(rules, stats=stats)
        fired, stats = compiled.execute(
            [item("i1", "a ring")], observability=obs, stats=stats
        )
        assert fired == {"i1": ["w1"]}
        names = [span.name for span in obs.tracer.spans]
        assert "exec.compile" in names
        assert "exec.prefilter" in names
        assert "exec.verify" in names
        assert stats.compile_time > 0.0


class TestIncrementalCompiled:
    """The daemon's incremental tracker (interpreted) and the compiled
    engine agree on corpora outside the short-plural divergence."""

    def _corpus(self):
        rules = [
            WhitelistRule("rings?", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            AttributeRule("isbn", "book", rule_id="a1"),
            ValueConstraintRule("brand", "apple", ["phone"], rule_id="v1"),
        ]
        items = [
            item("i1", "gold ring"),
            item("i2", "rings"),
            item("i3", "book", {"ISBN": "9"}),
            item("i4", "phone", {"brand": "Apple"}),
        ]
        return rules, items

    def test_matches_interpreted_incremental(self):
        rules, items = self._corpus()
        interpreted = IncrementalExecutor(rules=rules, items=items)
        fired_c, stats_c = run_compiled(rules, items)
        assert fired_c == interpreted.fired_map()
        item_side = IncrementalExecutor(rules=rules).add_items(items)
        assert stats_c.rule_evaluations == item_side.rule_evaluations

    def test_churn_cycle_keeps_parity(self):
        rules, items = self._corpus()
        interpreted = IncrementalExecutor(rules=rules, items=items)
        interpreted.remove_rules(["w1"])
        interpreted.add_rules([WhitelistRule("band", "t", rule_id="w2")])
        interpreted.update_rule(SequenceRule(["silver", "ring"], "t", rule_id="s1"))
        interpreted.add_items([item("i5", "silver band ring"), item("i2", "rings deluxe")])
        interpreted.remove_items(["i3"])
        live_items = [
            item("i1", "gold ring"),
            item("i4", "phone", {"brand": "Apple"}),
            item("i5", "silver band ring"),
            item("i2", "rings deluxe"),
        ]
        fired_c, _ = run_compiled(interpreted.rules(), live_items)
        assert interpreted.fired_map() == fired_c

    def test_disable_enable_is_snapshot_filter_only(self):
        """The tracker filters disabled rules at snapshot time with zero
        re-evaluation; the compiled engine excludes them at compile time.
        Both views agree."""
        rules, items = self._corpus()
        interpreted = IncrementalExecutor(rules=rules, items=items)
        before = interpreted.stats.rule_evaluations
        rules[0].enabled = False
        assert interpreted.fired_map() == run_compiled(rules, items)[0]
        assert "w1" not in str(interpreted.fired_map())
        rules[0].enabled = True
        assert interpreted.fired_map() == run_compiled(rules, items)[0]
        assert interpreted.fired_map()["i2"] == ["w1"]
        assert interpreted.stats.rule_evaluations == before

    def test_refresh_parity(self):
        rules, items = self._corpus()
        fired_i, op_i = IncrementalExecutor(rules=rules, items=items).refresh()
        fired_c, stats_c = run_compiled(rules, items)
        assert fired_c == fired_i
        assert stats_c.rule_evaluations == op_i.rule_evaluations


class TestPicklingContract:
    def test_shard_payload_size_is_independent_of_rule_count(self):
        """Satellite: shard submissions carry O(shard items), not rules."""
        items = [item(f"i{n}", f"token{n} gold ring") for n in range(40)]
        few = PartitionedExecutor(
            [WhitelistRule("ring", "t", rule_id="w0")], n_workers=4
        )
        many = PartitionedExecutor(
            [WhitelistRule(f"tok{n}", "t", rule_id=f"w{n}") for n in range(300)],
            n_workers=4,
        )
        shards_few, _, _ = few._shards(items)
        shards_many, _, _ = many._shards(items)
        for shard_few, shard_many in zip(shards_few, shards_many):
            assert len(pickle.dumps(shard_few)) == len(pickle.dumps(shard_many))

    def test_shard_payload_grows_linearly_with_items_only(self):
        executor = PartitionedExecutor(
            [WhitelistRule("ring", "t", rule_id="w0")], n_workers=1
        )
        small, _, _ = executor._shards([item(f"i{n}", "gold ring") for n in range(10)])
        large, _, _ = executor._shards([item(f"i{n}", "gold ring") for n in range(100)])
        small_bytes = len(pickle.dumps(small[0]))
        large_bytes = len(pickle.dumps(large[0]))
        assert large_bytes < small_bytes * 20  # ~10x items => ~10x bytes

    def test_prepared_payload_is_minimal(self):
        payload = prepare(item("i1", "a gold ring")).to_payload()
        assert set(payload) == {"item", "tokens_with_stopwords"}
        rebuilt = PreparedItem.from_payload(payload)
        assert rebuilt.tokens == ("gold", "ring")
        assert rebuilt.tokens_with_stopwords == ("a", "gold", "ring")


class TestExplain:
    """Satellite: every compiled match maps back to a human-readable rule."""

    CASES = [
        (WhitelistRule("rings?", "jewelry", rule_id="w1"),
         item("i1", "gold rings"), "whitelist"),
        (BlacklistRule("toy", "jewelry", rule_id="b1"),
         item("i2", "toy ring"), "blacklist"),
        (SequenceRule(["gold", "ring"], "jewelry", rule_id="s1"),
         item("i3", "gold shiny ring"), "whitelist"),
        (AttributeRule("isbn", "book", rule_id="a1"),
         item("i4", "x", {"ISBN": "12"}), "whitelist"),
        (ValueConstraintRule("brand", "apple", ["phone", "laptop"], rule_id="v1"),
         item("i5", "x", {"brand": "Apple"}), "constraint"),
    ]

    @pytest.mark.parametrize(
        "rule,matching_item,kind", CASES, ids=[c[0].rule_id for c in CASES]
    )
    def test_one_example_per_registered_rule_class(self, rule, matching_item, kind):
        compiled = RuleSetCompiler().compile([rule])
        hits, _ = compiled.match_item(matching_item)
        assert hits == [rule.rule_id]
        step = compiled.explain(matching_item, rule.rule_id)
        assert isinstance(step, ExplanationStep)
        assert step.rule_id == rule.rule_id
        assert step.kind == kind
        assert step.statement == rule.describe()
        assert "matched via compiled lane" in step.effect
        assert compiled.lane_of(rule.rule_id) in step.effect

    def test_non_match_is_explained_too(self):
        compiled = RuleSetCompiler().compile(
            [WhitelistRule("ring", "t", rule_id="w1")]
        )
        step = compiled.explain(item("i1", "gold band"), "w1")
        assert "did not match" in step.effect

    def test_unknown_rule_raises(self):
        compiled = RuleSetCompiler().compile([])
        with pytest.raises(UnknownRuleError):
            compiled.explain(item("i1", "x"), "nope")

    def test_explain_fired_covers_every_hit(self):
        rules = [WhitelistRule("gold", "t", rule_id="w1"),
                 WhitelistRule("ring", "t", rule_id="w2")]
        compiled = RuleSetCompiler().compile(rules)
        steps = compiled.explain_fired(item("i1", "gold ring"))
        assert [step.rule_id for step in steps] == ["w1", "w2"]


class TestCompiledRuleSetChurn:
    def test_duplicate_add_rejected(self):
        with pytest.raises(ValueError):
            CompiledRuleSet([WhitelistRule("x", "t", rule_id="w1"),
                             WhitelistRule("y", "t", rule_id="w1")])

    def test_layout_counts(self):
        compiled = CompiledRuleSet([
            WhitelistRule("ring|gold band|rose gold ring", "t", rule_id="w1"),
            SequenceRule(["gold", "ring"], "t", rule_id="s1"),
            AttributeRule("isbn", "book", rule_id="a1"),
        ])
        layout = compiled.layout()
        assert layout["rules"] == 3
        assert layout["depth1_fire_entries"] == 1   # "ring" branch
        assert layout["depth2_pair_entries"] == 1   # "gold band"
        assert layout["automaton_patterns"] == 1    # "rose gold ring"
        assert layout["verify_entries"] == 1        # the 2-token sequence
        assert layout["residue_rules"] == 1


# -- the hypothesis property: compiled == interpreted, arbitrary rulesets ------

_WORDS = st.sampled_from(
    ["ring", "rings", "gold", "band", "toy", "fine", "x1", "of", "the", "zz"]
)
_TITLES = st.text(
    alphabet="abcdefghij é-.!", min_size=0, max_size=30
).map(lambda s: s) | st.lists(_WORDS, min_size=0, max_size=6).map(" ".join)


@st.composite
def _rules(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    rid = f"r{draw(st.integers(min_value=0, max_value=10 ** 6))}"
    if kind == 0:
        words = draw(st.lists(_WORDS, min_size=1, max_size=3, unique=True))
        pattern = "|".join(w + ("s?" if draw(st.booleans()) else "") for w in words)
        rule = WhitelistRule(pattern, "t", rule_id=rid)
    elif kind == 1:
        phrase = " ".join(draw(st.lists(_WORDS, min_size=2, max_size=4)))
        rule = WhitelistRule(phrase, "t", rule_id=rid)
    elif kind == 2:
        rule = SequenceRule(
            draw(st.lists(_WORDS, min_size=1, max_size=4)), "t", rule_id=rid
        )
    elif kind == 3:
        rule = AttributeRule(draw(st.sampled_from(["isbn", "brand"])), "t", rule_id=rid)
    else:
        rule = ValueConstraintRule(
            "brand", draw(st.sampled_from(["apple", "acme"])), ["t"], rule_id=rid
        )
    rule.enabled = draw(st.booleans())
    return rule


@st.composite
def _items(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    out = []
    for index in range(n):
        attributes = draw(
            st.dictionaries(
                st.sampled_from(["isbn", "ISBN", "brand", "Brand"]),
                st.sampled_from(["apple", "ACME", "9"]),
                max_size=2,
            )
        )
        out.append(item(f"i{index}", draw(_TITLES), attributes))
    return out


class TestHypothesisParity:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(_rules(), min_size=0, max_size=8, unique_by=lambda r: r.rule_id),
        _items(),
    )
    def test_compiled_equals_interpreted_for_arbitrary_rulesets(self, rules, items):
        fired_i, stats_i = IndexedExecutor(rules).run(items)
        fired_c, stats_c = run_compiled(rules, items)
        assert fired_c == fired_i
        assert stats_c.rule_evaluations == stats_i.rule_evaluations
        assert stats_c.matches == stats_i.matches



class TestShortPluralDivergence:
    """The one known disagreement between the two engines.

    ``singular_form`` leaves words of <= 3 letters alone, so the interpreted
    anchor index (probing singular-expanded title tokens for the anchor
    ``tv``) never proposes ``tvs?`` for ``'4k smart tvs'``. The compiled
    lanes register both surface forms and fire it — agreeing with the naive
    scan — without counting a candidate evaluation.
    """

    RULE = WhitelistRule("tvs?", "tv", rule_id="r1")
    ITEMS = [item("i1", "4k smart tvs")]

    def test_compiled_agrees_with_naive(self):
        fired_n, _ = NaiveExecutor([self.RULE]).run(self.ITEMS)
        fired_c, stats_c = run_compiled([self.RULE], self.ITEMS)
        assert fired_c == fired_n == {"i1": ["r1"]}
        # fired with zero evaluations: no index candidate carried it
        assert stats_c.rule_evaluations == 0

    @pytest.mark.xfail(
        strict=True,
        reason="anchor-index defect: <=3-letter plurals (tvs -> tv) are "
        "not singularized, so IndexedExecutor misses the pair",
    )
    def test_indexed_agrees_with_naive(self):
        fired_n, _ = NaiveExecutor([self.RULE]).run(self.ITEMS)
        fired_i, _ = IndexedExecutor([self.RULE]).run(self.ITEMS)
        assert fired_i == fired_n


class TestLiteralInsideTokenDivergence:
    """Shapes both anchor-based engines miss, while the naive scan (and
    ``RuleSet.apply``'s sound prefilter) fire them.

    Both engines take their anchors from ``Rule.anchor_literals`` and look
    them up as whole title tokens. A required literal that is only part of
    a token never meets its anchor (``phone`` inside ``smartphone``,
    ``gb`` inside ``4gb``), and the extraction reads an optional ``u``
    away but keeps the run split (``colo``), takes class members as text
    (``xy`` for ``[xy]z``) and keeps a ``{0,1}`` character (``ab`` for
    ``ab{0,1}``). Each engine case is a strict xfail, so it goes red when
    the index is fixed.
    """

    CASES = [
        ("5g.*phones?", "5g smartphone"),
        ("colou?r", "color tv"),
        (r"\dgb", "4gb ram"),
        ("[xy]z", "xz widget"),
        ("ab{0,1}", "a widget"),
    ]

    @staticmethod
    def run(executor, pattern, title):
        rule = WhitelistRule(pattern, "t", rule_id="r1")
        return executor([rule], [item("i1", title)])

    @pytest.mark.parametrize("pattern, title", CASES)
    def test_naive_fires(self, pattern, title):
        fired = self.run(lambda r, i: NaiveExecutor(r).run(i)[0], pattern, title)
        assert fired == {"i1": ["r1"]}

    @pytest.mark.xfail(strict=True, reason="anchors are looked up as whole tokens")
    @pytest.mark.parametrize("pattern, title", CASES)
    def test_indexed_agrees_with_naive(self, pattern, title):
        fired = self.run(lambda r, i: IndexedExecutor(r).run(i)[0], pattern, title)
        assert fired == {"i1": ["r1"]}

    @pytest.mark.xfail(strict=True, reason="anchors are looked up as whole tokens")
    @pytest.mark.parametrize("pattern, title", CASES)
    def test_compiled_agrees_with_naive(self, pattern, title):
        fired = self.run(lambda r, i: run_compiled(r, i)[0], pattern, title)
        assert fired == {"i1": ["r1"]}
