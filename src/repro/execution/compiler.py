"""Compile a rule set into one combined matcher.

Section 4 frames execution as the capacity floor of a never-ending
classification system: "given a large set of rules and a large set of
data records, how can we quickly execute all rules on all records?" The
:class:`~repro.execution.rule_index.RuleIndex` answers the *candidate*
half (which rules could match this item), but the interpreted executors
still pay per candidate: a Python-level regex search or token walk per
(rule, item) pair. This module removes that per-rule interpretive
overhead by **lowering the whole rule set once** into shared data-driven
lanes that a single pass over each item's token stream can consume.

Automaton layout — a three-tier flattened Aho–Corasick over tokens:

* **depth 1** (single-token patterns: sequence anchors, literal word
  branches of regex rules) flattens to one token -> entry dict probed by
  a single set intersection per item (``token_set & keys``). In AC terms
  these are root transitions whose failure link is the root, so the hash
  probe *is* the automaton step.
* **depth 2** (two-word literal phrases) flattens to a pair table hung
  off the first word: ``(second_word, rule_id)`` entries checked by
  position only when the first word is present.
* **depth >= 3** (longer literal phrases) uses the real
  :class:`~repro.execution.automaton.TokenAutomaton` (goto/fail/output
  links), gated behind a per-pattern required-token set so the walk runs
  only on items that could possibly match.

Each entry in the depth-1 dict carries six lanes::

    (fires, verify, count_unique, count_multi, bridge, pairs)

* ``fires`` — rule ordinals that fire on token presence alone
  (single-token sequence rules; regex branches that are a bare word, or
  ``words?`` registered under both surface forms). Folded lanes carry
  small-int *ordinals* into a lexicographic rule-id table rather than id
  strings: the hot loop sorts ints and decodes through the table;
* ``verify`` — ``None`` or a gated triple ``(gate, positional,
  closures)``: positional entries are ``(other, second, first, ordinal)``
  4-tuples for two-token sequence rules (fire iff ``first`` occurs
  before ``second``; ``other`` is the non-anchor word, and ``gate`` —
  the frozenset of all ``other`` words — skips the loop with one
  ``isdisjoint`` call when none are present), closures are ``(closure,
  ordinal)`` with the rule's precompiled verifier (regex rules that
  resisted branch lowering; sequence rules of length >= 3);
* ``count_unique`` / ``count_multi`` — candidate accounting kept
  *exactly* parallel to :class:`RuleIndex` postings (single-anchor rules
  count unconditionally; multi-anchor rules are deduped per item), so
  ``evaluations_per_item`` stays comparable between interpreted and
  compiled series (see :func:`~repro.execution.rule_index.rarest_anchor`,
  the shared sequence-anchor tiebreak);
* ``bridge`` — the plural fold: entry for token ``base`` mirrored under
  ``base + "s"`` and applied only when ``base`` itself is absent,
  replicating the index's singular-expanded probe alphabet
  (:func:`~repro.utils.text.expand_plural_singulars`) without building a
  per-item expanded set. Only the *verify* and *count* lanes bridge: a
  bare-word fire must not fire on the plural surface form (the regex
  would not match it), so every firing surface form is registered
  directly instead.
* ``pairs`` — the depth-2 tier above: ``None`` or ``(gate, entries)``
  with ``(second_word, ordinal)`` entries behind a frozenset gate of the
  second words.

Rules that never anchor on title tokens (attribute, value-constraint,
no-anchor regex, predicate rules) form the *residue*: counted for every
item, with attribute/value rules fired straight off the item's attribute
map and the rest via their ``matches_prepared``.

**When compilation is skipped.** The fast path trusts that
``title.lower().split()`` equals the tokenizer's output, which holds
exactly for ASCII alphanumeric-plus-spaces titles; anything else (an
''unclean'' title) is routed item-by-item through a private
:class:`RuleIndex` + ``matches_prepared`` compat path with identical
semantics and accounting. Rule *classes* the compiler does not know (or
known classes whose ``matches_prepared`` was overridden) force the
compat path for the whole artifact (``forced_compat``): correctness
always wins over speed, and ``CompiledRuleSet.lane_of`` makes the
downgrade observable.

**Parity with the interpreted engine and with the naive scan.** Fired
maps and ``rule_evaluations`` equal those of
:class:`~repro.execution.executor.IndexedExecutor` over the same enabled
rules, with one known exception. The interpreted anchor index misses the
plural surface form of a ``ws?`` regex when the plural ``ws`` has at most
three letters (``tvs?`` on ``'4k smart tvs'``), because
:func:`~repro.utils.text.singular_form` leaves short words alone. The
compiled lanes register both surface forms, so the compiled engine fires
such a pair, agreeing with
:class:`~repro.execution.executor.NaiveExecutor`, while recording no
candidate evaluation for it. ``TestShortPluralDivergence`` in
``tests/test_execution_compiled.py`` pins the divergence.

Both engines miss pairs :class:`~repro.execution.executor.NaiveExecutor`
fires, because they look up :meth:`~repro.core.rule.Rule.anchor_literals`
as whole title tokens and that extraction is not sound:

* a required literal inside a longer token: ``5g.*phones?`` on
  ``'5g smartphone'`` (anchor ``phone``, token ``smartphone``),
  ``\\dgb`` on ``'4gb ram'`` (anchor ``gb``);
* an optional character inside a word: ``colou?r`` on ``'color tv'``
  (anchor ``colo``);
* a character class read as text: ``[xy]z`` on ``'xz widget'``
  (anchor ``xy``);
* a ``{0,n}`` repeat kept as required: ``ab{0,1}`` on ``'a widget'``
  (anchor ``ab``).

``TestLiteralInsideTokenDivergence`` pins these as strict xfails.
:meth:`RuleSet.apply <repro.core.ruleset.RuleSet.apply>` does not use
these anchors; its prefilter keys are sound (DESIGN.md §5).

The artifact is immutable: rules are lowered once at construction, then
folded into the hot-loop entries. A changed rule set is recompiled.
"""

from __future__ import annotations

import gc
import re
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.explain import ExplanationStep
from repro.core.errors import UnknownRuleError
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import (
    AttributeRule,
    RegexRule,
    Rule,
    SequenceRule,
    ValueConstraintRule,
    _EXPANSION_LIMIT,
    _expand_alternations,
    _split_top_level,
)
from repro.execution.automaton import TokenAutomaton
from repro.execution.executor import ExecutionStats, _checked_mode
from repro.execution.rule_index import RuleIndex, rarest_anchor
from repro.observability import Observability, ensure_observability
from repro.utils.text import STOPWORDS, singular_form

__all__ = ["RuleSetCompiler", "CompiledRuleSet"]


# Fully-lowerable regex branch shapes (post alternation expansion).
_RX_WORD = re.compile(r"^[a-z0-9]+$")
_RX_WORD_SOPT = re.compile(r"^([a-z0-9]+)s\?$")
_RX_PHRASE = re.compile(r"^[a-z0-9]+(?: [a-z0-9]+)+$")

# Chunk size for the instrumented two-phase (prefilter/verify) path.
_PHASE_CHUNK = 4096


# A "clean" lowered title is pure ascii alnum words separated by spaces --
# exactly the inputs the automaton's whitespace tokenizer agrees on with the
# full prepared-path tokenizer. Uppercase cannot survive str.lower, so this
# regex gives the same verdict as the ascii/strip-spaces/alnum check on the
# lowered string while skipping that check's per-item string copy.
_CLEAN_TITLE = re.compile(r" *[a-z0-9][a-z0-9 ]*\Z").match


def _lower_regex_branches(
    pattern: str,
) -> Optional[Tuple[Set[str], Set[Tuple[str, ...]]]]:
    """Lower a title regex to literal (words, phrases), or None.

    Returns the exact acceptance set at token level: the rule fires on a
    clean title iff one of ``words`` is a title token or one of the
    ``phrases`` occurs as adjacent tokens. ``None`` means at least one
    branch resisted lowering — the caller must fall back to running the
    compiled regex itself (a verify closure).
    """
    branches: List[str] = []
    for top_branch in _split_top_level(pattern):
        expanded = _expand_alternations(top_branch)
        if expanded is None:
            return None
        branches.extend(expanded)
        if len(branches) > _EXPANSION_LIMIT:
            return None
    words: Set[str] = set()
    phrases: Set[Tuple[str, ...]] = set()
    for branch in branches:
        if _RX_WORD.match(branch):
            words.add(branch)
            continue
        plural = _RX_WORD_SOPT.match(branch)
        if plural:
            base = plural.group(1)
            words.add(base)
            words.add(base + "s")
            continue
        if _RX_PHRASE.match(branch):
            phrases.add(tuple(branch.split(" ")))
            continue
        return None
    return words, phrases


def _make_seq_verifier(sequence: Tuple[str, ...]) -> Callable[[list, set], bool]:
    """Closure: does ``sequence`` occur in order in the title tokens?

    Valid only for stop-word-free sequences (the compiler routes
    stop-word-bearing sequences to count-only lanes, since
    ``matches_prepared`` filters stop words and such a rule can never
    fire): for those, an in-order embedding in the unfiltered tokens
    exists iff one exists in the filtered tokens.
    """

    def verify(toks: list, tset: set, _seq: Tuple[str, ...] = sequence) -> bool:
        for token in _seq:
            if token not in tset:
                return False
        position = 0
        target = _seq[position]
        for token in toks:
            if token == target:
                position += 1
                if position == len(_seq):
                    return True
                target = _seq[position]
        return False

    return verify


def _make_regex_verifier(compiled: "re.Pattern") -> Callable[[list, set], bool]:
    """Closure: run the rule's precompiled regex over the joined tokens.

    For clean titles ``" ".join(tokens)`` equals the prepared item's
    ``match_text``, so this is exactly ``matches_prepared``.
    """

    def verify(toks: list, tset: set, _search=compiled.search) -> bool:
        return _search(" ".join(toks)) is not None

    return verify


class _Lanes:
    """Per-token lane accumulators (folded into tuples at construction)."""

    __slots__ = ("fires", "verify", "cu", "cm", "pairs")

    def __init__(self) -> None:
        self.fires: List[str] = []
        self.verify: List[Tuple[Any, Any, str]] = []
        self.cu = 0
        self.cm: List[str] = []
        self.pairs: List[Tuple[str, str]] = []


class CompiledRuleSet:
    """A rule set lowered into one combined matcher (see module docs).

    Build via :class:`RuleSetCompiler` (or directly); execute batches with
    :meth:`execute`, single items with :meth:`match_item`. Disabled rules
    are excluded from the artifact entirely — the interpreted
    :class:`IndexedExecutor` skips them before counting an evaluation, so
    excluding them reproduces both its fired map and its
    ``rule_evaluations`` (up to the exception in the module docstring).
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        token_frequency: Optional[Dict[str, int]] = None,
    ):
        self._freq: Dict[str, int] = dict(token_frequency or {})
        self._rules: Dict[str, Rule] = {}
        # Raw lanes, filled by lowering.
        self._raw: Dict[str, _Lanes] = {}
        # Folded (immutable-entry) probe dict consumed by the hot loop.
        self._post: Dict[str, tuple] = {}
        self._keys: Set[str] = set()
        # Fired-id ordinal table: folded lanes carry small ints, decoded
        # back to rule-id strings only when an item actually fires.
        # Ordinals follow sorted(rule_id) order, so the hot loop can sort
        # the (much cheaper) ints and decode in order.
        self._ord: Dict[str, int] = {}
        self._table: List[str] = []
        self._ac_ord: Dict[str, int] = {}
        # Depth >= 3 phrase tier.
        self._ac = TokenAutomaton()
        self._ac_rid: Dict[str, str] = {}
        self._ac_gate: Optional[FrozenSet[str]] = None
        # Residue lanes.
        self._attr_groups: Dict[str, List[str]] = {}
        self._value_rules: List[Tuple[str, str, str]] = []
        self._generic: Dict[str, Rule] = {}
        self._attr_items: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
        self._value_items: Tuple[Tuple[str, str, str], ...] = ()
        self._generic_items: Tuple[Tuple[str, Rule], ...] = ()
        self._n_residue = 0
        # Unclean-title (and forced) compat path: a private RuleIndex over
        # the same rules, probed with full interpreted semantics.
        self._compat = RuleIndex(token_frequency=self._freq)
        self._forced_compat = False
        self._lane_labels: Dict[str, str] = {}
        for rule in rules:
            self._add_rule(rule)
        self._fold()

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    @property
    def forced_compat(self) -> bool:
        """True when an unknown rule class downgraded every item to the
        interpreted compat path (compilation effectively skipped)."""
        return self._forced_compat

    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    def lane_of(self, rule_id: str) -> str:
        """Which compiled tier handles this rule (explain/debug surface)."""
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        if self._forced_compat:
            return "compat (compilation skipped: unknown rule class present)"
        return self._lane_labels.get(rule_id, "compat")

    def layout(self) -> Dict[str, int]:
        """Automaton layout counts (documented in DESIGN.md section 11)."""
        depth1 = sum(
            1 for lanes in self._raw.values() for _ in lanes.fires
        )
        pairs = sum(len(lanes.pairs) for lanes in self._raw.values())
        verify = sum(len(lanes.verify) for lanes in self._raw.values())
        return {
            "rules": len(self._rules),
            "tokens": len(self._post),
            "depth1_fire_entries": depth1,
            "depth2_pair_entries": pairs,
            "verify_entries": verify,
            "automaton_patterns": len(self._ac),
            "residue_rules": self._n_residue,
        }

    # -- lowering -----------------------------------------------------------------

    def _lane(self, token: str) -> _Lanes:
        lanes = self._raw.get(token)
        if lanes is None:
            lanes = self._raw[token] = _Lanes()
        return lanes

    def _add_rule(self, rule: Rule) -> None:
        """Lower one rule into the shared lanes.

        Mirrors :meth:`RuleIndex.add` candidate placement exactly; the
        fired surface is lowered per rule class. Disabled rules are
        skipped entirely.
        """
        rid = rule.rule_id
        if rid in self._rules:
            raise ValueError(f"rule {rid!r} compiled twice")
        self._rules[rid] = rule
        if not rule.enabled:
            self._lane_labels[rid] = "excluded (disabled)"
            return
        self._compat.add(rule)
        self._lower_rule(rule)

    def _lower_rule(self, rule: Rule) -> None:
        rid = rule.rule_id
        if isinstance(rule, SequenceRule) and (
            type(rule).matches_prepared is SequenceRule.matches_prepared
        ):
            self._lower_sequence(rule)
            return
        if isinstance(rule, RegexRule) and (
            type(rule).matches_prepared is RegexRule.matches_prepared
        ):
            self._lower_regex(rule)
            return
        if isinstance(rule, AttributeRule) and (
            type(rule).matches_prepared is AttributeRule.matches_prepared
        ):
            name = rule.attribute.lower()
            self._attr_groups.setdefault(name, []).append(rid)
            self._n_residue += 1
            self._lane_labels[rid] = "residue-attribute"
            return
        if isinstance(rule, ValueConstraintRule) and (
            type(rule).matches_prepared is ValueConstraintRule.matches_prepared
        ):
            entry = (rule.attribute.lower(), rule.value, rid)
            self._value_rules.append(entry)
            self._n_residue += 1
            self._lane_labels[rid] = "residue-value"
            return
        anchors = rule.anchor_literals()
        if not anchors:
            # Predicate rules and other anchorless classes: always-checked
            # residue, evaluated through matches_prepared — identical to
            # the RuleIndex residue list.
            self._generic[rid] = rule
            self._n_residue += 1
            self._lane_labels[rid] = "residue-generic"
            return
        # An anchored rule class the compiler cannot prove it understands:
        # correctness first — skip compilation for the whole artifact.
        self._forced_compat = True
        self._lane_labels[rid] = "compat (unknown anchored rule class)"

    def _lower_sequence(self, rule: SequenceRule) -> None:
        rid = rule.rule_id
        sequence = rule.token_sequence
        anchor = rarest_anchor(sequence, self._freq)
        self._lane(anchor).cu += 1
        if any(token in STOPWORDS for token in sequence):
            # matches_prepared filters stop words out of the title before
            # the in-order walk, so a stop-word-bearing sequence can never
            # fire; it still costs one candidate evaluation per probe.
            self._lane_labels[rid] = "count-only (stop-word sequence)"
            return
        if len(sequence) == 1:
            token = sequence[0]
            self._lane(token).fires.append(rid)
            self._lane_labels[rid] = "depth1-fire"
        elif len(sequence) == 2:
            self._lane(anchor).verify.append((sequence[1], sequence[0], rid))
            self._lane_labels[rid] = "verify-pair-order"
        else:
            self._lane(anchor).verify.append(
                (None, _make_seq_verifier(sequence), rid)
            )
            self._lane_labels[rid] = "verify-sequence"

    def _lower_regex(self, rule: RegexRule) -> None:
        rid = rule.rule_id
        anchors = rule.anchor_literals()
        if not anchors:
            self._generic[rid] = rule
            self._n_residue += 1
            self._lane_labels[rid] = "residue-generic"
            return
        # Candidate accounting: identical placement to RuleIndex postings.
        if len(anchors) == 1:
            anchor = next(iter(anchors))
            self._lane(anchor).cu += 1
        else:
            for anchor in anchors:
                self._lane(anchor).cm.append(rid)
        lowered = _lower_regex_branches(rule.pattern)
        if lowered is None:
            entry = (None, _make_regex_verifier(rule._compiled), rid)
            for anchor in anchors:
                self._lane(anchor).verify.append(entry)
            self._lane_labels[rid] = "verify-regex"
            return
        words, phrases = lowered
        labels = []
        for word in words:
            self._lane(word).fires.append(rid)
        if words:
            labels.append("depth1-fire")
        for phrase in sorted(phrases):
            if len(phrase) == 2:
                self._lane(phrase[0]).pairs.append((phrase[1], rid))
                labels.append("depth2-pair")
            else:
                pattern_id = f"{rid}\x00{len(self._ac_rid)}"
                self._ac.add(phrase, pattern_id)
                self._ac_rid[pattern_id] = rid
                labels.append("automaton-phrase")
        self._lane_labels[rid] = "+".join(dict.fromkeys(labels)) or "depth1-fire"

    # -- folding ------------------------------------------------------------------

    def _fold_verify(
        self, entries: Iterable[Tuple[Any, Any, str]], anchor: str
    ) -> Optional[tuple]:
        """Raw verify entries -> gated hot-loop lane, relative to ``anchor``.

        Returns ``None`` when there is nothing to verify, else a triple
        ``(gate, positional, closures)``. Positional entries are
        ``(other, second, first, ordinal)``: ``other`` is the sequence word
        that is *not* the anchor, so the direct path needs a single
        membership test (the anchor is present by construction), and
        ``gate`` is the frozenset of those ``other`` words — when it is
        disjoint from the title's token set (the overwhelmingly common
        case) the whole positional loop is skipped with one C-level call.
        Bridge folds pass the singular base as anchor — there the base is
        absent from the title, so the positional ``list.index`` probe
        fails and correctly vetoes the fire. Closure entries become
        ``(closure, ordinal)`` and always run (no token gate exists for a
        regex verifier).
        """
        ord_ = self._ord
        positional = []
        closures = []
        for e0, e1, rid in entries:
            o = ord_[rid]
            if e0 is None:
                closures.append((e1, o))
            else:
                # raw shape: (second word, first word, rid)
                positional.append((e0 if e0 != anchor else e1, e0, e1, o))
        if not positional and not closures:
            return None
        gate = frozenset(entry[0] for entry in positional)
        return (gate, tuple(positional), tuple(closures))

    def _fold_token(self, token: str) -> None:
        lanes = self._raw.get(token)
        ord_ = self._ord
        base = singular_form(token)
        bridge = None
        if base != token:
            base_lanes = self._raw.get(base)
            if base_lanes is not None and (
                base_lanes.verify or base_lanes.cu or base_lanes.cm
            ):
                bridge = (
                    base,
                    self._fold_verify(base_lanes.verify, base),
                    base_lanes.cu,
                    tuple(ord_[rid] for rid in base_lanes.cm),
                )
        if lanes is None:
            if bridge is not None:
                self._post[token] = ((), None, 0, (), bridge, None)
            return
        pairs = None
        if lanes.pairs:
            folded_pairs = tuple(
                (second, ord_[rid]) for second, rid in lanes.pairs
            )
            pairs = (
                frozenset(second for second, _ in folded_pairs),
                folded_pairs,
            )
        self._post[token] = (
            tuple(ord_[rid] for rid in lanes.fires),
            self._fold_verify(lanes.verify, token),
            lanes.cu,
            tuple(ord_[rid] for rid in lanes.cm),
            bridge,
            pairs,
        )

    def _fold(self) -> None:
        """Fold the raw lanes into the hot-loop entries (once, at build)."""
        self._table = sorted(self._rules)
        ord_ = self._ord = {rid: o for o, rid in enumerate(self._table)}
        for token in list(self._raw):
            self._fold_token(token)
            self._fold_token(token + "s")
        self._keys = set(self._post)
        self._attr_items = tuple(
            (name, tuple(ord_[rid] for rid in rids))
            for name, rids in sorted(self._attr_groups.items())
        )
        self._value_items = tuple(
            (name, value, ord_[rid]) for name, value, rid in self._value_rules
        )
        self._generic_items = tuple(
            (ord_[rid], rule) for rid, rule in self._generic.items()
        )
        self._ac_ord = {pid: ord_[rid] for pid, rid in self._ac_rid.items()}
        if len(self._ac):
            self._ac_gate = frozenset(
                self._ac.gate_tokens(
                    choose=lambda tokens: rarest_anchor(tokens, self._freq)
                )
            )

    # -- matching -----------------------------------------------------------------

    def _apply_lanes(
        self, item: ItemLike, toks: List[str], tset: set, hit_tokens: Iterable[str]
    ) -> Tuple[List[str], int]:
        """Full lane evaluation for one clean item: (fired ids, eval count).

        This is the reference implementation of the per-item step; the
        batch loop in :meth:`execute` inlines the same logic for speed
        (kept in lock-step by the parity tests in
        ``tests/test_execution_compiled.py``).
        """
        post = self._post
        flist: List[int] = []
        n_candidates = self._n_residue
        cmset: Optional[set] = None
        idx = toks.index
        for t in hit_tokens:
            fires, verify, cu, cm, bridge, pairs = post[t]
            if fires:
                flist.extend(fires)
            n_candidates += cu
            if verify is not None:
                v_gate, v_pos, v_clo = verify
                if not v_gate.isdisjoint(tset):
                    for other, second, first, o in v_pos:
                        if other in tset:
                            try:
                                idx(second, idx(first) + 1)
                                flist.append(o)
                            except ValueError:
                                pass
                if v_clo:
                    for closure, o in v_clo:
                        if closure(toks, tset):
                            flist.append(o)
            if cm:
                if cmset is None:
                    cmset = set(cm)
                else:
                    cmset.update(cm)
            if bridge is not None:
                base, b_verify, b_cu, b_cm = bridge
                if base not in tset:
                    n_candidates += b_cu
                    if b_verify is not None:
                        v_gate, v_pos, v_clo = b_verify
                        if not v_gate.isdisjoint(tset):
                            for other, second, first, o in v_pos:
                                if other in tset:
                                    try:
                                        idx(second, idx(first) + 1)
                                        flist.append(o)
                                    except ValueError:
                                        pass
                        if v_clo:
                            for closure, o in v_clo:
                                if closure(toks, tset):
                                    flist.append(o)
                    if b_cm:
                        if cmset is None:
                            cmset = set(b_cm)
                        else:
                            cmset.update(b_cm)
            if pairs is not None and not pairs[0].isdisjoint(tset):
                for second, o in pairs[1]:
                    if second in tset:
                        start = 0
                        while True:
                            try:
                                start = idx(t, start)
                            except ValueError:
                                break
                            if start + 1 < len(toks) and toks[start + 1] == second:
                                flist.append(o)
                                break
                            start += 1
        ac_gate = self._ac_gate
        if ac_gate is not None and not ac_gate.isdisjoint(tset):
            ac_ord = self._ac_ord
            for pattern_id in self._ac.matching_ids(toks):
                flist.append(ac_ord[pattern_id])
        if self._attr_items or self._value_items:
            attrs = item.attributes
            if attrs:
                low: Dict[str, str] = {}
                for key, value in attrs.items():
                    kl = key.lower()
                    if kl not in low:
                        low[kl] = value
                for name, ords in self._attr_items:
                    if name in low:
                        flist.extend(ords)
                for name, value, o in self._value_items:
                    actual = low.get(name)
                    if actual is not None and actual.lower() == value:
                        flist.append(o)
        if self._generic_items:
            prepared = item if isinstance(item, PreparedItem) else PreparedItem(item)
            for o, generic_rule in self._generic_items:
                if generic_rule.matches_prepared(prepared):
                    flist.append(o)
        if cmset is not None:
            n_candidates += len(cmset)
        table = self._table
        return [table[o] for o in flist], n_candidates

    def _match_compat(self, item: ItemLike) -> Tuple[List[str], int]:
        prepared = prepare(item)
        candidates = self._compat.candidates(prepared)
        hits = [
            rule.rule_id for rule in candidates if rule.matches_prepared(prepared)
        ]
        return hits, len(candidates)

    def match_item(self, item: ItemLike) -> Tuple[List[str], int]:
        """(sorted fired rule ids, candidate evaluations) for one item.

        The same fired output and evaluation count as probing a
        :class:`RuleIndex` and running ``matches_prepared`` per candidate,
        except for the short-plural pairs the module docstring describes
        (fired here, missed by the index, counted as no evaluation).
        """
        lowered = item.title.lower()
        if self._forced_compat or _CLEAN_TITLE(lowered) is None:
            hits, n_candidates = self._match_compat(item)
        else:
            toks = lowered.split()
            tset = set(toks)
            hits, n_candidates = self._apply_lanes(item, toks, tset, tset & self._keys)
        return sorted(set(hits)), n_candidates

    # -- batch execution ----------------------------------------------------------

    def execute(
        self,
        items: Sequence[ItemLike],
        on_error: str = "raise",
        observability: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
        stats: Optional[ExecutionStats] = None,
        phase_timing: bool = False,
    ) -> Tuple[Dict[str, List[str]], ExecutionStats]:
        """Run the compiled matcher over a batch.

        Fired map and counters equal ``IndexedExecutor(rules).run(items)``
        over the same (enabled) rules, except for the short-plural pairs
        the module docstring describes: those fire here (as under
        :class:`NaiveExecutor`) with no evaluation counted, and the index
        misses them. ``phase_timing`` (implied by enabled observability) runs
        the instrumented two-phase variant that attributes time to
        ``exec.prefilter`` (tokenize + depth-1 intersection) and
        ``exec.verify`` (lanes, residue, output) spans and stats fields;
        the default single-pass loop avoids the staging cost.
        """
        skip = _checked_mode(on_error) == "skip"
        obs = ensure_observability(observability)
        clk = clock if clock is not None else time.perf_counter
        if stats is None:
            stats = ExecutionStats()
        fired: Dict[str, List[str]] = {}
        started = clk()
        # Pause cyclic GC for the batch: the compiled artifact is a large
        # long-lived tuple graph, and the loop's allocation rate would
        # otherwise trigger gen-0 collections every ~100 items that rescan
        # it for no possible garbage. All loop allocations are short-lived
        # and reference-counted away; collection resumes on exit either way.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if phase_timing or obs.enabled:
                self._execute_phased(items, fired, stats, skip, obs, clk)
            else:
                self._execute_fast(items, fired, stats, skip)
        finally:
            if gc_was_enabled:
                gc.enable()
        stats.items += len(items)
        stats.match_time += clk() - started
        return fired, stats

    def _skip_item(self, item: Any, stats: ExecutionStats) -> None:
        stats.skipped_items += 1
        stats.skipped_item_ids.append(str(getattr(item, "item_id", "<unknown>")))

    def _execute_fast(
        self,
        items: Sequence[ItemLike],
        fired: Dict[str, List[str]],
        stats: ExecutionStats,
        skip: bool,
    ) -> None:
        # The hot loop. Locals and lane layout are deliberate — see the
        # module docstring; keep in lock-step with _apply_lanes.
        post = self._post
        keys = self._keys
        n_residue = self._n_residue
        attr_items = self._attr_items
        value_items = self._value_items
        has_attr_lanes = bool(attr_items or value_items)
        generic_items = self._generic_items
        ac_gate = self._ac_gate
        ac_ord = self._ac_ord
        ac_matching = self._ac.matching_ids if ac_gate is not None else None
        forced = self._forced_compat
        match_compat = self._match_compat
        table = self._table
        n_evaluations = 0
        n_matches = 0
        for item in items:
            try:
                lowered = item.title.lower()
                if not forced and _CLEAN_TITLE(lowered) is not None:
                    toks = lowered.split()
                    tset = set(toks)
                    flist: List[int] = []
                    n_candidates = n_residue
                    cmset = None
                    fire_update = flist.extend
                    for t in tset & keys:
                        fires, verify, cu, cm, bridge, pairs = post[t]
                        if fires:
                            fire_update(fires)
                        n_candidates += cu
                        if verify is not None:
                            v_gate, v_pos, v_clo = verify
                            if not v_gate.isdisjoint(tset):
                                idx = toks.index
                                for other, second, first, o in v_pos:
                                    if other in tset:
                                        try:
                                            idx(second, idx(first) + 1)
                                            flist.append(o)
                                        except ValueError:
                                            pass
                            if v_clo:
                                for closure, o in v_clo:
                                    if closure(toks, tset):
                                        flist.append(o)
                        if cm:
                            if cmset is None:
                                cmset = set(cm)
                            else:
                                cmset.update(cm)
                        if bridge is not None:
                            base, b_verify, b_cu, b_cm = bridge
                            if base not in tset:
                                n_candidates += b_cu
                                if b_verify is not None:
                                    v_gate, v_pos, v_clo = b_verify
                                    if not v_gate.isdisjoint(tset):
                                        idx = toks.index
                                        for other, second, first, o in v_pos:
                                            if other in tset:
                                                try:
                                                    idx(second, idx(first) + 1)
                                                    flist.append(o)
                                                except ValueError:
                                                    pass
                                    if v_clo:
                                        for closure, o in v_clo:
                                            if closure(toks, tset):
                                                flist.append(o)
                                if b_cm:
                                    if cmset is None:
                                        cmset = set(b_cm)
                                    else:
                                        cmset.update(b_cm)
                        if pairs is not None and not pairs[0].isdisjoint(tset):
                            idx = toks.index
                            for second, o in pairs[1]:
                                if second in tset:
                                    start = 0
                                    while True:
                                        try:
                                            start = idx(t, start)
                                        except ValueError:
                                            break
                                        if (
                                            start + 1 < len(toks)
                                            and toks[start + 1] == second
                                        ):
                                            flist.append(o)
                                            break
                                        start += 1
                    if ac_matching is not None and not ac_gate.isdisjoint(tset):
                        for pattern_id in ac_matching(toks):
                            flist.append(ac_ord[pattern_id])
                    if has_attr_lanes:
                        attrs = item.attributes
                        if attrs:
                            low = {}
                            for key, value in attrs.items():
                                kl = key.lower()
                                if kl not in low:
                                    low[kl] = value
                            for name, ords in attr_items:
                                if name in low:
                                    fire_update(ords)
                            for name, value, o in value_items:
                                actual = low.get(name)
                                if actual is not None and actual.lower() == value:
                                    flist.append(o)
                    if generic_items:
                        prepared = (
                            item if isinstance(item, PreparedItem) else PreparedItem(item)
                        )
                        for o, generic_rule in generic_items:
                            if generic_rule.matches_prepared(prepared):
                                flist.append(o)
                    if cmset is not None:
                        n_candidates += len(cmset)
                    n_evaluations += n_candidates
                    if flist:
                        # Sorting ordinals sorts rule ids (the table is
                        # lexicographic); dedupe during decode to skip a
                        # set construction on the per-item hot path.
                        flist.sort()
                        prev = -1
                        fires_out = []
                        out_append = fires_out.append
                        for o in flist:
                            if o != prev:
                                out_append(table[o])
                                prev = o
                        n_matches += len(fires_out)
                        fired[item.item_id] = fires_out
                else:
                    flist, n_candidates = match_compat(item)
                    n_evaluations += n_candidates
                    if flist:
                        fires_out = sorted(set(flist))
                        n_matches += len(fires_out)
                        fired[item.item_id] = fires_out
            except Exception:
                if not skip:
                    raise
                self._skip_item(item, stats)
        stats.rule_evaluations += n_evaluations
        stats.matches += n_matches

    def _execute_phased(
        self,
        items: Sequence[ItemLike],
        fired: Dict[str, List[str]],
        stats: ExecutionStats,
        skip: bool,
        obs: Observability,
        clk: Callable[[], float],
    ) -> None:
        """Instrumented two-phase variant: stage prefilter, then verify.

        Same results as the fast loop; the staging buys an honest
        prefilter/verify timing split (and spans) at a small constant
        cost per item, so it only runs under observability/phase_timing.
        """
        keys = self._keys
        forced = self._forced_compat
        for offset in range(0, len(items), _PHASE_CHUNK):
            chunk = items[offset : offset + _PHASE_CHUNK]
            staged: List[Optional[Tuple[Any, Any, Any, Any]]] = []
            with obs.span("exec.prefilter", items=len(chunk)):
                phase_started = clk()
                for item in chunk:
                    try:
                        lowered = item.title.lower()
                        if not forced and _CLEAN_TITLE(lowered) is not None:
                            toks = lowered.split()
                            tset = set(toks)
                            staged.append((item, toks, tset, tset & keys))
                        else:
                            staged.append((item, None, None, None))
                    except Exception:
                        if not skip:
                            raise
                        self._skip_item(item, stats)
                        staged.append(None)
                stats.prefilter_time += clk() - phase_started
            with obs.span("exec.verify", items=len(chunk)):
                phase_started = clk()
                for entry in staged:
                    if entry is None:
                        continue
                    item, toks, tset, hit_tokens = entry
                    try:
                        if toks is None:
                            flist, n_candidates = self._match_compat(item)
                        else:
                            flist, n_candidates = self._apply_lanes(
                                item, toks, tset, hit_tokens
                            )
                        stats.rule_evaluations += n_candidates
                        if flist:
                            fires = sorted(set(flist))
                            stats.matches += len(fires)
                            fired[item.item_id] = fires
                    except Exception:
                        if not skip:
                            raise
                        self._skip_item(item, stats)
                stats.verify_time += clk() - phase_started

    # -- explainability (RuleChef-style: compiled -> human-readable) ---------------

    def explain(self, item: ItemLike, rule_id: str) -> ExplanationStep:
        """Map a compiled decision back to the originating rule.

        Returns an :class:`~repro.core.explain.ExplanationStep` — the same
        shape the ``why()``/provenance chain renders — whose statement is
        the rule's own human-readable form plus the compiled lane that
        carried it, and whose effect states whether (and how) the rule
        matched this item. Ground truth is re-derived from the rule's
        interpreted ``matches_prepared``, so an explanation can never
        drift from semantics even if a lane were wrong.
        """
        rule = self._rules.get(rule_id)
        if rule is None:
            raise UnknownRuleError(rule_id)
        prepared = prepare(item)
        matched = rule.matches_prepared(prepared)
        lane = self.lane_of(rule_id)
        if matched:
            if rule.is_constraint:
                effect = (
                    f"matched via compiled lane [{lane}]; restricts candidates "
                    f"to {{{'|'.join(getattr(rule, 'allowed_types', ()))}}}"
                )
            elif rule.is_blacklist:
                effect = (
                    f"matched via compiled lane [{lane}]; "
                    f"vetoes type {rule.target_type!r}"
                )
            else:
                effect = (
                    f"matched via compiled lane [{lane}]; "
                    f"asserts type {rule.target_type!r}"
                )
        else:
            effect = f"did not match (checked via compiled lane [{lane}])"
        kind = (
            "constraint"
            if rule.is_constraint
            else "blacklist" if rule.is_blacklist else "whitelist"
        )
        return ExplanationStep(
            rule_id=rule_id,
            kind=kind,
            statement=rule.describe(),
            effect=effect,
        )

    def explain_fired(self, item: ItemLike) -> List[ExplanationStep]:
        """One :meth:`explain` step per rule firing on ``item``, sorted."""
        hits, _ = self.match_item(item)
        return [self.explain(item, rule_id) for rule_id in hits]

class RuleSetCompiler:
    """Front door: lower rule sets into :class:`CompiledRuleSet` artifacts.

    Stateless apart from the corpus token-frequency table (shared with
    :class:`RuleIndex` so both pick the same sequence anchors); the
    ``exec.compile`` span makes compilation cost visible wherever an
    observability pipeline is attached.
    """

    def __init__(
        self,
        token_frequency: Optional[Dict[str, int]] = None,
        observability: Optional[Observability] = None,
    ):
        self.token_frequency = dict(token_frequency or {})
        self.observability = ensure_observability(observability)

    def compile(
        self,
        rules: Iterable[Rule],
        stats: Optional[ExecutionStats] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> CompiledRuleSet:
        """Lower ``rules`` (timed; span ``exec.compile``)."""
        clk = clock if clock is not None else time.perf_counter
        rules = list(rules)
        with self.observability.span("exec.compile", rules=len(rules)):
            started = clk()
            compiled = CompiledRuleSet(rules, token_frequency=self.token_frequency)
            elapsed = clk() - started
        if stats is not None:
            stats.compile_time += elapsed
        return compiled
