"""Rule sets: ordered collections with whitelist-before-blacklist semantics.

Section 4 ("Rule System Properties and Design"): "in Chimera the rule-based
module always executes the whitelist rules before the blacklist rules. So
under certain assumptions ... the execution order among the whitelist rules
(or the blacklist rules) does not affect the final output." A
:class:`RuleSet` implements exactly that evaluation discipline; the
order-independence assumptions themselves are checked by
:mod:`repro.core.properties`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.errors import DuplicateRuleError, UnknownRuleError
from repro.core.prepared import ItemLike, PreparedItem, prepare
from repro.core.rule import Prediction, Rule


@dataclass(frozen=True)
class RuleVerdict:
    """The outcome of applying a rule set to one item.

    ``predictions`` are the surviving whitelist votes; ``vetoed`` records the
    types blacklists killed (useful for debugging, section 3.2's "ability to
    trace errors"); ``fired`` lists every rule id that matched.
    """

    predictions: Tuple[Prediction, ...]
    vetoed: Tuple[str, ...] = ()
    constrained_to: Optional[Tuple[str, ...]] = None
    fired: Tuple[str, ...] = ()

    @property
    def labels(self) -> List[str]:
        return [p.label for p in self.predictions]

    def best(self) -> Optional[Prediction]:
        """Highest-weight surviving prediction, ties broken by label."""
        if not self.predictions:
            return None
        return max(self.predictions, key=lambda p: (p.weight, p.label))


class RuleSet:
    """An ordered, mutable collection of rules with stable evaluation.

    Evaluation order (fixed by design, per section 4):

    1. whitelist rules (any internal order) produce candidate predictions;
    2. constraint rules restrict the candidate label set;
    3. blacklist rules veto labels.

    Disabled rules are retained (so they can be re-enabled after an incident,
    section 2.2's scale-down/restore) but never fire.

    **Rule-state ownership (copy-on-add).** The set stores a shallow *copy*
    of every rule handed to :meth:`add` / :meth:`replace`, so per-rule
    mutable state — today just ``enabled`` — is owned per set. Two rule
    sets built from the same :class:`Rule` objects (e.g. a registry's
    ``deployed_ruleset()`` and a snapshot view) no longer alias: disabling
    a rule in one cannot silently disable it in the other, and every set's
    subscribers see exactly the ``"disabled"`` events for *their* set.
    Rule conditions are immutable, so the shallow copy shares them.
    """

    def __init__(self, rules: Iterable[Rule] = (), name: str = "ruleset"):
        self.name = name
        self._rules: Dict[str, Rule] = {}
        self._order: List[str] = []
        # Change-notification plumbing for incremental consumers (§4's
        # "when rule R is modified ... re-run only what changed"): every
        # mutation bumps `version`, assigns the touched rule a fresh
        # per-rule revision, and fans the event out to subscribers.
        self._version = 0
        self._revisions: Dict[str, int] = {}
        # Highest revision ever reaped by remove(); see _next_revision.
        self._revision_watermark = 0
        # Subscriptions are tracked by token (not listener value), so the
        # same callable registered twice unsubscribes independently.
        self._listeners: Dict[int, Callable[[str, Rule], None]] = {}
        self._listener_tokens = 0
        # apply()'s kind partition and prefilter, rebuilt when `_version`
        # moves on.
        self._kinds: Tuple[Tuple[Rule, ...], ...] = ((), (), ())
        self._kinds_version = -1
        self._prefilter = _Prefilter(self._kinds)
        self._prefilter_version = -1
        for rule in rules:
            self.add(rule)

    # -- change notification ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (cheap staleness check)."""
        return self._version

    def revision(self, rule_id: str) -> int:
        """The rule's revision number: bumped on add and on replace.

        ``(rule_id, revision)`` is the *versioned rule identity* — two
        sightings of the same pair are guaranteed to denote the same rule
        condition, so cached per-rule results keyed on it stay sound. The
        guarantee holds across remove/re-add churn: a re-added rule's
        revision is strictly greater than any revision its id ever held
        (see :meth:`_next_revision`), without keeping a tombstone entry
        per removed id.
        """
        if rule_id not in self._rules:
            raise UnknownRuleError(rule_id)
        return self._revisions[rule_id]

    def _next_revision(self, rule_id: str) -> int:
        """A revision strictly above everything ``rule_id`` ever held.

        ``_revisions`` only keeps entries for *live* rules; :meth:`remove`
        folds the departing revision into a single scalar watermark (the
        max revision ever reaped). A fresh add starts above the watermark,
        so heavy churn cannot grow the dict without bound and the
        versioned-identity guarantee survives: the watermark dominates
        every removed id's last revision, in particular this one's.
        """
        return max(self._revisions.get(rule_id, 0), self._revision_watermark) + 1

    def subscribe(self, listener: Callable[[str, Rule], None]) -> Callable[[], None]:
        """Register ``listener(event, rule)`` for mutations; returns unsubscribe.

        Events: ``"added"``, ``"removed"``, ``"replaced"``, ``"enabled"``,
        ``"disabled"``. Listeners run synchronously inside the mutation.
        Each call registers an independent subscription (tracked by token):
        subscribing the same callable twice and unsubscribing once detaches
        only that registration, never the other one.
        """
        token = self._listener_tokens
        self._listener_tokens += 1
        self._listeners[token] = listener

        def unsubscribe() -> None:
            self._listeners.pop(token, None)

        return unsubscribe

    def _notify(self, event: str, rule: Rule) -> None:
        self._version += 1
        for listener in list(self._listeners.values()):
            listener(event, rule)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules[rule_id] for rule_id in self._order)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise UnknownRuleError(rule_id) from None

    def is_enabled(self, rule_id: str) -> bool:
        """This set's enabled flag for the rule (per-set state)."""
        return self.get(rule_id).enabled

    # -- mutation ---------------------------------------------------------------

    def add(self, rule: Rule) -> Rule:
        """Add a rule; returns the set-owned copy actually stored."""
        if rule.rule_id in self._rules:
            raise DuplicateRuleError(f"rule {rule.rule_id!r} already in {self.name!r}")
        rule = copy.copy(rule)
        self._rules[rule.rule_id] = rule
        self._order.append(rule.rule_id)
        self._revisions[rule.rule_id] = self._next_revision(rule.rule_id)
        self._notify("added", rule)
        return rule

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    def remove(self, rule_id: str) -> Rule:
        rule = self.get(rule_id)
        del self._rules[rule_id]
        self._order.remove(rule_id)
        # Reap the tombstoned revision into the watermark so churn cannot
        # grow _revisions without bound (see _next_revision).
        self._revision_watermark = max(
            self._revision_watermark, self._revisions.pop(rule_id)
        )
        self._notify("removed", rule)
        return rule

    def replace(self, rule: Rule) -> Rule:
        """Swap in an edited rule with the same rule_id (an analyst edit).

        The rule keeps its position in evaluation order but gets a fresh
        revision; returns the old rule object. This is the mutation §4's
        incremental-execution discussion is about — subscribers see a
        single ``"replaced"`` event instead of a remove/add pair.
        """
        old = self.get(rule.rule_id)
        rule = copy.copy(rule)
        self._rules[rule.rule_id] = rule
        self._revisions[rule.rule_id] += 1
        self._notify("replaced", rule)
        return old

    def disable(self, rule_id: str) -> None:
        """Switch a rule off without losing it (fast incident response)."""
        rule = self.get(rule_id)
        if rule.enabled:
            rule.enabled = False
            self._notify("disabled", rule)

    def enable(self, rule_id: str) -> None:
        rule = self.get(rule_id)
        if not rule.enabled:
            rule.enabled = True
            self._notify("enabled", rule)

    def disable_type(self, target_type: str) -> List[str]:
        """Disable every rule targeting ``target_type``; returns their ids.

        This is the "scale down" primitive: when predictions for one type go
        bad, kill that type's rules with minimal impact on the rest.
        """
        disabled = []
        for rule in self:
            if rule.target_type == target_type and rule.enabled:
                rule.enabled = False
                self._notify("disabled", rule)
                disabled.append(rule.rule_id)
        return disabled

    def enable_all(self, rule_ids: Iterable[str]) -> None:
        for rule_id in rule_ids:
            self.enable(rule_id)

    # -- views --------------------------------------------------------------------

    def active_rules(self) -> List[Rule]:
        return [rule for rule in self if rule.enabled]

    def _kind_partition(self) -> Tuple[Tuple[Rule, ...], ...]:
        """(whitelists, constraints, blacklists) in set order, enabled or not.

        Cached per :attr:`version`, which every mutation event bumps.
        ``enabled`` is not part of the cache: ``maintenance.apply_plan``
        flips it in place without an event, so callers read it live.
        """
        if self._kinds_version != self._version:
            rules = list(self)
            self._kinds = (
                tuple(r for r in rules if not r.is_blacklist and not r.is_constraint),
                tuple(r for r in rules if r.is_constraint),
                tuple(r for r in rules if r.is_blacklist),
            )
            self._kinds_version = self._version
        return self._kinds

    def _prefilter_index(self) -> "_Prefilter":
        """:meth:`apply`'s candidate prefilter, cached per :attr:`version`."""
        if self._prefilter_version != self._version:
            self._prefilter = _Prefilter(self._kind_partition())
            self._prefilter_version = self._version
        return self._prefilter

    def whitelists(self) -> List[Rule]:
        return [r for r in self._kind_partition()[0] if r.enabled]

    def constraints(self) -> List[Rule]:
        return [r for r in self._kind_partition()[1] if r.enabled]

    def blacklists(self) -> List[Rule]:
        return [r for r in self._kind_partition()[2] if r.enabled]

    def rules_for_type(self, target_type: str) -> List[Rule]:
        return [r for r in self if r.target_type == target_type]

    def target_types(self) -> Set[str]:
        return {r.target_type for r in self}

    # -- evaluation ------------------------------------------------------------------

    def apply(self, item: ItemLike) -> RuleVerdict:
        """Evaluate all active rules on ``item`` (whitelists → constraints →
        blacklists) and return the verdict.

        Accepts either a raw :class:`~repro.catalog.types.ProductItem` or a
        :class:`~repro.core.prepared.PreparedItem`; either way the item's
        derived text views are computed at most once for the whole verdict.

        Only candidate rules are evaluated: those whose prefilter keys the
        item carries (:meth:`Rule.prefilter_keys
        <repro.core.rule.Rule.prefilter_keys>`: a literal inside one of its
        title tokens, or a lowercased attribute name), plus every rule
        without keys. The keys are sound, so a skipped rule could not have
        matched, and candidates run in the order the full scan would take;
        the verdict equals that of evaluating every active rule. The
        prefilter is cached per :attr:`version`; each rule's ``enabled``
        flag is read live (see :meth:`_kind_partition`).
        """
        index = self._prefilter_index()
        rules = index.rules
        first_constraint = index.first_constraint
        first_blacklist = index.first_blacklist
        prepared = prepare(item)
        fired: List[str] = []
        predictions: List[Prediction] = []
        seen_labels: Set[str] = set()
        allowed: Optional[Set[str]] = None
        vetoed: List[str] = []
        for position in index.candidates(prepared):
            rule = rules[position]
            if not rule.enabled:
                continue
            if position < first_constraint:
                prediction = rule.predict_prepared(prepared)
                if prediction is None:
                    continue
                fired.append(rule.rule_id)
                if prediction.label not in seen_labels:
                    predictions.append(prediction)
                    seen_labels.add(prediction.label)
                else:
                    # Keep the strongest vote per label.
                    predictions = [
                        p if p.label != prediction.label or p.weight >= prediction.weight
                        else prediction
                        for p in predictions
                    ]
            elif position < first_blacklist:
                if rule.matches_prepared(prepared):
                    fired.append(rule.rule_id)
                    rule_allowed = set(rule.allowed_types)
                    allowed = rule_allowed if allowed is None else (allowed & rule_allowed)
            elif rule.matches_prepared(prepared):
                fired.append(rule.rule_id)
                vetoed.append(rule.target_type)
        if allowed is not None:
            predictions = [p for p in predictions if p.label in allowed]
        veto_set = set(vetoed)
        surviving = tuple(p for p in predictions if p.label not in veto_set)

        return RuleVerdict(
            predictions=surviving,
            vetoed=tuple(sorted(veto_set)),
            constrained_to=tuple(sorted(allowed)) if allowed is not None else None,
            fired=tuple(fired),
        )

    def coverage(self, items: Sequence[ItemLike]) -> Dict[str, List[str]]:
        """rule id -> item ids it fires on. The §4 evaluation methods and the
        §5.2 selection algorithms both work off coverage sets."""
        covered: Dict[str, List[str]] = {rule.rule_id: [] for rule in self}
        active = self.active_rules()
        for item in items:
            prepared = prepare(item)
            for rule in active:
                if rule.matches_prepared(prepared):
                    covered[rule.rule_id].append(prepared.item_id)
        return covered


# Token -> candidate positions memo bound, per prefilter.
_HITS_LIMIT = 8192


def _keys_trusted(cls: type) -> bool:
    """Whether ``cls``'s prefilter keys describe its own matching.

    A subclass that overrides ``matches_prepared`` or ``predict_prepared``
    without redefining ``prefilter_keys`` is not trusted: its rules go to
    the residue.
    """
    owner = next(c for c in cls.__mro__ if "prefilter_keys" in vars(c))
    return (
        cls.matches_prepared is owner.matches_prepared
        and cls.predict_prepared is Rule.predict_prepared
    )


class _Prefilter:
    """Postings of one rule-set version: prefilter key → rule positions.

    Positions number the rules in evaluation order (whitelists, then
    constraints, then blacklists, each in set order), so sorted candidates
    are the full scan's order with the non-candidates left out. Rules
    without sound keys form the residue every item checks.
    """

    def __init__(self, kinds: Tuple[Tuple[Rule, ...], ...]):
        whitelists, constraints, blacklists = kinds
        self.rules: Tuple[Rule, ...] = whitelists + constraints + blacklists
        self.first_constraint = len(whitelists)
        self.first_blacklist = len(whitelists) + len(constraints)
        self.text: Dict[str, List[int]] = {}
        self.attr: Dict[str, List[int]] = {}
        residue: List[int] = []
        trusted: Dict[type, bool] = {}
        for position, rule in enumerate(self.rules):
            cls = type(rule)
            if cls not in trusted:
                trusted[cls] = _keys_trusted(cls)
            keys = rule.prefilter_keys() if trusted[cls] else None
            if keys is None:
                residue.append(position)
                continue
            space, names = keys
            postings = self.attr if space == "attr" else self.text
            for name in names:
                postings.setdefault(name, []).append(position)
        self.residue = tuple(residue)
        self.lengths = sorted({len(literal) for literal in self.text})
        self._hits: Dict[str, Tuple[int, ...]] = {}

    def _token_hits(self, token: str) -> Tuple[int, ...]:
        """Positions posted under any substring of ``token`` (memoized)."""
        hits = self._hits.get(token)
        if hits is None:
            text = self.text
            found: List[int] = []
            for length in self.lengths:
                if length > len(token):
                    break
                for start in range(len(token) - length + 1):
                    posted = text.get(token[start : start + length])
                    if posted is not None:
                        found.extend(posted)
            hits = tuple(found)
            if len(self._hits) >= _HITS_LIMIT:
                self._hits.clear()
            self._hits[token] = hits
        return hits

    def candidates(self, prepared: PreparedItem) -> List[int]:
        """Sorted positions of the rules that could match ``prepared``."""
        found = set(self.residue)
        for token in prepared.token_set:
            found.update(self._token_hits(token))
        if self.attr:
            attr = self.attr
            for name in prepared.attribute_map:
                posted = attr.get(name)
                if posted is not None:
                    found.update(posted)
        return sorted(found)
