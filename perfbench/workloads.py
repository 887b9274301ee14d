"""The benchmark's workloads and the seeded inputs it feeds the daemon.

Each workload is a :class:`Workload`: a ``ServiceConfig`` (seeded from
``--seed``), an optional rule load applied before timing through
Chimera's ``add_*`` hooks, and an analyst edit stream run before each
batch. Everything random here derives from the workload seed, so the
same seed always produces the same rules, edits and batches.

Run length is fixed per workload as a batch plan: ``--seconds`` times the
workload's reference rate (batches per second of run length). Two commits
compared on the same seed therefore do identical work, and a faster commit
does not reach a larger state than a slower one, which would distort
``cost_growth``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analyst.analyst import head_pattern
from repro.catalog.batches import VendorProfile
from repro.core.rule import AttributeRule, BlacklistRule, Rule, WhitelistRule

#: The smallest plan: ``cost_growth`` needs a first and a last quarter.
MIN_BATCHES = 4

#: Items per batch. The service's default vendors ship 20 to 200 items, so
#: batch latency would mostly measure which sizes a seed drew; every
#: vendor ships this many instead. Vendor choice, arrival gaps and item
#: content stay the service's own seeded draws.
BATCH_ITEMS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``ServiceConfig`` fields besides ``seed``.
    config: Dict[str, float]
    #: Batches per second of ``--seconds`` (reference rate, see module doc).
    batches_per_second: float
    #: Analyst edits run before each batch (see :class:`EditStream`).
    edits_per_batch: int
    #: Rules loaded before timing: (whitelists, filter blacklists, attribute rules).
    rule_load: Tuple[int, int, int] = (0, 0, 0)

    def plan(self, seconds: float) -> int:
        return max(MIN_BATCHES, int(round(seconds * self.batches_per_second)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="learn_heavy",
            why="default daemon with training and the ~135 startup rules: "
            "the learning ensemble dominates; shows vectorized learning",
            config={},
            batches_per_second=4.0,
            edits_per_batch=4,
        ),
        Workload(
            name="rule_heavy",
            why="no training, thousands of whitelist, blacklist and attribute "
            "rules loaded up front: rule evaluation dominates",
            config={"training": 0},
            batches_per_second=2.0,
            rule_load=(1800, 400, 200),
            edits_per_batch=2,
        ),
        Workload(
            name="longrun_churn",
            why="no training, long run with a dense analyst edit stream between "
            "batches: cumulative state and the rule write path dominate",
            config={"training": 0, "mean_gap_hours": 0.5},
            batches_per_second=8.0,
            edits_per_batch=4,
        ),
    )
}


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{tag}")


class RuleFactory:
    """Seeded analyst-style rules over the service's taxonomy.

    Whitelists pair one or two of a type's modifier or brand phrases with
    one of its head nouns (``vintage.*area\\ rugs?``); blacklists veto a
    type when a phrase of another type sits before its head; attribute
    rules vote for the one type that carries an attribute (an attribute
    several types share makes a rule the service's precision floor
    retires: at a seed-dependent batch, the incident manager disabled
    between 24 and 122 of 200 such rules, and batch cost, memory and disk
    followed it). Target types (and attributes) are taken in turn rather
    than drawn, so every seed writes the same number of rules per type. Phrases, heads and vetoing types are dealt from seeded
    shuffled decks (:meth:`_deal`), so every seed uses each of them about
    equally often: seeds differ in how phrases combine and in which order
    they come, not in how often a costly phrase recurs. Free draws moved
    ``rule_heavy``'s batch latency by 10% from seed to seed. Ids are
    deterministic (``<prefix>-<kind>-<n>``): the process-global rule
    counter is not replayable across runs.
    """

    def __init__(self, taxonomy, rng: random.Random, prefix: str):
        self.rng = rng
        self.prefix = prefix
        self.types = sorted(taxonomy.type_names)
        self._types = {name: taxonomy.get(name) for name in self.types}
        self._phrases = {
            name: pt.all_modifiers() + list(pt.brands)
            for name, pt in self._types.items()
        }
        owners: Dict[str, List[str]] = {}
        for name, pt in self._types.items():
            for attribute in sorted(pt.attribute_kinds):
                owners.setdefault(attribute, []).append(name)
        self._attribute_pairs = [
            (attribute, names[0]) for attribute, names in sorted(owners.items())
            if len(names) == 1
        ]
        self._serial = 0
        self._decks: Dict[Tuple[str, str], List[str]] = {}

    def _id(self, kind: str) -> str:
        self._serial += 1
        return f"{self.prefix}-{kind}-{self._serial:06d}"

    def _deal(self, deck: str, owner: str, cards: List[str], avoid: str = "") -> str:
        """The top card of ``owner``'s seeded shuffled deck of ``cards``,
        skipping ``avoid``; a fresh shuffle goes under the deck when it
        runs out."""
        hand = self._decks.setdefault((deck, owner), [])
        if not hand or hand == [avoid]:
            fresh = list(cards)
            self.rng.shuffle(fresh)
            hand[:0] = fresh
        for index in range(len(hand) - 1, -1, -1):
            if hand[index] != avoid:
                return hand.pop(index)
        return hand.pop()

    def _head(self, type_name: str) -> str:
        return head_pattern(self._deal("head", type_name, list(self._types[type_name].heads)))

    def _next_type(self) -> str:
        return self.types[self._serial % len(self.types)]

    def whitelist(self, type_name: Optional[str] = None) -> Rule:
        rng = self.rng
        type_name = type_name or self._next_type()
        phrases = self._phrases[type_name]
        count = min(len(phrases), 1 if rng.random() < 0.6 else 2)
        chosen: List[str] = []
        for _ in range(count):
            chosen.append(self._deal("phrase", type_name, phrases, *chosen))
        pattern = ".*".join([re.escape(p) for p in chosen] + [self._head(type_name)])
        return WhitelistRule(
            pattern, type_name, rule_id=self._id("wl"), author="perfbench",
            provenance="perfbench",
        )

    def blacklist(self) -> Rule:
        vetoed = self._next_type()
        other = self._deal("veto", vetoed, [name for name in self.types if name != vetoed])
        phrase = self._deal("veto-phrase", other, self._phrases[other] or [other])
        pattern = f"{re.escape(phrase)}.*{self._head(vetoed)}"
        return BlacklistRule(
            pattern, vetoed, rule_id=self._id("bl"), author="perfbench",
            provenance="perfbench",
        )

    def attribute(self) -> Rule:
        attribute, type_name = self._attribute_pairs[
            self._serial % len(self._attribute_pairs)
        ]
        return AttributeRule(
            attribute, type_name, rule_id=self._id("attr"), author="perfbench",
            provenance="perfbench",
        )


def prepare_inputs(service, workload: Workload, seed: int) -> "EditStream":
    """Fix the batch size, load the workload's up-front rules through
    Chimera's ``add_*`` hooks and start the analyst's edit stream."""
    stream = service.stream
    stream.vendors = [
        VendorProfile(name=vendor.name, min_batch=BATCH_ITEMS, max_batch=BATCH_ITEMS)
        for vendor in stream.vendors
    ]
    whitelists, blacklists, attributes = workload.rule_load
    factory = RuleFactory(service.taxonomy, rng_for(seed, "rules"), "bench-load")
    chimera = service.chimera
    chimera.add_whitelist_rules([factory.whitelist() for _ in range(whitelists)])
    chimera.add_blacklist_rules([factory.blacklist() for _ in range(blacklists)])
    chimera.add_attribute_rules([factory.attribute() for _ in range(attributes)])
    return EditStream(service, seed)


class EditStream:
    """A seeded analyst editing the live rule sets between batches.

    Each :meth:`next_edit` returns ``(kind, call)``; ``call()`` performs one
    analyst edit on a Chimera rule set. The set's subscribers log the edit
    to the rule repository (an fsync'd append) and fold it into the
    incremental fired map before the call returns, so timing ``call()``
    times an edit taking effect.

    The stream starts with :attr:`LIVE` whitelists and :attr:`FILTER_LIVE`
    filter blacklists of its own in place, added through Chimera's hooks
    at set-up, so the rule count is flat from the first timed batch. The
    mix: whitelist adds, each retiring a random earlier one (adds equal
    retirements); refinements (same id, new pattern); disable/enable flips
    over every rule-stage rule; filter blacklists added and retired. Adds
    and refinements evaluate a rule over the corpus, the rest only log,
    and the former make up the larger share so the median edit falls
    inside one of the two cost modes rather than between them.
    """

    #: Live whitelists the stream keeps; every add retires one.
    LIVE = 50
    #: Live filter blacklists the stream keeps; every add retires the oldest.
    FILTER_LIVE = 20
    #: Rule-stage rules the stream keeps disabled before it re-enables one.
    DISABLED_LIVE = 10

    def __init__(self, service, seed: int):
        self.rng = rng_for(seed, "edits")
        self.factory = RuleFactory(service.taxonomy, rng_for(seed, "edit-rules"), "bench-edit")
        self.rules = service.chimera.rule_stage.rules
        self.filter_rules = service.chimera.filter.rules
        self.disabled: List[str] = []
        self._retire_next = False
        live = [self.factory.whitelist() for _ in range(self.LIVE)]
        filter_live = [self.factory.blacklist() for _ in range(self.FILTER_LIVE)]
        service.chimera.add_whitelist_rules(live)
        service.chimera.add_blacklist_rules(filter_live)
        self.live: List[str] = [rule.rule_id for rule in live]
        self.filter_live: List[str] = [rule.rule_id for rule in filter_live]

    def next_edit(self) -> Tuple[str, Callable[[], object]]:
        rng = self.rng
        if self._retire_next:
            self._retire_next = False
            rule_id = self.live.pop(rng.randrange(len(self.live)))
            return "retire", lambda: self.rules.remove(rule_id)
        roll = rng.random()
        if roll < 0.45:
            rule = self.factory.whitelist()
            self.live.append(rule.rule_id)
            self._retire_next = True
            return "add", lambda: self.rules.add(rule)
        if roll < 0.85:
            old = self.rules.get(rng.choice(self.live))
            rule = self.factory.whitelist(old.target_type)
            rule.rule_id = old.rule_id
            return "refine", lambda: self.rules.replace(rule)
        if roll < 0.93:
            if self.disabled and (
                len(self.disabled) >= self.DISABLED_LIVE or rng.random() < 0.5
            ):
                rule_id = self.disabled.pop(0)
                return "enable", lambda: self.rules.enable(rule_id)
            enabled = [
                rule.rule_id for rule in self.rules
                if rule.enabled and rule.rule_id not in self.live
            ]
            rule_id = rng.choice(enabled)
            self.disabled.append(rule_id)
            return "disable", lambda: self.rules.disable(rule_id)
        if len(self.filter_live) > self.FILTER_LIVE:
            rule_id = self.filter_live.pop(0)
            return "filter-retire", lambda: self.filter_rules.remove(rule_id)
        rule = self.factory.blacklist()
        self.filter_live.append(rule.rule_id)
        return "filter-add", lambda: self.filter_rules.add(rule)
