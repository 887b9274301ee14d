"""The rule model.

The paper's classification rules (section 3.3):

* **whitelist rules** ``r -> t`` — a title matching regex ``r`` is of type
  ``t`` (e.g. ``rings? -> rings``);
* **blacklist rules** ``r -> NOT t`` — a title matching ``r`` is *not* of
  type ``t``;
* **attribute rules** — "if a product item has the attribute 'ISBN' then its
  type is 'Books'";
* **value rules** — "if the 'Brand Name' attribute ... has value 'Apple',
  then the type can only be 'laptop', 'phone', etc." (a *constraint*, not a
  prediction);
* **predicate rules** — the richer language section 4 asks for ("if the
  title contains 'Apple' but the price is less than $100 then the product
  is not a phone", dictionary membership clauses);
* **sequence rules** ``a1.*a2.*...*an -> t`` — the section 5.2 generated
  form, where tokens appear in order but not necessarily contiguously.

Every rule carries metadata (id, author, creation time, confidence,
provenance) because rule *management* — auditing, evaluation, maintenance —
is the point of the paper.
"""

from __future__ import annotations

import enum
import itertools
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.catalog.types import ProductItem
from repro.core.prepared import PreparedItem, prepare
from repro.utils.text import contains_word_sequence, tokenize

try:  # Python 3.11+
    from re import _constants as _sre, _parser as _sre_parse
except ImportError:  # Python 3.9 and 3.10
    import sre_constants as _sre
    import sre_parse as _sre_parse


@dataclass(frozen=True)
class Prediction:
    """One classifier/rule vote: a type with a weight and a provenance tag."""

    label: str
    weight: float = 1.0
    source: str = "rule"

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"prediction weight must be non-negative, got {self.weight}")


class RuleStatus(enum.Enum):
    """Lifecycle states managed by :class:`~repro.core.registry.RuleRegistry`."""

    DRAFT = "draft"
    VALIDATED = "validated"
    DEPLOYED = "deployed"
    DISABLED = "disabled"
    RETIRED = "retired"


_id_counter = itertools.count(1)


def _fresh_rule_id(prefix: str) -> str:
    return f"{prefix}-{next(_id_counter):06d}"


class Rule(ABC):
    """Base class for all rules.

    Subclasses implement :meth:`matches`; whether a match is an assertion
    (whitelist) or a veto (blacklist) is :attr:`is_blacklist`.
    """

    kind: str = "rule"

    def __init__(
        self,
        target_type: str,
        rule_id: Optional[str] = None,
        author: str = "analyst",
        created_at: float = 0.0,
        confidence: float = 1.0,
        provenance: str = "manual",
    ):
        if not target_type:
            raise ValueError("rule needs a non-empty target type")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        self.target_type = target_type
        self.rule_id = rule_id if rule_id is not None else _fresh_rule_id(self.kind)
        self.author = author
        self.created_at = created_at
        self.confidence = confidence
        self.provenance = provenance
        self.enabled = True

    @abstractmethod
    def matches(self, item: ProductItem) -> bool:
        """True when the rule's condition holds for ``item``."""

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        """Fast path over a :class:`~repro.core.prepared.PreparedItem`.

        Subclasses whose condition only reads text views override this to
        reuse the item's one-time tokenization; the default falls back to
        :meth:`matches` on the wrapped item, so the two are always
        result-identical.
        """
        return self.matches(prepared.item)

    @property
    def is_blacklist(self) -> bool:
        return False

    @property
    def is_constraint(self) -> bool:
        return False

    def predict(self, item: ProductItem) -> Optional[Prediction]:
        """A prediction if this (whitelist) rule fires, else None."""
        if self.is_blacklist or self.is_constraint:
            return None
        if self.matches(item):
            return Prediction(self.target_type, weight=self.confidence, source=self.rule_id)
        return None

    def predict_prepared(self, prepared: PreparedItem) -> Optional[Prediction]:
        """:meth:`predict` over the prepared fast path."""
        if self.is_blacklist or self.is_constraint:
            return None
        if self.matches_prepared(prepared):
            return Prediction(self.target_type, weight=self.confidence, source=self.rule_id)
        return None

    def anchor_literals(self) -> Optional[FrozenSet[str]]:
        """Literal tokens, one of which any matching title must contain.

        Used by the execution index (section 4, "Rule Execution and
        Optimization"). ``None`` means "no useful anchors; always check".
        """
        return None

    def prefilter_keys(self) -> Optional[Tuple[str, FrozenSet[str]]]:
        """Keys one of which every item this rule matches carries, or None.

        ``("text", literals)``: a literal is a substring of the item's
        ``match_text``; no literal contains a space, so it lies inside one
        token. ``("attr", names)``: a name is one of the item's lowercased
        attribute keys. :meth:`RuleSet.apply
        <repro.core.ruleset.RuleSet.apply>` evaluates a rule only on items
        that carry one of its keys, so the keys must be sound: unlike
        :meth:`anchor_literals`, they never exclude an item the rule
        matches. ``None`` means "always evaluate".
        """
        return None

    def describe(self) -> str:
        return f"{self.rule_id}: ? -> {self.target_type}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def compile_title_regex(pattern: str) -> "re.Pattern":
    """Compile a rule regex to search inside normalized titles.

    Matches are anchored at word boundaries so ``rings?`` matches the words
    "ring"/"rings" but not "earrings" — the semantics the paper's example
    rules assume. Raises :class:`re.error` for invalid patterns.
    """
    return re.compile(rf"(?<![\w]){'(?:' + pattern + ')'}(?![\w])")


class RegexRule(Rule):
    """Shared machinery for whitelist/blacklist regex rules over titles."""

    def __init__(self, pattern: str, target_type: str, **metadata):
        super().__init__(target_type, **metadata)
        self.pattern = pattern
        try:
            self._compiled = compile_title_regex(pattern)
        except re.error as exc:
            raise ValueError(f"invalid rule regex {pattern!r}: {exc}") from exc
        # Walked lazily by prefilter_keys, at most once per rule object.
        self._literals: Optional[FrozenSet[str]] = None
        self._literals_done = False

    def matches(self, item: ProductItem) -> bool:
        return self.matches_prepared(prepare(item))

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return self._compiled.search(prepared.match_text) is not None

    def matches_text(self, title: str) -> bool:
        """Match against a raw title string (used on labeled titles)."""
        normalized = " ".join(tokenize(title, drop_stopwords=False))
        return self._compiled.search(normalized) is not None

    def anchor_literals(self) -> Optional[FrozenSet[str]]:
        return extract_anchor_literals(self.pattern)

    def prefilter_keys(self) -> Optional[Tuple[str, FrozenSet[str]]]:
        if not self._literals_done:
            self._literals = required_literals(self.pattern)
            self._literals_done = True
        return None if self._literals is None else ("text", self._literals)

    def describe(self) -> str:
        arrow = "-> NOT" if self.is_blacklist else "->"
        return f"{self.rule_id}: {self.pattern} {arrow} {self.target_type}"


class WhitelistRule(RegexRule):
    """``r -> t``: a title matching ``r`` is of type ``t``."""

    kind = "wl"


class BlacklistRule(RegexRule):
    """``r -> NOT t``: a title matching ``r`` is not of type ``t``."""

    kind = "bl"

    @property
    def is_blacklist(self) -> bool:
        return True


class AttributeRule(Rule):
    """Attribute presence implies a type (``attr(isbn) -> books``)."""

    kind = "attr"

    def __init__(self, attribute: str, target_type: str, **metadata):
        super().__init__(target_type, **metadata)
        if not attribute:
            raise ValueError("attribute rule needs an attribute name")
        self.attribute = attribute

    def matches(self, item: ProductItem) -> bool:
        return item.has_attribute(self.attribute)

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        # The prepared view memoizes a lowercased attribute map, replacing
        # ProductItem's per-call linear scan.
        return prepared.has_attribute(self.attribute)

    def prefilter_keys(self) -> Optional[Tuple[str, FrozenSet[str]]]:
        return ("attr", frozenset([self.attribute.lower()]))

    def describe(self) -> str:
        return f"{self.rule_id}: attr({self.attribute}) -> {self.target_type}"


class ValueConstraintRule(Rule):
    """An attribute value constrains the candidate types.

    ``value(brand_name)=apple -> laptop computers|smart phones`` does not
    predict a type; it *restricts* other classifiers' predictions (the
    paper's "the type can only be 'laptop', 'phone', etc.").
    """

    kind = "val"

    def __init__(
        self,
        attribute: str,
        value: str,
        allowed_types: Sequence[str],
        **metadata,
    ):
        if not allowed_types:
            raise ValueError("value rule needs at least one allowed type")
        super().__init__(allowed_types[0], **metadata)
        self.attribute = attribute
        self.value = value.lower()
        self.allowed_types: Tuple[str, ...] = tuple(allowed_types)

    @property
    def is_constraint(self) -> bool:
        return True

    def matches(self, item: ProductItem) -> bool:
        actual = item.attribute(self.attribute)
        return actual is not None and actual.lower() == self.value

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        actual = prepared.attribute(self.attribute)
        return actual is not None and actual.lower() == self.value

    def prefilter_keys(self) -> Optional[Tuple[str, FrozenSet[str]]]:
        return ("attr", frozenset([self.attribute.lower()]))

    def describe(self) -> str:
        allowed = "|".join(self.allowed_types)
        return f"{self.rule_id}: value({self.attribute})={self.value} -> {allowed}"


@dataclass(frozen=True)
class Clause:
    """One AND-ed predicate of a :class:`PredicateRule`.

    ``prepared_test``, when present, is the clause evaluated against a
    :class:`~repro.core.prepared.PreparedItem` — title clauses set it so
    predicate rules share the item's one-time tokenization.
    """

    description: str
    test: Callable[[ProductItem], bool] = field(compare=False)
    prepared_test: Optional[Callable[[PreparedItem], bool]] = field(
        default=None, compare=False, repr=False
    )

    def __call__(self, item: ProductItem) -> bool:
        return self.test(item)

    def evaluate_prepared(self, prepared: PreparedItem) -> bool:
        if self.prepared_test is not None:
            return self.prepared_test(prepared)
        return self.test(prepared.item)


class PredicateRule(Rule):
    """Conjunction of arbitrary clauses, whitelist or blacklist.

    This is the "more expressive rule language" of section 4: clauses may
    test title regexes, attribute presence/values, numeric fields, or
    dictionary membership — while staying writable by analysts via the DSL.
    """

    kind = "pred"

    def __init__(
        self,
        clauses: Sequence[Clause],
        target_type: str,
        negated: bool = False,
        **metadata,
    ):
        if not clauses:
            raise ValueError("predicate rule needs at least one clause")
        super().__init__(target_type, **metadata)
        self.clauses: Tuple[Clause, ...] = tuple(clauses)
        self._negated = negated

    @property
    def is_blacklist(self) -> bool:
        return self._negated

    def matches(self, item: ProductItem) -> bool:
        return all(clause(item) for clause in self.clauses)

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return all(clause.evaluate_prepared(prepared) for clause in self.clauses)

    def describe(self) -> str:
        condition = " & ".join(clause.description for clause in self.clauses)
        arrow = "-> NOT" if self._negated else "->"
        return f"{self.rule_id}: {condition} {arrow} {self.target_type}"


class SequenceRule(Rule):
    """``a1.*a2.*...*an -> t``: the section 5.2 generated-rule form.

    Matching is on tokenized titles (stop words removed, as in the paper's
    preprocessing), with the tokens required in order but not contiguously.
    """

    kind = "seq"

    def __init__(self, token_sequence: Sequence[str], target_type: str, support: float = 0.0, **metadata):
        if not token_sequence:
            raise ValueError("sequence rule needs at least one token")
        super().__init__(target_type, **metadata)
        self.token_sequence: Tuple[str, ...] = tuple(token_sequence)
        self.support = support

    @property
    def pattern(self) -> str:
        """The regex rendering the paper shows analysts (``a1.*a2``)."""
        return ".*".join(self.token_sequence)

    def matches(self, item: ProductItem) -> bool:
        return self.matches_text(item.title)

    def matches_prepared(self, prepared: PreparedItem) -> bool:
        return contains_word_sequence(prepared.tokens, self.token_sequence)

    def matches_text(self, title: str) -> bool:
        return contains_word_sequence(tokenize(title), self.token_sequence)

    def anchor_literals(self) -> Optional[FrozenSet[str]]:
        # Any matching title must contain *every* token; index on the rarest
        # by convention of the index builder — expose all as anchors.
        return frozenset(self.token_sequence)

    def prefilter_keys(self) -> Optional[Tuple[str, FrozenSet[str]]]:
        # Every token must equal a title token; the longest one is the
        # most selective literal.
        literal = _longest_piece(max(self.token_sequence, key=len))
        return ("text", frozenset([literal])) if literal else None

    def describe(self) -> str:
        return f"{self.rule_id}: {self.pattern} -> {self.target_type}"


# ---------------------------------------------------------------------------
# Anchor-literal extraction for regex rules (used by the execution index).
# ---------------------------------------------------------------------------

_WORD_RUN = re.compile(r"[a-z0-9]{2,}")
_EXPANSION_LIMIT = 256


def _split_top_level(pattern: str, separator: str = "|") -> List[str]:
    """Split on a separator at nesting depth zero."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in pattern:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _expand_alternations(pattern: str, limit: int = _EXPANSION_LIMIT) -> Optional[List[str]]:
    """Expand top-level and first-level group alternations, bounded.

    Returns a list of branch strings, or None if the pattern is too complex
    to expand within ``limit`` branches.
    """
    branches = [""]
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "(":
            depth = 1
            scan = index + 1
            while scan < len(pattern) and depth:
                if pattern[scan] == "(":
                    depth += 1
                elif pattern[scan] == ")":
                    depth -= 1
                scan += 1
            if depth:
                return None  # unbalanced; give up
            group = pattern[index + 1 : scan - 1]
            if group.startswith("?:"):
                group = group[2:]
            if group.startswith("?"):
                return None  # lookarounds etc.: bail out
            optional = scan < len(pattern) and pattern[scan] in "?*"
            sub_branches = _split_top_level(group)
            expanded: List[str] = []
            for prefix in branches:
                for sub in sub_branches:
                    expanded.append(prefix + sub)
                if optional:
                    expanded.append(prefix)
            if len(expanded) > limit:
                return None
            branches = expanded
            index = scan
            if optional:
                index += 1
        else:
            branches = [b + char for b in branches]
            index += 1
    return branches


def extract_anchor_literals(pattern: str) -> Optional[FrozenSet[str]]:
    """Anchor-token set for a title regex, or None if none can be proven.

    Every matching title must contain at least one returned token. The
    extractor expands alternations and takes, per branch, the longest literal
    word run not followed by a quantifier that could erase it. If any branch
    yields no literal, there is no sound anchor set.
    """
    branches: List[str] = []
    for top_branch in _split_top_level(pattern):
        expanded = _expand_alternations(top_branch)
        if expanded is None:
            return None
        branches.extend(expanded)
        if len(branches) > _EXPANSION_LIMIT:
            return None
    anchors: Set[str] = set()
    for branch in branches:
        # Drop characters that are optional (followed by ? or *) before
        # looking for literal runs: "rings?" must anchor on "ring".
        cleaned: List[str] = []
        i = 0
        while i < len(branch):
            char = branch[i]
            nxt = branch[i + 1] if i + 1 < len(branch) else ""
            if nxt in ("?", "*"):
                cleaned.append(" ")
                i += 2
                continue
            if char in {".", "+", "\\", "[", "]", "{", "}", "^", "$"}:
                cleaned.append(" ")
                i += 1
                continue
            cleaned.append(char)
            i += 1
        words = _WORD_RUN.findall("".join(cleaned).lower())
        if not words:
            return None
        anchors.add(max(words, key=len))
    return frozenset(anchors)


# ---------------------------------------------------------------------------
# Required literals of a regex (the sound prefilter keys of RuleSet.apply).
# ---------------------------------------------------------------------------

_REPEATS = (_sre.MAX_REPEAT, _sre.MIN_REPEAT)


def _longest_piece(run: str) -> str:
    """The longest space-free piece of ``run`` (first on ties)."""
    return max(run.split(" "), key=len)


def _group_ignores_case(ignore_case: bool, add_flags: int, del_flags: int) -> bool:
    flag = _sre.SRE_FLAG_IGNORECASE
    return (ignore_case or bool(add_flags & flag)) and not del_flags & flag


def _inline_groups(items, ignore_case: bool):
    """Parsed items with groups that keep the case mode spliced in."""
    for op, arg in items.data:  # the list itself: SubPattern indexes in Python
        if op == _sre.SUBPATTERN and _group_ignores_case(ignore_case, arg[1], arg[2]) == ignore_case:
            yield from _inline_groups(arg[3], ignore_case)
        else:
            yield op, arg


def _literal_sets(items, ignore_case: bool) -> List[FrozenSet[str]]:
    """Literal sets of a parsed sequence: every match contains a member of each."""
    sets: List[FrozenSet[str]] = []
    run: List[str] = []

    def flush() -> None:
        piece = _longest_piece("".join(run))
        if piece:
            sets.append(frozenset([piece]))
        run.clear()

    for op, arg in _inline_groups(items, ignore_case):
        if op == _sre.LITERAL and not ignore_case:
            run.append(chr(arg))
            continue
        flush()
        if op == _sre.SUBPATTERN:  # a group that switches case mode
            sets.extend(_literal_sets(arg[3], _group_ignores_case(ignore_case, arg[1], arg[2])))
        elif op == _sre.BRANCH:
            per_branch = [_best_literal_set(_literal_sets(b, ignore_case)) for b in arg[1]]
            if all(per_branch):
                sets.append(frozenset().union(*per_branch))
        elif op in _REPEATS and arg[0] >= 1:
            sets.extend(_literal_sets(arg[2], ignore_case))
    flush()
    return sets


def _best_literal_set(sets: List[FrozenSet[str]]) -> Optional[FrozenSet[str]]:
    """The set whose shortest literal is longest, then the smallest set."""
    return max(sets, key=lambda s: (min(map(len, s)), -len(s)), default=None)


def required_literals(pattern: str) -> Optional[FrozenSet[str]]:
    """Literals one of which every match of ``pattern``'s title regex
    contains, or None.

    Walks the parsed regex. Only non-optional runs of literal characters
    count: ``?``, ``*`` and ``{0,n}``, character classes, escapes such as
    ``\\d`` and assertions break a run, and case-insensitive parts yield
    nothing. An alternation yields the union of one literal set per
    branch, or nothing when a branch has none; a repeat with a minimum of
    at least one yields its body's sets. Each run is split at spaces and
    its longest piece kept, so no literal contains a space.

    The rule's own pattern is parsed, not the :func:`compile_title_regex`
    wrapping: the wrapping adds only assertions and a non-capturing group,
    which yield no literal, and parsing about half the text cuts the cost
    of a rule set's first prefilter build by about 40%. A pattern that only parses inside
    the wrapping yields None.

    >>> sorted(required_literals(r"5g.*phones?"))
    ['phone']
    >>> sorted(required_literals(r"(?:tv|monitor)s?"))
    ['monitor', 'tv']
    >>> required_literals(r"\\d+(?i:gb)") is None
    True
    """
    try:
        parsed = _sre_parse.parse(pattern)
    except re.error:
        return None
    ignore_case = bool(parsed.state.flags & _sre.SRE_FLAG_IGNORECASE)
    return _best_literal_set(_literal_sets(parsed, ignore_case))
