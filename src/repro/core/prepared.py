"""Prepared item views: tokenize once, match many.

Section 4's "Rule Execution and Optimization" challenge is dominated by
per-evaluation redundancy: industrial deployments run thousands of rules
over millions of items, and the naive formulation re-normalizes and
re-tokenizes each title once per *rule* instead of once per *item*. A
:class:`PreparedItem` wraps a :class:`~repro.catalog.types.ProductItem`
with every derived view the execution stack needs — normalized title,
token lists with and without stop words, token set, plural-expanded
anchor-token set, lowercased attribute map — each computed lazily exactly
once and shared by every rule evaluation and by the rule index.

PreparedItem also duck-types the read surface of ``ProductItem``
(``title``, ``attribute(...)``, ``has_attribute(...)``, ...) so it can be
threaded through code written against raw items (the Chimera stages, rule
clauses, the gate keeper) without those layers caring which they hold.

For the partitioned executor, :meth:`PreparedItem.to_payload` /
:meth:`PreparedItem.from_payload` ship the precomputed token views to
cluster workers so shards do not re-tokenize either.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.types import ProductItem
from repro.utils.text import (
    STOPWORDS,
    expand_plural_singulars,
    normalize_text,
    tokenize_cached,
)

_UNSET = object()


class PreparedItem:
    """A product item plus its lazily-memoized derived text views."""

    __slots__ = (
        "item",
        "_normalized_title",
        "_tokens",
        "_tokens_with_stopwords",
        "_token_set",
        "_anchor_tokens",
        "_match_text",
        "_attributes_lower",
    )

    def __init__(self, item: ProductItem):
        self.item = item
        self._normalized_title: Any = _UNSET
        self._tokens: Any = _UNSET
        self._tokens_with_stopwords: Any = _UNSET
        self._token_set: Any = _UNSET
        self._anchor_tokens: Any = _UNSET
        self._match_text: Any = _UNSET
        self._attributes_lower: Any = _UNSET

    # -- ProductItem read surface (duck-typed passthrough) ----------------------

    @property
    def item_id(self) -> str:
        return self.item.item_id

    @property
    def title(self) -> str:
        return self.item.title

    @property
    def attributes(self) -> Mapping[str, str]:
        return self.item.attributes

    @property
    def true_type(self) -> str:
        return self.item.true_type

    @property
    def vendor(self) -> str:
        return self.item.vendor

    @property
    def description(self) -> str:
        return self.item.description

    @property
    def attribute_map(self) -> Dict[str, str]:
        """Attributes keyed by lowercased name (first spelling wins)."""
        if self._attributes_lower is _UNSET:
            lowered: Dict[str, str] = {}
            for key, value in self.item.attributes.items():
                lowered.setdefault(key.lower(), value)
            self._attributes_lower = lowered
        return self._attributes_lower

    def attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive attribute lookup via a one-time lowered map."""
        return self.attribute_map.get(name.lower(), default)

    def has_attribute(self, name: str) -> bool:
        return self.attribute(name) is not None

    # -- derived text views (each computed at most once) ------------------------

    @property
    def normalized_title(self) -> str:
        if self._normalized_title is _UNSET:
            self._normalized_title = normalize_text(self.item.title)
        return self._normalized_title

    @property
    def tokens(self) -> Tuple[str, ...]:
        """Title tokens with stop words removed (sequence-rule alphabet).

        Derived by filtering :attr:`tokens_with_stopwords` (identical to
        ``tokenize(title)`` since stop-word removal is the tokenizer's last
        step) so each title is regex-tokenized only once.
        """
        if self._tokens is _UNSET:
            self._tokens = tuple(
                t for t in self.tokens_with_stopwords if t not in STOPWORDS
            )
        return self._tokens

    @property
    def tokens_with_stopwords(self) -> Tuple[str, ...]:
        """All title tokens (regex rules match over these)."""
        if self._tokens_with_stopwords is _UNSET:
            self._tokens_with_stopwords = tokenize_cached(self.item.title, False)
        return self._tokens_with_stopwords

    @property
    def token_set(self) -> FrozenSet[str]:
        if self._token_set is _UNSET:
            self._token_set = frozenset(self.tokens_with_stopwords)
        return self._token_set

    @property
    def anchor_tokens(self) -> FrozenSet[str]:
        """Token set plus crude singular forms — the index-probe alphabet."""
        if self._anchor_tokens is _UNSET:
            self._anchor_tokens = expand_plural_singulars(self.token_set)
        return self._anchor_tokens

    @property
    def match_text(self) -> str:
        """The token-joined title string regex rules search."""
        if self._match_text is _UNSET:
            self._match_text = " ".join(self.tokens_with_stopwords)
        return self._match_text

    def warm(self, anchors: bool = True) -> "PreparedItem":
        """Force the hot views now (so timing splits attribute the cost)."""
        self.tokens
        self.match_text
        if anchors:
            self.anchor_tokens
        return self

    # -- shard shipping ----------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """A picklable payload carrying the item and its token views.

        Deliberately minimal — the item record plus the *unfiltered* token
        tuple only. The stop-word-filtered view is a pure function of it
        and is rederived on the worker, so shard payload size stays
        O(items in the shard) and carries no references back to the parent
        catalog, ruleset, or executor (asserted by the pickle-size
        regression test).
        """
        return {
            "item": self.item,
            "tokens_with_stopwords": self.tokens_with_stopwords,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PreparedItem":
        """Rebuild a prepared item on a worker without re-tokenizing."""
        prepared = cls(payload["item"])
        tokens_ws = tuple(payload["tokens_with_stopwords"])
        prepared._tokens_with_stopwords = tokens_ws
        prepared._tokens = tuple(t for t in tokens_ws if t not in STOPWORDS)
        return prepared

    def __repr__(self) -> str:
        return f"<PreparedItem {self.item.item_id!r}>"


ItemLike = Union[ProductItem, PreparedItem]

# A shared prepared-item cache is a plain mutable mapping item_id -> PreparedItem.
# One cache threaded through DataIndex, RuleIndex probing, and the executors
# means each item is tokenized once per *process*, not once per component.
PreparedCache = Dict[str, PreparedItem]


def prepare(item: ItemLike) -> PreparedItem:
    """Wrap ``item`` as a PreparedItem (idempotent on prepared input)."""
    if isinstance(item, PreparedItem):
        return item
    return PreparedItem(item)


def prepare_cached(item: ItemLike, cache: Optional[PreparedCache]) -> PreparedItem:
    """Prepare ``item``, consulting/populating a shared ``cache`` by item_id.

    With ``cache=None`` this is just :func:`prepare`. An already-prepared
    input wins over a cache entry (its views may be warmer) and is stored
    back so later callers share it. A cache entry wrapping a *different*
    record under the same item_id (a re-listing with new content) is
    stale and gets re-prepared — an id collision must never serve another
    item's token views.
    """
    if cache is None:
        return prepare(item)
    if isinstance(item, PreparedItem):
        cache[item.item_id] = item
        return item
    prepared = cache.get(item.item_id)
    if prepared is None or (prepared.item is not item and prepared.item != item):
        prepared = PreparedItem(item)
        cache[item.item_id] = prepared
    return prepared


def prepare_all(
    items: Iterable[ItemLike], cache: Optional[PreparedCache] = None
) -> List[PreparedItem]:
    """Prepare a batch, reusing any already-prepared members.

    ``cache`` (item_id -> PreparedItem), when given, is consulted before
    preparing and populated with every result, so repeated runs over
    overlapping corpora tokenize each item at most once overall.
    """
    return [prepare_cached(item, cache) for item in items]
