"""Token-level Aho–Corasick automaton over title token streams.

Section 4's execution challenge ("quickly locate and execute only a small
set of rules") needs the *anchor discovery* step itself to stop being
per-rule work: scanning one item against ten thousand rule anchors must
cost one pass over the item, not ten thousand regex searches. The classic
answer is Aho–Corasick: all patterns compiled into one automaton with
goto/failure links, matched in a single left-to-right walk.

Our alphabet is **tokens**, not characters — rule anchors are whole
normalized tokens ("ring", "ware001s"), and titles arrive as token
tuples. Two practical consequences:

* depth-1 patterns (single anchor token) degenerate to root transitions
  whose failure link is the root — i.e. a hash-set membership test. The
  compiler (:mod:`repro.execution.compiler`) flattens this tier into a
  set intersection per item and never walks the automaton for it.
* depth-2 patterns (adjacent token pairs, from two-word literal phrases)
  flatten into a first-token -> (second-token, pattern) table probed by
  position. Only patterns of depth >= 3 need the general walk below.

This class implements the general automaton (any depth, overlapping
patterns, proper failure/output links) so the compiled layer stays
correct for deep phrase literals, and so the structure is independently
testable. Construction is lazy: patterns can be added/removed freely and
the goto/fail/output tables are (re)built on first scan after a change.
``generation`` bumps on every mutation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = ["TokenAutomaton"]


class TokenAutomaton:
    """Aho–Corasick over a token alphabet with add/remove and lazy builds."""

    def __init__(self) -> None:
        # pattern_id -> token tuple (the live pattern set; the built tables
        # are a pure function of this dict).
        self._patterns: Dict[str, Tuple[str, ...]] = {}
        self._dirty = True
        self.generation = 0
        # Built tables (valid when not dirty):
        self._goto: List[Dict[str, int]] = []
        self._fail: List[int] = []
        self._output: List[Tuple[str, ...]] = []

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern_id: str) -> bool:
        return pattern_id in self._patterns

    @property
    def vocabulary(self) -> Set[str]:
        """Every token appearing in any pattern (a scan gate superset)."""
        vocab: Set[str] = set()
        for tokens in self._patterns.values():
            vocab.update(tokens)
        return vocab

    def add(self, tokens: Sequence[str], pattern_id: str) -> None:
        """Register ``tokens`` (a contiguous phrase) under ``pattern_id``.

        Re-adding an existing id replaces its pattern.
        """
        if not tokens:
            raise ValueError("automaton patterns need at least one token")
        self._patterns[pattern_id] = tuple(tokens)
        self._dirty = True
        self.generation += 1

    def remove(self, pattern_id: str) -> bool:
        """Drop a pattern; True if it was present. O(1) + lazy rebuild."""
        if self._patterns.pop(pattern_id, None) is None:
            return False
        self._dirty = True
        self.generation += 1
        return True

    def pattern(self, pattern_id: str) -> Tuple[str, ...]:
        return self._patterns[pattern_id]

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        """Standard AC construction: trie, then BFS failure/output links."""
        goto: List[Dict[str, int]] = [{}]
        out: List[List[str]] = [[]]
        for pattern_id in sorted(self._patterns):  # deterministic layout
            tokens = self._patterns[pattern_id]
            state = 0
            for token in tokens:
                nxt = goto[state].get(token)
                if nxt is None:
                    goto.append({})
                    out.append([])
                    nxt = len(goto) - 1
                    goto[state][token] = nxt
                state = nxt
            out[state].append(pattern_id)
        fail = [0] * len(goto)
        queue: deque = deque()
        for token, state in goto[0].items():
            fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for token, nxt in goto[state].items():
                queue.append(nxt)
                fallback = fail[state]
                while fallback and token not in goto[fallback]:
                    fallback = fail[fallback]
                fail[nxt] = goto[fallback].get(token, 0)
                if fail[nxt] == nxt:  # a root self-loop, not a suffix link
                    fail[nxt] = 0
                out[nxt].extend(out[fail[nxt]])
        self._goto = goto
        self._fail = fail
        self._output = [tuple(o) for o in out]
        self._dirty = False

    def _ensure_built(self) -> None:
        if self._dirty:
            self._build()

    # -- matching -----------------------------------------------------------------

    def scan(self, tokens: Sequence[str]) -> List[Tuple[str, int]]:
        """All (pattern_id, end_index) occurrences in one pass over ``tokens``."""
        self._ensure_built()
        goto, fail, output = self._goto, self._fail, self._output
        hits: List[Tuple[str, int]] = []
        state = 0
        for index, token in enumerate(tokens):
            while state and token not in goto[state]:
                state = fail[state]
            state = goto[state].get(token, 0)
            if output[state]:
                for pattern_id in output[state]:
                    hits.append((pattern_id, index))
        return hits

    def matching_ids(self, tokens: Sequence[str]) -> Set[str]:
        """The set of pattern ids occurring in ``tokens`` (one pass)."""
        self._ensure_built()
        goto, fail, output = self._goto, self._fail, self._output
        found: Set[str] = set()
        state = 0
        for token in tokens:
            while state and token not in goto[state]:
                state = fail[state]
            state = goto[state].get(token, 0)
            if output[state]:
                found.update(output[state])
        return found

    def gate_tokens(self, choose=min) -> Set[str]:
        """One required token per pattern (default: ``min``, deterministic).

        A title containing any full pattern necessarily contains every one
        of its tokens, so intersecting this set with the title's token set
        is a sound "might anything match?" pre-check before a walk.
        """
        return {choose(tokens) for tokens in self._patterns.values()}
