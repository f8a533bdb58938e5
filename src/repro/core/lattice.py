"""Array-native pattern frontiers for level-wise lattice search (§III-B/C).

A :class:`Frontier` holds one pattern per row of an integer matrix
(``-1`` = ``X``) plus an exact mixed-radix key per pattern::

    key(P) = Σ_i (P[i] + 1) · stride[i],   stride[i] = Π_{j<i} (c_j + 1)

Keys are a bijection over the pattern space, and their arithmetic follows
the graph's edges: specializing an ``X`` at attribute ``i`` to ``v`` adds
``(v + 1) · stride[i]``, so a parent's key is the child's key minus that
term for one deterministic attribute.  Schemas whose node count
``Π (c_i + 1)`` exceeds ``2**63`` split the attributes into runs, one
``int64`` key word per run, and :func:`member` compares whole word tuples.

:class:`Lattice` generates Rule 1 children (Theorem 3: each node exactly
once) and runs the "all parents present" test of a whole level in one
membership pass; ``Pattern`` objects are built only for the rows handed
back to callers (:meth:`Lattice.patterns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.pattern import Pattern, X

#: Node count one key word can hold: keys run from 0 to ``2**63 - 1``.
_WORD_SPAN = 1 << 63


@dataclass(frozen=True)
class Frontier:
    """A set of patterns as arrays.

    Attributes:
        rows: ``(m, d)`` pattern values, ``X`` (= -1) for wildcards.
        keys: ``(m, words)`` ``int64`` mixed-radix keys.
        last: ``(m,)`` right-most deterministic index per row (-1 for the
            root) — where Rule 1 resumes specializing.
    """

    rows: np.ndarray
    keys: np.ndarray
    last: np.ndarray

    def __len__(self) -> int:
        return len(self.last)

    def take(self, index: np.ndarray) -> "Frontier":
        """The rows selected by an index or boolean array, in that order."""
        return Frontier(self.rows[index], self.keys[index], self.last[index])


class Lattice:
    """Key codec and Rule 1 arithmetic for one schema's pattern graph.

    Args:
        cardinalities: ``c_i`` per attribute.
    """

    def __init__(self, cardinalities: Sequence[int]) -> None:
        cards = [int(c) for c in cardinalities]
        self.d = len(cards)
        word = np.zeros(self.d, dtype=np.intp)
        stride = np.ones(self.d, dtype=np.int64)
        words, radix = 0, 1
        for i, c in enumerate(cards):
            if radix * (c + 1) > _WORD_SPAN:
                words, radix = words + 1, 1
            word[i], stride[i] = words, radix
            radix *= c + 1
        #: Number of ``int64`` words per key (1 unless the schema is huge).
        self.words = words + 1
        self._word = word
        self._stride = stride
        fits_int16 = max(cards, default=0) <= np.iinfo(np.int16).max
        self._dtype = np.int16 if fits_int16 else np.int32
        # Every (attribute, value) pair in attribute order: the Rule 1
        # children of a node whose right-most deterministic index is ``r``
        # are this table's suffix from attribute ``r + 1`` on.
        self._child_attribute = np.repeat(np.arange(self.d), cards)
        self._child_value = np.concatenate(
            [np.arange(c, dtype=self._dtype) for c in cards]
        )
        self._first_child = np.concatenate(([0], np.cumsum(cards)))

    def root(self) -> Frontier:
        """The level-0 frontier: the all-``X`` pattern alone."""
        return Frontier(
            np.full((1, self.d), X, dtype=self._dtype),
            np.zeros((1, self.words), dtype=np.int64),
            np.full(1, -1, dtype=np.intp),
        )

    def children(self, frontier: Frontier) -> Frontier:
        """Rule 1 children of every row, ordered by (row, attribute, value)."""
        first = self._first_child[frontier.last + 1]
        counts = self._first_child[-1] - first
        parent = np.repeat(np.arange(len(frontier)), counts)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        slot = np.repeat(first, counts) + offset
        attribute = self._child_attribute[slot]
        value = self._child_value[slot]
        at = np.arange(len(parent))
        rows = frontier.rows[parent]
        rows[at, attribute] = value
        keys = frontier.keys[parent]
        keys[at, self._word[attribute]] += (
            value.astype(np.int64) + 1
        ) * self._stride[attribute]
        return Frontier(rows, keys, attribute)

    def parents_within(self, frontier: Frontier, keys: np.ndarray) -> np.ndarray:
        """Per row: are all of its parents' keys among ``keys``?

        A parent drops one deterministic element, so its key is the row's
        key minus ``(v + 1) · stride`` at that attribute; every parent of
        the whole frontier is tested in one :func:`member` pass.
        """
        row, attribute = np.nonzero(frontier.rows != X)
        parents = frontier.keys[row]
        parents[np.arange(len(row)), self._word[attribute]] -= (
            frontier.rows[row, attribute].astype(np.int64) + 1
        ) * self._stride[attribute]
        missing = row[~member(parents, keys)]
        return np.bincount(missing, minlength=len(frontier)) == 0

    @staticmethod
    def patterns(rows: np.ndarray) -> List[Pattern]:
        """``Pattern`` objects for the given rows (the API boundary)."""
        return [Pattern(values) for values in rows.tolist()]


def member(queries: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per row of ``queries`` ``(q, words)``: does it occur in ``table``?

    One-word keys go through ``np.isin``.  Wider keys are decided by one
    lexicographic sort of both sets together — table rows before equal
    query rows — so a query is present exactly when its run of equal
    tuples starts with a table row.
    """
    if queries.shape[1] == 1:
        return np.isin(queries[:, 0], table[:, 0])
    stacked = np.concatenate([table, queries])
    is_query = np.arange(len(stacked)) >= len(table)
    order = np.lexsort((is_query,) + tuple(stacked[:, ::-1].T))
    ordered = stacked[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    run_has_table = ~is_query[order][starts]
    found = np.empty(len(order), dtype=bool)
    found[order] = run_has_table[np.cumsum(starts) - 1]
    return found[len(table):]
