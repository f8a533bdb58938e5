"""The array frontier of PATTERN-BREAKER against the ``Pattern``-object loop.

:func:`~repro.core.mups.pattern_breaker.pattern_breaker` runs on int16
pattern rows and mixed-radix keys (:mod:`repro.core.lattice`);
``reference_pattern_breaker`` is the loop it replaced, with one hashable
``Pattern`` per candidate and per parent checked.  Over random schemas, on
every registered engine, with and without a level cap and with the mask
threading off, both must return the same MUP set and the same
``nodes_generated`` / ``pruned`` / ``coverage_evaluations`` counters.
The multi-word key membership test is pinned to Python set semantics.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings
from reference_breaker import reference_pattern_breaker

from repro.core.coverage import CoverageOracle
from repro.core.engine import AUTO, ENGINES
from repro.core.lattice import member
from repro.core.mups.pattern_breaker import pattern_breaker
from repro.data.dataset import Dataset, Schema

BACKENDS = tuple(sorted(ENGINES)) + (AUTO,)


def counters(result):
    stats = result.stats
    return stats.nodes_generated, stats.pruned, stats.coverage_evaluations


@st.composite
def search_cases(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    cardinalities = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d)
    )
    n = draw(st.integers(min_value=0, max_value=60))
    rows = [
        [draw(st.integers(min_value=0, max_value=c - 1)) for c in cardinalities]
        for _ in range(n)
    ]
    schema = Schema.of([f"A{i + 1}" for i in range(d)], cardinalities)
    dataset = Dataset(schema, np.asarray(rows, dtype=np.int32).reshape(n, d))
    tau = draw(st.integers(min_value=1, max_value=12))
    max_level = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=d)))
    use_masks = draw(st.booleans())
    return dataset, tau, max_level, use_masks


@given(search_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_array_frontier_matches_reference_loop_on_every_engine(case):
    dataset, tau, max_level, use_masks = case
    for backend in BACKENDS:
        oracle = CoverageOracle(dataset, engine=backend)
        expected = reference_pattern_breaker(
            dataset, tau, max_level=max_level, oracle=oracle, use_masks=use_masks
        )
        actual = pattern_breaker(
            dataset, tau, max_level=max_level, oracle=oracle, use_masks=use_masks
        )
        assert actual.mups == expected.mups, backend
        assert counters(actual) == counters(expected), backend


@st.composite
def key_sets(draw):
    words = draw(st.integers(min_value=1, max_value=3))
    # A tiny alphabet per word forces collisions in every word but one.
    word = st.integers(min_value=-2, max_value=2)
    row = st.tuples(*([word] * words))
    table = draw(st.lists(row, max_size=12, unique=True))
    queries = draw(st.lists(row, max_size=20))
    return words, table, queries


@given(key_sets())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_member_is_row_set_membership(case):
    words, table, queries = case
    as_array = lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, words)
    found = member(as_array(queries), as_array(table))
    assert found.tolist() == [query in set(table) for query in queries]
