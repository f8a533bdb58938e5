"""Array-native lattice frontiers: key encoding, Rule 1 and wide schemas."""

import numpy as np
import pytest
from reference_breaker import reference_pattern_breaker

from repro.core import pattern as pattern_module
from repro.core.coverage import CoverageOracle
from repro.core.lattice import Lattice, member
from repro.core.mups.pattern_breaker import pattern_breaker
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset, Schema


def direct_keys(cardinalities, rows):
    """Σ (v+1)·stride per word, from the definition (Python ints)."""
    keys = []
    for row in rows:
        words, radix, key = [], 1, 0
        for value, c in zip(row, cardinalities):
            if radix * (c + 1) > 1 << 63:
                words.append(key)
                radix, key = 1, 0
            key += (value + 1) * radix
            radix *= c + 1
        keys.append(words + [key])
    return keys


class TestKeys:
    def test_eight_binary_attributes_use_one_word(self):
        assert Lattice([2] * 8).words == 1

    def test_wide_schema_splits_keys_over_words(self):
        # 3**41 > 2**63: the node count no longer fits one int64.
        assert Lattice([2] * 41).words == 2

    def test_keys_are_a_bijection_over_the_space(self):
        cardinalities = (2, 3, 1, 2)
        lattice = Lattice(cardinalities)
        frontier, seen = lattice.root(), []
        while len(frontier):
            seen.append(frontier)
            frontier = lattice.children(frontier)
        rows = np.concatenate([f.rows for f in seen])
        keys = np.concatenate([f.keys for f in seen])
        assert len(rows) == PatternSpace(cardinalities).node_count()
        assert len(np.unique(keys[:, 0])) == len(rows)
        assert keys.tolist() == direct_keys(cardinalities, rows.tolist())

    def test_wide_keys_match_the_definition(self):
        cardinalities = [2] * 41
        lattice = Lattice(cardinalities)
        level2 = lattice.children(lattice.children(lattice.root()))
        assert level2.keys.tolist() == direct_keys(
            cardinalities, level2.rows.tolist()
        )


class TestRuleOne:
    def test_children_follow_the_pattern_space_order(self):
        space = PatternSpace([2, 3, 2])
        lattice = Lattice(space.cardinalities)
        level1 = lattice.children(lattice.root())
        expected = list(space.rule1_children(space.root()))
        assert Lattice.patterns(level1.rows) == expected
        assert level1.rows.dtype == np.int16
        level2 = lattice.children(level1)
        expected = [c for p in expected for c in space.rule1_children(p)]
        assert Lattice.patterns(level2.rows) == expected
        assert level2.last.tolist() == [
            p.rightmost_deterministic() for p in expected
        ]

    def test_rows_widen_past_int16_values(self):
        lattice = Lattice([40_000, 2])
        level1 = lattice.children(lattice.root())
        assert level1.rows.dtype == np.int32
        assert level1.rows[:, 0].max() == 39_999

    def test_parents_within_needs_every_parent(self):
        lattice = Lattice([2, 2, 2])
        level1 = lattice.children(lattice.root())
        level2 = lattice.children(level1)
        # Drop pattern "1XX": its children keep one covered parent only.
        keep = [p != "1XX" for p in map(str, Lattice.patterns(level1.rows))]
        within = lattice.parents_within(level2, level1.keys[keep])
        for pattern, ok in zip(Lattice.patterns(level2.rows), within):
            assert ok == (pattern[0] != 1)


def test_member_handles_empty_sides():
    empty = np.zeros((0, 2), dtype=np.int64)
    some = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert member(empty, some).tolist() == []
    assert member(some, empty).tolist() == [False, False]
    assert member(some[:, :1], empty[:, :1]).tolist() == [False, False]


def wide_dataset(seed=5, n=240, d=41):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(n, d))
    # Skew two attributes so level-1 MUPs exist.  Attribute 40 is the only
    # one in the second key word (3**39 < 2**63 < 3**40), so pruning its
    # uncovered value's children needs both words of the parent keys.
    rows[: n // 2, 3] = 0
    rows[: 4 * n // 5, d - 1] = 0
    return Dataset(Schema.binary(d), rows.astype(np.int32))


@pytest.mark.parametrize("engine", ["dense", "packed"])
@pytest.mark.parametrize("use_masks", [True, False])
def test_wide_schema_matches_reference_loop(engine, use_masks):
    dataset = wide_dataset()
    oracle = CoverageOracle(dataset, engine=engine)
    expected = reference_pattern_breaker(
        dataset, 70, max_level=2, oracle=oracle, use_masks=use_masks
    )
    actual = pattern_breaker(
        dataset, 70, max_level=2, oracle=oracle, use_masks=use_masks
    )
    assert Lattice(dataset.cardinalities).words == 2
    assert {p.level for p in expected.mups} == {1, 2}
    assert actual.mups == expected.mups
    assert actual.stats.as_dict() | {"seconds": 0} == (
        expected.stats.as_dict() | {"seconds": 0}
    )


def test_patterns_are_built_only_for_mups(monkeypatch, example1_dataset):
    oracle = CoverageOracle(example1_dataset)
    built = []
    original = pattern_module.Pattern.__init__

    def counting_init(self, values):
        built.append(1)
        original(self, values)

    monkeypatch.setattr(pattern_module.Pattern, "__init__", counting_init)
    result = pattern_breaker(example1_dataset, 1, oracle=oracle)
    assert [str(p) for p in result.mups] == ["1XX"]
    assert len(built) == len(result.mups)
