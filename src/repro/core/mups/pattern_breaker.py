"""PATTERN-BREAKER: the top-down BFS algorithm (§III-C, Algorithm 1).

Starts at the all-``X`` root and moves level by level, breaking covered
patterns into more specific candidates via Rule 1 (each node is generated
exactly once — Theorem 3).  A candidate is pruned without evaluation when
any of its parents was uncovered or itself pruned; an evaluated candidate
with ``cov < τ`` is a MUP (all its parents are covered by construction).

The frontier is array-native (:mod:`repro.core.lattice`): one ``int16``
row per candidate plus its exact mixed-radix key.  Rule 1 children come
from a ``np.repeat`` of the covered rows with one value written per
child, and the parent prune is one membership test of every candidate's
parent keys against the previous level's covered keys.  ``Pattern``
objects are built only for the MUPs returned (and, in the ``use_masks``
ablation, for the candidates counted).

Coverage is evaluated incrementally and in batch: each frontier node
carries its match mask over the unique value combinations, a whole level's
surviving candidates are counted with one ``coverage_of_masks`` pass, and
the child masks of a covered node are produced one sibling family at a
time through the engine's vectorized ``restrict_children`` (Appendix A).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineSpec
from repro.core.engine.base import Mask
from repro.core.lattice import Lattice
from repro.core.mups.base import MupResult, register_algorithm
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset


@register_algorithm("pattern_breaker", query_shape="batch")
def pattern_breaker(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    use_masks: bool = True,
) -> MupResult:
    """Run PATTERN-BREAKER.

    Args:
        dataset: dataset to assess.
        threshold: absolute coverage threshold ``τ``.
        max_level: stop after this level; returns all MUPs with
            ``ℓ(P) <= max_level``.
        oracle: reuse a prebuilt coverage oracle.
        engine: coverage-engine spec (name, ``"auto"``, EngineConfig,
            class, or instance) when no oracle is given.
        use_masks: thread parent match-masks down the tree (Appendix A
            optimization); disable only for the ablation benchmark.
    """
    lattice = Lattice(PatternSpace.for_dataset(dataset).cardinalities)
    oracle = oracle or CoverageOracle(dataset, engine=engine)
    stats = SearchStats()
    watch = Stopwatch()
    depth = lattice.d if max_level is None else min(max_level, lattice.d)

    mups = []
    frontier = lattice.root()
    # Match masks aligned with the frontier rows (unused when masks are off).
    masks: List[Mask] = [oracle.full_mask()] if use_masks else []
    covered_keys = frontier.keys[:0]

    for level in range(0, depth + 1):
        if not len(frontier):
            break
        # Prune candidates whose parents were uncovered or pruned, then
        # evaluate the whole surviving frontier in one batched pass.
        stats.nodes_generated += len(frontier)
        if level > 0:
            survivors = np.flatnonzero(
                lattice.parents_within(frontier, covered_keys)
            )
            stats.pruned += len(frontier) - len(survivors)
            frontier = frontier.take(survivors)
            if use_masks:
                masks = [masks[i] for i in survivors.tolist()]
        if use_masks:
            counts = oracle.coverage_of_masks(masks)
        else:
            counts = oracle.coverage_many(lattice.patterns(frontier.rows))
        stats.coverage_evaluations += len(frontier)

        covered = np.asarray(counts) >= threshold
        # Every parent is covered (the prune above guarantees it), so an
        # uncovered candidate here is maximal by definition.
        mups.extend(lattice.patterns(frontier.rows[~covered]))
        kept = np.flatnonzero(covered)
        frontier = frontier.take(kept)
        covered_keys = frontier.keys
        if level == depth:
            break
        if use_masks:
            parent_masks = [masks[i] for i in kept.tolist()]
            masks = []
            for mask, start in zip(parent_masks, (frontier.last + 1).tolist()):
                for index in range(start, lattice.d):
                    masks.extend(oracle.restrict_children(mask, index))
        frontier = lattice.children(frontier)

    stats.seconds = watch.elapsed()
    return MupResult(tuple(mups), threshold, stats, max_level)
