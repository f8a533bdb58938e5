"""Reference PATTERN-BREAKER: the ``Pattern``-object loop (test only).

This is the level-wise loop the library ran before its frontier became
array-native (:mod:`repro.core.lattice`), kept verbatim so the property
and regression tests can pin the array frontier to it: the same MUP sets
and the same ``nodes_generated`` / ``pruned`` / ``coverage_evaluations``
counters, on every engine.  Each candidate is a hashable ``Pattern``; the
parent prune walks ``pattern.parents()`` against a set of the previous
level's covered patterns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro._util import SearchStats, Stopwatch
from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineSpec
from repro.core.engine.base import Mask
from repro.core.mups.base import MupResult
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset


def reference_pattern_breaker(
    dataset: Dataset,
    threshold: int,
    max_level: Optional[int] = None,
    oracle: Optional[CoverageOracle] = None,
    engine: EngineSpec = None,
    use_masks: bool = True,
) -> MupResult:
    """Run PATTERN-BREAKER with a ``Dict[Pattern, mask]`` frontier.

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
    space = PatternSpace.for_dataset(dataset)
    oracle = oracle or CoverageOracle(dataset, engine=engine)
    stats = SearchStats()
    watch = Stopwatch()
    depth = space.d if max_level is None else min(max_level, space.d)

    root = space.root()
    mups = []
    # Frontier entries: pattern -> match mask (or None when masks are off).
    frontier: Dict[Pattern, Optional[Mask]] = {
        root: oracle.full_mask() if use_masks else None
    }
    covered_prev: set = set()

    for level in range(0, depth + 1):
        if not frontier:
            break
        # Prune candidates whose parents were uncovered or pruned, then
        # evaluate the whole surviving frontier in one batched pass.
        survivors: List[Tuple[Pattern, Optional[Mask]]] = []
        for pattern, mask in frontier.items():
            stats.nodes_generated += 1
            if level > 0:
                pruned = False
                for parent in pattern.parents():
                    if parent not in covered_prev:
                        pruned = True
                        break
                if pruned:
                    stats.pruned += 1
                    continue
            survivors.append((pattern, mask))
        if use_masks:
            counts = oracle.coverage_of_masks([mask for _, mask in survivors])
        else:
            counts = oracle.coverage_many([pattern for pattern, _ in survivors])
        stats.coverage_evaluations += len(survivors)

        covered_here: set = set()
        next_frontier: Dict[Pattern, Optional[Mask]] = {}
        for (pattern, mask), count in zip(survivors, counts):
            if count < threshold:
                # Every parent is covered (the prune above guarantees it),
                # so an uncovered candidate here is maximal by definition.
                mups.append(pattern)
                continue
            covered_here.add(pattern)
            if level == depth:
                continue
            start = pattern.rightmost_deterministic() + 1
            for index in range(start, space.d):
                if pattern[index] != X:
                    continue
                if use_masks:
                    family = oracle.restrict_children(mask, index)
                else:
                    family = [None] * space.cardinalities[index]
                for value, child_mask in enumerate(family):
                    child = pattern.with_value(index, value)
                    next_frontier[child] = child_mask
        covered_prev = covered_here
        frontier = next_frontier

    stats.seconds = watch.elapsed()
    return MupResult(tuple(mups), threshold, stats, max_level)
