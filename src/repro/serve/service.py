"""The serving facade: coverage-as-a-service request handlers.

:class:`CoverageService` owns the four serving pieces — warm-engine
registry, request batcher, admission controller, cross-request result
cache — and exposes one async method per endpoint.  The HTTP layer
(:mod:`repro.serve.http`) is a thin JSON shim over these methods, so tests
and the benchmark harness can drive the full serving semantics in-process
without sockets.

Request lifecycle:

* every read captures ``entry.snapshot`` once and answers entirely from it
  (snapshot isolation across concurrent deliveries);
* point coverage queries check the result cache, then ride the batcher;
* heavy requests (register / identify / enhance / deliver) pass admission
  control and run in the default executor so the event loop keeps
  accepting traffic.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.hierarchy import HierarchyStack, find_mups_hierarchical
from repro.analysis.sweep import (
    SweepResult,
    parse_tau_range,
    sweep_mups,
    threshold_sensitivity,
)
from repro.core.coverage import max_covered_level
from repro.core.enhancement.expansion import uncovered_at_level
from repro.core.enhancement.greedy import greedy_cover
from repro.core.mups.base import ALGORITHMS, find_mups
from repro.core.pattern import Pattern, X
from repro.core.pattern_graph import PatternSpace
from repro.data.dataset import Dataset
from repro.data.hierarchy import AttributeHierarchy
from repro.exceptions import ReproError, ServeError
from repro.serve.admission import AdmissionController
from repro.serve.batcher import CoverageBatcher
from repro.serve.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.registry import EngineRegistry, Snapshot


def _parse_pattern(value: Any, space: PatternSpace) -> Pattern:
    """A wire pattern: compact string (``"1XX0"``) or value list.

    Lists use ``null`` (JSON) / ``None`` for the wildcard, supporting
    cardinalities past 10 where the compact form is ambiguous.  Every
    deterministic value must lie inside the dataset's schema.
    """
    try:
        if isinstance(value, str):
            pattern = Pattern.from_string(value)
        elif isinstance(value, (list, tuple)):
            pattern = Pattern.of(*value)
        else:
            raise ServeError(
                "bad_pattern",
                f"pattern must be a compact string or a value list, "
                f"got {value!r}",
            )
        return space.validate(pattern)
    except (ReproError, TypeError, ValueError) as error:
        if isinstance(error, ServeError):
            raise
        raise ServeError("bad_pattern", str(error)) from error


def _pattern_values(pattern: Pattern) -> List[Optional[int]]:
    """JSON form of a pattern: value list with ``None`` wildcards."""
    return [None if v == X else int(v) for v in pattern]


class CoverageService:
    """Answers serving requests over a registry of warm engines."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = EngineRegistry(
            config.engine,
            max_entries=config.registry_max_entries,
            max_bytes=config.registry_max_bytes,
        )
        self.batcher = CoverageBatcher(
            config.batch_window_seconds, config.max_batch
        )
        self.cache = ResultCache(config.result_cache_size)
        self.admission = AdmissionController(
            config.engine,
            memory_budget_bytes=config.memory_budget_bytes,
            latency_budget_seconds=config.latency_budget_ms / 1000.0,
            max_concurrent=config.max_concurrent,
            max_queue=config.max_queue,
        )

    # ------------------------------------------------------------------
    # dataset lifecycle
    # ------------------------------------------------------------------
    async def register_dataset(
        self,
        rows: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
    ) -> Dict:
        """Build and warm an engine for the posted rows."""
        if not rows:
            raise ServeError("bad_request", "rows must be a non-empty list")
        loop = asyncio.get_running_loop()
        try:
            dataset = await loop.run_in_executor(
                None, lambda: Dataset.from_rows(rows, names=names)
            )
        except (ReproError, TypeError, ValueError) as error:
            raise ServeError("bad_request", f"bad rows payload: {error}")
        plan = await loop.run_in_executor(
            None, self.admission.check_budget, dataset
        )
        async with self.admission.heavy():
            entry, created = await loop.run_in_executor(
                None, self.registry.register, dataset
            )
        return {
            "dataset": entry.key,
            "fingerprint": entry.snapshot.fingerprint,
            "created": created,
            "rows": int(entry.snapshot.dataset.n),
            "d": int(entry.snapshot.dataset.d),
            "backend": type(entry.snapshot.oracle.engine).name,
            "index_nbytes": entry.nbytes,
            "plan": list(plan.rationale),
        }

    async def register_spill(self, spill_path: str) -> Dict:
        """Attach an existing spill directory as a warm dataset entry.

        The warm-start path behind ``repro serve --preload <dir>``: a
        restart re-attaches the spilled shard files (manifest- and
        fingerprint-validated) instead of re-serializing the index.
        """
        loop = asyncio.get_running_loop()
        async with self.admission.heavy():
            try:
                entry, created = await loop.run_in_executor(
                    None, self.registry.register_spill, spill_path
                )
            except (ReproError, OSError) as error:
                raise ServeError(
                    "bad_request", f"cannot attach spill dir: {error}"
                )
        return {
            "dataset": entry.key,
            "fingerprint": entry.snapshot.fingerprint,
            "created": created,
            "rows": int(entry.snapshot.dataset.n),
            "d": int(entry.snapshot.dataset.d),
            "backend": type(entry.snapshot.oracle.engine).name,
            "index_nbytes": entry.nbytes,
            "plan": ["attached existing spill directory (warm start)"],
        }

    def _snapshot(self, dataset_key: Any) -> Snapshot:
        if not isinstance(dataset_key, str):
            raise ServeError(
                "bad_request", f"dataset must be a fingerprint string"
            )
        return self.registry.get(dataset_key).snapshot

    # ------------------------------------------------------------------
    # point coverage: label
    # ------------------------------------------------------------------
    async def label(
        self,
        dataset_key: str,
        patterns: Sequence[Any],
        threshold: Optional[int] = None,
    ) -> Dict:
        """Coverage (and, with τ, covered flags) of the posted patterns.

        Each pattern resolves independently through the result cache and
        the batcher, so concurrent ``label`` calls across clients coalesce
        into shared engine passes.
        """
        snapshot = self._snapshot(dataset_key)
        if not isinstance(patterns, (list, tuple)) or not patterns:
            raise ServeError(
                "bad_request", "patterns must be a non-empty list"
            )
        space = PatternSpace.for_dataset(snapshot.dataset)
        parsed = [_parse_pattern(p, space) for p in patterns]
        if len(parsed) == 1:  # point queries skip the gather machinery
            counts = [await self._cached_coverage(snapshot, parsed[0])]
        else:
            counts = await asyncio.gather(
                *(self._cached_coverage(snapshot, p) for p in parsed)
            )
        body: Dict[str, Any] = {
            "dataset": dataset_key,
            "fingerprint": snapshot.fingerprint,
            "patterns": [_pattern_values(p) for p in parsed],
            "coverage": [int(c) for c in counts],
            "total": int(snapshot.dataset.n),
        }
        if threshold is not None:
            threshold = int(threshold)
            body["threshold"] = threshold
            body["covered"] = [bool(c >= threshold) for c in counts]
        return body

    async def _cached_coverage(
        self, snapshot: Snapshot, pattern: Pattern
    ) -> int:
        key = ("cov", snapshot.fingerprint, pattern.values)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        count = await self.batcher.coverage(snapshot, pattern)
        self.cache.put(key, count)
        return count

    # ------------------------------------------------------------------
    # identify / enhance
    # ------------------------------------------------------------------
    def _check_identify_args(self, threshold: Any, algorithm: str) -> int:
        try:
            threshold = int(threshold)
        except (TypeError, ValueError):
            raise ServeError(
                "bad_request", f"threshold must be an integer, got {threshold!r}"
            )
        if threshold < 1:
            raise ServeError(
                "bad_request", f"threshold must be >= 1, got {threshold}"
            )
        if algorithm not in ALGORITHMS:
            raise ServeError(
                "bad_request",
                f"unknown algorithm {algorithm!r}; "
                f"available: {sorted(ALGORITHMS)}",
            )
        return threshold

    async def identify(
        self,
        dataset_key: str,
        threshold: Any,
        algorithm: str = "deepdiver",
    ) -> Dict:
        """MUPs of the dataset at τ, memoized per content fingerprint."""
        snapshot = self._snapshot(dataset_key)
        threshold = self._check_identify_args(threshold, algorithm)
        key = ("mups", snapshot.fingerprint, threshold, algorithm)
        mups = self.cache.get(key)
        if mups is None:
            entry = self.registry.get(dataset_key)
            index = entry.index
            if (
                index is not None
                and index.threshold == threshold
                and index.dataset is snapshot.dataset
            ):
                # The delivery index already maintains this τ's MUP set.
                mups = index.mups()
            else:
                loop = asyncio.get_running_loop()
                async with self.admission.heavy():
                    result = await loop.run_in_executor(
                        None,
                        lambda: find_mups(
                            snapshot.dataset,
                            threshold=threshold,
                            algorithm=algorithm,
                            oracle=snapshot.oracle,
                        ),
                    )
                mups = result.mups
            self.cache.put(key, mups)
        return {
            "dataset": dataset_key,
            "fingerprint": snapshot.fingerprint,
            "threshold": threshold,
            "algorithm": algorithm,
            "mups": [_pattern_values(p) for p in mups],
            "mup_strings": [str(p) for p in mups],
            "count": len(mups),
            "max_covered_level": max_covered_level(
                mups, d=snapshot.dataset.d
            ),
        }

    async def enhance(
        self,
        dataset_key: str,
        threshold: Any,
        level: Any,
        algorithm: str = "deepdiver",
    ) -> Dict:
        """Greedy acquisition plan reaching covered level λ."""
        snapshot = self._snapshot(dataset_key)
        threshold = self._check_identify_args(threshold, algorithm)
        try:
            level = int(level)
        except (TypeError, ValueError):
            raise ServeError(
                "bad_request", f"level must be an integer, got {level!r}"
            )
        if not 0 <= level <= snapshot.dataset.d:
            raise ServeError(
                "bad_request",
                f"level must be in [0, {snapshot.dataset.d}], got {level}",
            )
        key = ("enhance", snapshot.fingerprint, threshold, level, algorithm)
        cached = self.cache.get(key)
        if cached is not None:
            return dict(cached)
        identified = await self.identify(dataset_key, threshold, algorithm)
        mups = [
            Pattern.of(*values) for values in identified["mups"]
        ]
        loop = asyncio.get_running_loop()
        async with self.admission.heavy():
            body = await loop.run_in_executor(
                None, self._plan_enhancement, snapshot, mups, level
            )
        body.update(
            dataset=dataset_key,
            fingerprint=snapshot.fingerprint,
            threshold=threshold,
            level=level,
        )
        self.cache.put(key, dict(body))
        return body

    def _plan_enhancement(
        self, snapshot: Snapshot, mups: List[Pattern], level: int
    ) -> Dict:
        space = PatternSpace.for_dataset(snapshot.dataset)
        targets = uncovered_at_level(mups, space, level)
        plan = greedy_cover(targets, space, engine=self.config.engine)
        return {
            "targets": len(targets),
            "combinations": [list(map(int, combo)) for combo in plan.combinations],
            "unhittable": [_pattern_values(p) for p in plan.unhittable],
        }

    # ------------------------------------------------------------------
    # threshold sweeps
    # ------------------------------------------------------------------
    async def sweep(
        self,
        dataset_key: str,
        thresholds: Any,
        attributes: Optional[Sequence[Any]] = None,
        bootstrap: Any = 0,
        seed: Any = 0,
        max_level: Optional[Any] = None,
    ) -> Dict:
        """Amortized τ-range sweep with the sensitivity report.

        One traversal classifies every queried τ; results are memoized in
        the result cache under a key that embeds the snapshot's *content
        fingerprint* (plus the τ range, the attribute projection, and the
        bootstrap settings) — never the mutable dataset alias — so a
        delivery both makes stale sweeps unreachable and lets
        :meth:`deliver`'s ``invalidate(old_fingerprint)`` reclaim them.
        """
        snapshot = self._snapshot(dataset_key)
        taus = self._parse_thresholds(thresholds)
        attrs = self._parse_attributes(attributes, snapshot.dataset)
        try:
            bootstrap = int(bootstrap)
            seed = int(seed)
            max_level = None if max_level is None else int(max_level)
        except (TypeError, ValueError):
            raise ServeError(
                "bad_request",
                "bootstrap, seed, and max_level must be integers",
            )
        if bootstrap < 0:
            raise ServeError(
                "bad_request", f"bootstrap must be >= 0, got {bootstrap}"
            )
        key = (
            "sweep",
            snapshot.fingerprint,
            taus,
            attrs,
            max_level,
            bootstrap,
            seed,
        )
        cached = self.cache.get(key)
        if cached is not None:
            return dict(cached)
        loop = asyncio.get_running_loop()
        async with self.admission.heavy():
            body = await loop.run_in_executor(
                None,
                lambda: self._run_sweep(
                    snapshot, taus, attrs, max_level, bootstrap, seed
                ),
            )
        body.update(dataset=dataset_key, fingerprint=snapshot.fingerprint)
        self.cache.put(key, dict(body))
        return body

    def _parse_thresholds(self, thresholds: Any) -> tuple:
        try:
            if isinstance(thresholds, str):
                return parse_tau_range(thresholds)
            if isinstance(thresholds, int):
                return (self._check_identify_args(thresholds, "deepdiver"),)
            if isinstance(thresholds, (list, tuple)) and thresholds:
                return tuple(
                    sorted({int(t) for t in thresholds})
                )
        except ReproError as error:
            raise ServeError("bad_request", str(error)) from error
        except (TypeError, ValueError):
            pass
        raise ServeError(
            "bad_request",
            f"thresholds must be a non-empty integer list or a "
            f"'lo:hi[:step]' range string, got {thresholds!r}",
        )

    def _parse_attributes(
        self, attributes: Optional[Sequence[Any]], dataset: Dataset
    ) -> Optional[tuple]:
        if attributes is None:
            return None
        if not isinstance(attributes, (list, tuple)) or not attributes:
            raise ServeError(
                "bad_request", "attributes must be a non-empty list"
            )
        indices = []
        for item in attributes:
            if isinstance(item, str):
                try:
                    indices.append(dataset.schema.index_of(item))
                except ReproError as error:
                    raise ServeError("bad_request", str(error)) from error
            else:
                try:
                    index = int(item)
                except (TypeError, ValueError):
                    raise ServeError(
                        "bad_request",
                        f"attribute {item!r} is neither a name nor an index",
                    )
                if not 0 <= index < dataset.d:
                    raise ServeError(
                        "bad_request",
                        f"attribute index {index} out of range for "
                        f"d={dataset.d}",
                    )
                indices.append(index)
        return tuple(sorted(set(indices)))

    # ------------------------------------------------------------------
    # hierarchy: generalization-lattice MUPs
    # ------------------------------------------------------------------
    async def hierarchy(
        self,
        dataset_key: str,
        hierarchies: Any,
        threshold: Any,
        max_level: Optional[Any] = None,
        remedies: Any = True,
    ) -> Dict:
        """Hierarchical MUP search over a stack of generalization chains.

        Coarsest rollup first, drilling down only into uncovered regions;
        each finest-level MUP is reported with its most specific covered
        generalization.  Cached per content fingerprint like ``/sweep`` —
        the key embeds the chains, τ, and the level cap, so deliveries
        make stale results unreachable and reclaimable.
        """
        snapshot = self._snapshot(dataset_key)
        stack, canonical = self._parse_hierarchies(
            hierarchies, snapshot.dataset
        )
        threshold = self._check_identify_args(threshold, "deepdiver")
        try:
            max_level = None if max_level is None else int(max_level)
        except (TypeError, ValueError):
            raise ServeError("bad_request", "max_level must be an integer")
        remedies = bool(remedies)
        key = (
            "hierarchy",
            snapshot.fingerprint,
            canonical,
            threshold,
            max_level,
            remedies,
        )
        cached = self.cache.get(key)
        if cached is not None:
            return dict(cached)
        loop = asyncio.get_running_loop()
        async with self.admission.heavy():
            body = await loop.run_in_executor(
                None,
                lambda: self._run_hierarchy(
                    snapshot, stack, threshold, max_level, remedies
                ),
            )
        body.update(dataset=dataset_key, fingerprint=snapshot.fingerprint)
        self.cache.put(key, dict(body))
        return body

    def _parse_hierarchies(
        self, hierarchies: Any, dataset: Dataset
    ) -> tuple:
        """Wire chains → validated stack plus a hashable cache-key form.

        Format: ``{"attr": [level, ...]}`` where each level maps the
        attribute's base codes to group codes — a plain integer list or
        ``{"groups": [...], "labels": [...]}``.
        """
        if not isinstance(hierarchies, dict) or not hierarchies:
            raise ServeError(
                "bad_request",
                "hierarchies must be a non-empty object mapping attribute "
                "names to lists of levels",
            )
        chains = {}
        canonical = []
        try:
            for name, levels in sorted(hierarchies.items()):
                if not isinstance(levels, (list, tuple)):
                    raise ServeError(
                        "bad_request",
                        f"hierarchy chain for {name!r} must be a list",
                    )
                chain = []
                key_levels = []
                for level in levels:
                    if isinstance(level, dict):
                        groups = level.get("groups")
                        labels = level.get("labels")
                    else:
                        groups, labels = level, None
                    hierarchy = AttributeHierarchy.of(name, groups, labels)
                    chain.append(hierarchy)
                    key_levels.append(
                        (hierarchy.groups, hierarchy.group_labels)
                    )
                chains[name] = chain
                canonical.append((name, tuple(key_levels)))
            stack = HierarchyStack.of(dataset, chains)
        except ReproError as error:
            raise ServeError("bad_request", str(error)) from error
        except (TypeError, ValueError) as error:
            raise ServeError(
                "bad_request", f"malformed hierarchy spec: {error}"
            ) from error
        return stack, tuple(canonical)

    def _run_hierarchy(
        self,
        snapshot: Snapshot,
        stack: HierarchyStack,
        threshold: int,
        max_level: Optional[int],
        remedies: bool,
    ) -> Dict:
        try:
            result = find_mups_hierarchical(
                snapshot.dataset,
                stack,
                threshold=threshold,
                max_level=max_level,
                oracle=snapshot.oracle,
                remedies=remedies,
            )
        except ReproError as error:
            raise ServeError("bad_request", str(error)) from error
        body = result.as_dict()
        body["depth"] = stack.depth
        body["max_level"] = max_level
        return body

    def _run_sweep(
        self,
        snapshot: Snapshot,
        thresholds: tuple,
        attributes: Optional[tuple],
        max_level: Optional[int],
        bootstrap: int,
        seed: int,
    ) -> Dict:
        try:
            result: SweepResult = sweep_mups(
                snapshot.dataset,
                thresholds,
                attributes=attributes,
                max_level=max_level,
                oracle=snapshot.oracle,
            )
            report = threshold_sensitivity(
                snapshot.dataset,
                thresholds,
                attributes=attributes,
                max_level=max_level,
                bootstrap=bootstrap,
                seed=seed,
                sweep=result,
            )
        except ReproError as error:
            raise ServeError("bad_request", str(error)) from error
        body = report.as_dict()
        body["mups"] = {
            str(tau): [str(p) for p in result.mups_at(tau).mups]
            for tau in result.thresholds
        }
        body["attributes"] = (
            None if attributes is None else list(attributes)
        )
        body["max_level"] = max_level
        body["evaluations"] = int(result.stats.coverage_evaluations)
        return body

    # ------------------------------------------------------------------
    # deliveries
    # ------------------------------------------------------------------
    async def deliver(
        self,
        dataset_key: str,
        rows: Sequence[Sequence[int]],
        threshold: Optional[int] = None,
        algorithm: str = "deepdiver",
    ) -> Dict:
        """Append rows under snapshot semantics; returns the delivery report."""
        entry = self.registry.get(dataset_key)
        if not isinstance(rows, (list, tuple)) or not rows:
            raise ServeError("bad_request", "rows must be a non-empty list")
        try:  # reject rows outside the schema before any index work
            Dataset(entry.snapshot.dataset.schema, rows)
        except (ReproError, TypeError, ValueError, OverflowError) as error:
            raise ServeError("bad_request", f"bad rows payload: {error}")
        old_fingerprint = entry.snapshot.fingerprint
        loop = asyncio.get_running_loop()
        async with self.admission.heavy():
            report = await loop.run_in_executor(
                None,
                lambda: self.registry.deliver(
                    entry, rows, threshold, algorithm
                ),
            )
        # Keys embed the fingerprint, so stale results are unreachable
        # already; invalidating reclaims their space eagerly.
        self.cache.invalidate(old_fingerprint)
        return report

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        return {
            "config": self.config.to_dict(),
            "registry": self.registry.info(),
            "batcher": self.batcher.info(),
            "result_cache": self.cache.info(),
            "admission": self.admission.info(),
        }

    def close(self) -> None:
        self.registry.close()
