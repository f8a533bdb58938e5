"""Closed-loop ``find_mups`` workloads: airbnb-breaker, bluenile-deepdiver.

One caller runs ``find_mups`` (engine ``"auto"``, the CLI default) on the
pool inputs in a fixed cycle.  Between ops, in gaps that are not timed,
the run checks the op's MUP set against a reference from another
algorithm, takes a probe window and times one write op: ingesting a pool
input afresh (``Dataset`` + planned ``CoverageOracle`` build).
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core.coverage import CoverageOracle
from repro.core.engine import EngineConfig
from repro.core.engine import planner
from repro.core.mups import base as mups_base
from repro.data.dataset import Dataset

import probe as probe_mod
from probe import Timing
import report
import spans
from inputs import LibrarySpec

SETUP_REPEATS = 5
#: How far past ``--seconds`` a slow run may go to time op_p90_s's 100 ops.
OVERRUN = 2.0
#: One write op per this many primary ops.
WRITE_EVERY = 4
AUTO = "auto"


def _op(spec: LibrarySpec, dataset: Dataset):
    # Looked up per call, so a traced op calls the installed wrapper.
    return mups_base.find_mups(
        dataset, threshold=spec.threshold, algorithm=spec.algorithm, engine=AUTO
    )


def _ingest(dataset: Dataset) -> float:
    """The write op: index a dataset from its rows, as a new user would."""
    start = time.perf_counter()
    CoverageOracle(Dataset(dataset.schema, dataset.rows), engine=AUTO)
    return time.perf_counter() - start


def _plans(spec: LibrarySpec, pool: List[Dataset]) -> List[str]:
    shape = mups_base.algorithm_query_shape(spec.algorithm)
    return sorted(
        {
            planner.plan_engine(dataset, EngineConfig(backend=AUTO), query_shape=shape)
            .describe()
            .splitlines()[0]
            for dataset in pool
        }
    )


def run_library(spec: LibrarySpec, seed: int, seconds: float, traced: bool) -> report.Result:
    host = probe_mod.HostProbe()
    result = report.Result(spec.name, host)

    before = host.window()
    for _ in range(SETUP_REPEATS):
        planner.invalidate_stats_cache()  # each set-up starts cold
        start = time.perf_counter()
        pool = spec.make_pool(seed)
        for dataset in pool:
            _op(spec, dataset)  # one warm-up op per input
        elapsed = time.perf_counter() - start
        after = host.window()
        result.setups.append(Timing(elapsed, before, after))
        before = after
    result.plans = _plans(spec, pool)

    recorder = spans.Recorder() if traced else None
    rows: List[Dict[str, float]] = []
    # Distinct MUP sets seen per input -> ops that returned them; checked
    # after peak RSS is read, so the reference's memory is not counted.
    answers: List[Dict[frozenset, int]] = [{} for _ in pool]
    steal0 = probe_mod.cpu_steal()
    i = 0
    # On a slow host, run on past ``seconds`` until op_p90_s has its samples.
    load_s = 0.0
    while load_s < seconds or (
        not traced
        and len(result.ops) < probe_mod.MIN_P90_SAMPLES
        and load_s < OVERRUN * seconds
    ):
        dataset = pool[i % len(pool)]
        trace_this = traced and i % 2 == 0  # traced runs alternate
        if trace_this:
            spans.install(recorder)
        start = time.perf_counter()
        mups = _op(spec, dataset)
        elapsed = time.perf_counter() - start
        if trace_this:
            spans.uninstall()
            rows.append(_layer_row(recorder, mups, elapsed))
        before, after = host.last, host.window()
        timing = Timing(elapsed, before, after)
        (result.traced_ops if trace_this else result.ops).append(timing)
        result.load.append(timing)
        load_s += elapsed
        result.primary_ops += 1
        result.attempted += 1
        seen = answers[i % len(pool)]
        seen[mups.as_set()] = seen.get(mups.as_set(), 0) + 1
        if i % WRITE_EVERY == 0:
            planner.invalidate_stats_cache()  # ingest a "new" dataset, cold
            elapsed = _ingest(dataset)
            result.writes.append(Timing(elapsed, after, host.window()))
            result.attempted += 1
        i += 1
    result.peak_rss_mb = probe_mod.peak_rss_mb()
    for dataset, seen in zip(pool, answers):
        # The reference: computed outside both set-up and the timed phase.
        reference = mups_base.find_mups(
            dataset,
            threshold=spec.threshold,
            algorithm=spec.reference_algorithm,
            engine=AUTO,
        ).as_set()
        for answer, ops in seen.items():
            if answer != reference:
                result.fail(
                    f"{ops} ops: MUP set differs from {spec.reference_algorithm}'s",
                    count=ops,
                )
    result.steal_frac = probe_mod.steal_frac(steal0, probe_mod.cpu_steal())
    stats = mups.stats
    result.counters = {
        "mups.nodes_generated": stats.nodes_generated,
        "mups.pruned": stats.pruned,
        "dominance.checks": stats.dominance_checks,
        "coverage.evaluations": stats.coverage_evaluations,
    }
    result.plan_changed = _plans(spec, pool) != result.plans
    if traced:
        result.layers = report.layer_medians(rows)
        report.check_accounted(result, result.layers["trace.accounted_frac"][0])
    return result


def _layer_row(recorder: spans.Recorder, mups, elapsed: float) -> Dict[str, float]:
    """One traced op's per-layer self times and counters."""
    self_s, calls = recorder.take()
    row: Dict[str, float] = {f"{layer}.self": t for layer, t in self_s.items()}
    row.update({f"{layer}.calls": float(n) for layer, n in calls.items()})
    row["accounted"] = sum(self_s.values()) / elapsed
    hits = misses = 0
    for oracle in recorder.oracles:
        info = oracle.engine.cache_info()
        hits += info["hits"]
        misses += info["misses"]
    recorder.oracles.clear()
    row["mask_cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    stats = mups.stats
    row["nodes_generated"] = stats.nodes_generated
    row["pruned"] = stats.pruned
    row["dominance_checks"] = stats.dominance_checks
    row["coverage_evaluations"] = stats.coverage_evaluations
    return row
