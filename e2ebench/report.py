"""Metric definitions, host-speed correction and result printing."""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import probe as probe_mod
from probe import Timing

#: (name, unit, better) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("write_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = (
    ("mups.self_s", "s", "lower"),
    ("pattern.created", "count", "lower"),
    ("mups.nodes_generated", "count", "lower"),
    ("mups.pruned", "count", "higher"),
    ("dominance.s", "s", "lower"),
    ("dominance.checks", "count", "lower"),
    ("coverage.s", "s", "lower"),
    ("coverage.evaluations", "count", "lower"),
    ("engine.s", "s", "lower"),
    ("engine.masks", "count", "lower"),
    ("engine.build_s", "s", "lower"),
    ("planner.s", "s", "lower"),
    ("engine.mask_cache_hit_frac", "fraction", "higher"),
    ("incremental.add_rows_s", "s", "lower"),
    ("data.unique_s", "s", "lower"),
    ("data.fingerprint_s", "s", "lower"),
    ("serve.label_s", "s", "lower"),
    ("serve.deliver_s", "s", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.coalesced_frac", "fraction", "higher"),
    ("serve.cache_hit_frac", "fraction", "higher"),
    ("serve.queued", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("host.probe_s", "s", "lower"),
    ("host.raw_op_s", "s", "lower"),
    ("host.steal_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.accounted_frac", "fraction", "higher"),
)

#: Per-layer metrics reported in raw (host) seconds, never corrected.
RAW_SECONDS = {"host.probe_s", "host.raw_op_s"}

#: The traced run's self times must add up to op wall time within this.
ACCOUNTED_TOLERANCE = 0.10

MAX_LOGGED_FAILURES = 5


@dataclass
class Result:
    """Raw samples of one run; :meth:`emit` turns them into the output."""

    workload: str
    host: probe_mod.HostProbe
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    setups: List[Timing] = field(default_factory=list)
    ops: List[Timing] = field(default_factory=list)  # untraced primary ops
    traced_ops: List[Timing] = field(default_factory=list)
    writes: List[Timing] = field(default_factory=list)  # untraced write ops
    load: List[Timing] = field(default_factory=list)  # stretches of load
    primary_ops: int = 0  # primary ops completed during ``load``
    peak_rss_mb: float = 0.0
    steal_frac: float = 0.0
    plans: List[str] = field(default_factory=list)
    plan_changed: bool = False
    counters: Dict[str, float] = field(default_factory=dict)
    #: per-layer name -> (raw value, sample count), set by traced runs
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    check_errors: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed or wrong ops."""
        self.failed += count
        if len(self.failures) < MAX_LOGGED_FAILURES:
            self.failures.append(message)

    def corrected(self, timings: List[Timing]) -> List[float]:
        return [self.host.correct(timing) for timing in timings]

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, Tuple[float, int]]:
        """Corrected end-to-end metrics as ``name -> (value, samples)``."""
        ops = self.corrected(self.ops)
        load_s = sum(self.corrected(self.load))
        return {
            "setup_s": (statistics.median(self.corrected(self.setups)), len(self.setups)),
            "op_s": (statistics.median(ops), len(ops)),
            "op_p90_s": (probe_mod.p90_of(ops), len(ops)),
            "ops_per_s": (self.primary_ops / load_s, self.primary_ops),
            "write_s": (statistics.median(self.corrected(self.writes)), len(self.writes)),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }

    def per_layer(self) -> Dict[str, Tuple[float, int]]:
        traced = self.traced_ops
        # Layer seconds come from traced ops: correct them by those ops' factor.
        factor = statistics.median(
            self.host.correct(t) / t.raw for t in traced
        ) if traced else 1.0
        units = {name: unit for name, unit, _ in PER_LAYER}
        layers = dict(self.layers)
        layers["host.probe_s"] = (self.host.median, len(self.host.samples))
        if self.ops:
            layers["host.raw_op_s"] = (
                statistics.median(t.raw for t in self.ops), len(self.ops)
            )
        layers["host.steal_frac"] = (self.steal_frac, 1)
        if self.ops and traced:
            layers["trace.overhead_frac"] = (
                statistics.median(self.corrected(traced))
                / statistics.median(self.corrected(self.ops)) - 1,
                len(traced),
            )
        out = {}
        for name, unit, _ in PER_LAYER:
            value, samples = layers.get(name, (0.0, 0))
            if units[name] == "s" and name not in RAW_SECONDS:
                value *= factor
            out[name] = (value, samples)
        return out

    def detail(self) -> Dict:
        host = self.host
        return {
            "workload": self.workload,
            "host": {
                "valid": host.valid,
                "busy_windows": host.busy_windows,
                "busy_reasons": host.busy_reasons[:MAX_LOGGED_FAILURES],
                "probe_windows": len(host.samples),
                "probe_median_s": host.median if host.samples else None,
                "probe_ref_s": probe_mod.PROBE_REF_S,
                "raw_setup_s": _raw_median(self.setups),
                "raw_op_s": _raw_median(self.ops),
                "raw_write_s": _raw_median(self.writes),
                "steal_frac": self.steal_frac,
            },
            "error_frac": self.failed / self.attempted if self.attempted else None,
            "failures": self.failures,
            "check_errors": self.check_errors,
            "plans": self.plans,
            "plan_changed": self.plan_changed,
            "counters": self.counters,
        }

    # ------------------------------------------------------------------
    def emit(self, traced: bool, machine: Dict) -> None:
        """Print the tables, the detail line and the result line."""
        metrics = self.per_layer() if traced else self.end_to_end()
        units = {name: unit for name, unit, _ in (PER_LAYER if traced else END_TO_END)}
        host = self.host
        print(f"== {self.workload} ({'traced' if traced else 'untraced'} run)")
        print(f"{'metric':<28}{'value':>14}  {'unit':<9}{'samples':>8}")
        for name, (value, samples) in metrics.items():
            print(f"{name:<28}{value:>14.6g}  {units[name]:<9}{samples:>8}")
        if not traced:
            raw = self.detail()["host"]
            print(
                f"raw: setup {raw['raw_setup_s']:.4f} s, op {raw['raw_op_s']:.4f} s, "
                f"write {raw['raw_write_s']:.4f} s; probe median "
                f"{host.median:.5f} s over {len(host.samples)} windows "
                f"(reference {probe_mod.PROBE_REF_S} s)"
            )
        print(f"error_frac {self.failed}/{self.attempted}")
        if not host.valid:
            print(
                f"INVALID RUN: {host.busy_windows} probe windows saw the system "
                f"busy ({'; '.join(host.busy_reasons[:3])}); timings are raw, "
                "not corrected",
                file=sys.stderr,
            )
        if self.plan_changed:
            print(f"PLAN CHANGED: {self.plans}", file=sys.stderr)
        for message in self.failures + self.check_errors:
            print(f"check failed: {message}", file=sys.stderr)
        detail = self.detail()
        detail["machine"] = machine
        detail["samples"] = {name: samples for name, (_, samples) in metrics.items()}
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": self.failed == 0 and not self.check_errors,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": units[name]}
                        for name, (value, _) in metrics.items()
                    },
                }
            ),
            flush=True,
        )


def _raw_median(timings: List[Timing]) -> Optional[float]:
    return statistics.median(t.raw for t in timings) if timings else None


def layer_medians(rows: List[Dict[str, float]]) -> Dict[str, Tuple[float, int]]:
    """Per-op medians of a library traced run's rows, by metric name."""

    def med(key: str) -> Tuple[float, int]:
        if not any(key in row for row in rows):
            return 0.0, 0  # a layer this workload does not reach
        return statistics.median(row.get(key, 0.0) for row in rows), len(rows)

    return {
        "mups.self_s": med("mups.self"),
        "pattern.created": med("pattern.created.calls"),
        "mups.nodes_generated": med("nodes_generated"),
        "mups.pruned": med("pruned"),
        "dominance.s": med("dominance.self"),
        "dominance.checks": med("dominance_checks"),
        "coverage.s": med("coverage.self"),
        "coverage.evaluations": med("coverage_evaluations"),
        "engine.s": med("engine.self"),
        "engine.masks": med("engine.calls"),
        "engine.build_s": med("engine.build.self"),
        "planner.s": med("planner.self"),
        "engine.mask_cache_hit_frac": med("mask_cache_hit_frac"),
        "incremental.add_rows_s": med("incremental.add_rows.self"),
        "data.unique_s": med("data.unique.self"),
        "data.fingerprint_s": med("data.fingerprint.self"),
        "trace.accounted_frac": med("accounted"),
    }


def check_accounted(result: Result, value: float) -> None:
    if abs(value - 1.0) > ACCOUNTED_TOLERANCE:
        result.check_errors.append(
            f"traced self times add up to {value} of op wall time "
            f"(must be within {ACCOUNTED_TOLERANCE:.0%})"
        )
