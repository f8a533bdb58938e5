"""Seeded workload inputs, built only from ``repro.data`` generators.

The same seed gives byte-identical inputs (``tests/test_selfcheck.py``).
Each workload draws a small pool; its ops cycle through the pool in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.data.airbnb import load_airbnb
from repro.data.bluenile import load_bluenile
from repro.data.dataset import Dataset
from repro.data.synthetic import random_categorical_dataset

#: Pool size of the library workloads.  Odd, so a traced run that
#: alternates traced and untraced ops still traces every input.
POOL_SIZE = 5


@dataclass(frozen=True)
class LibrarySpec:
    """One ``find_mups`` closed-loop workload."""

    name: str
    algorithm: str
    reference_algorithm: str
    threshold: int
    generate: Callable[[int], Dataset]

    def make_pool(self, seed: int) -> List[Dataset]:
        return [self.generate(seed * 1000 + i) for i in range(POOL_SIZE)]


LIBRARY_WORKLOADS = {
    spec.name: spec
    for spec in (
        # n=20,000, d=8, tau-rate 1e-2 (tau=200).
        LibrarySpec(
            "airbnb-breaker", "pattern_breaker", "pattern_combiner", 200,
            lambda seed: load_airbnb(n=20_000, d=8, seed=seed),
        ),
        # n=10,000, tau-rate 5e-2 (tau=500).
        LibrarySpec(
            "bluenile-deepdiver", "deepdiver", "pattern_breaker", 500,
            lambda seed: load_bluenile(n=10_000, seed=seed),
        ),
    )
}


# ----------------------------------------------------------------------
# serve-label-deliver
# ----------------------------------------------------------------------
SERVE_ROWS = 300_000
SERVE_CARDINALITIES = (40, 30, 20, 12, 8)
SERVE_SKEW = 0.3
SERVE_THRESHOLD = 2000
PATTERNS_PER_LABEL = 32
DELIVERY_ROWS = 10
#: Label requests per connection pool.  Connection A delivers after each
#: pass over its pool, so every pass meets a fresh fingerprint; B's pool is
#: larger than the reads B makes between two deliveries, so its requests
#: miss the result cache too.
LABELS_A = 100
LABELS_B = 400
DELIVERIES = 64


@dataclass(frozen=True)
class ServeInputs:
    rows: np.ndarray  # (n, d) int32, the rows registered at set-up
    labels_a: List[list]  # each a /label "patterns" payload
    labels_b: List[list]
    warmup_label: list
    deliveries: List[list]  # each a /deliver "rows" payload


def serve_rows(seed: int) -> np.ndarray:
    return random_categorical_dataset(
        SERVE_ROWS, SERVE_CARDINALITIES, seed=seed, skew=SERVE_SKEW
    ).rows


def column_max(rows: np.ndarray) -> np.ndarray:
    """Largest value per column: the server infers cardinality = max + 1."""
    return rows.max(axis=0)


def _label_payload(rng: np.random.Generator, top: np.ndarray) -> list:
    values = rng.integers(0, top + 1, size=(PATTERNS_PER_LABEL, len(top)))
    wild = rng.random(values.shape) < 0.5
    patterns = [
        [None if w else int(v) for v, w in zip(row, wild_row)]
        for row, wild_row in zip(values, wild)
    ]
    patterns.append([None] * len(top))  # all-wildcard: must equal total
    return patterns


def make_serve_inputs(seed: int, rows: Optional[np.ndarray] = None) -> ServeInputs:
    """Serve inputs; every pattern value and delivered row is in-schema."""
    if rows is None:
        rows = serve_rows(seed)
    top = column_max(rows)
    rng = np.random.default_rng([seed, 1])
    labels_a = [_label_payload(rng, top) for _ in range(LABELS_A)]
    labels_b = [_label_payload(rng, top) for _ in range(LABELS_B)]
    warmup = _label_payload(rng, top)
    deliveries = []
    for i in range(DELIVERIES):
        batch = random_categorical_dataset(
            DELIVERY_ROWS,
            SERVE_CARDINALITIES,
            seed=seed * 1000 + i + 1,
            skew=SERVE_SKEW,
        ).rows
        deliveries.append(np.minimum(batch, top).tolist())
    return ServeInputs(rows, labels_a, labels_b, warmup, deliveries)


def pattern_mask(rows: np.ndarray, pattern: list) -> np.ndarray:
    """Rows matching a ``/label`` pattern (``None`` = wildcard), via numpy."""
    mask = np.ones(len(rows), dtype=bool)
    for column, value in enumerate(pattern):
        if value is not None:
            mask &= rows[:, column] == value
    return mask


def serve_cardinalities(rows: np.ndarray) -> Tuple[int, ...]:
    """The cardinalities the server infers from the registered rows."""
    return tuple(max(2, int(v) + 1) for v in column_max(rows))
