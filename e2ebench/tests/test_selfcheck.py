"""Self-tests of the benchmark's own machinery.

    python3 -B -m pytest -p no:cacheprovider e2ebench/tests -q
"""

import gc
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import probe  # noqa: E402
import report  # noqa: E402


def _probe_median(windows: int = 41) -> float:
    host = probe.HostProbe()
    for _ in range(windows):
        host.window()
    assert host.valid, host.busy_reasons
    return host.median


def test_probe_time_ignores_tracked_objects():
    before = _probe_median()
    tracked = [[] for _ in range(2_000_000)]
    assert gc.is_tracked(tracked[0])
    during = _probe_median()
    del tracked
    after = _probe_median()
    baseline = (before + after) / 2
    assert abs(during / baseline - 1) < 0.2, (before, during, after)


def test_probe_runs_without_collections():
    collections = []

    def watch(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    garbage = [[] for _ in range(50_000)]  # pending young objects
    gc.callbacks.append(watch)
    try:
        probe.HostProbe().window()
    finally:
        gc.callbacks.remove(watch)
    del garbage
    assert collections == []
    assert gc.isenabled()


def test_busy_thread_invalidates_run():
    import threading

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        host = probe.HostProbe()
        for _ in range(5):
            host.window()
    finally:
        stop.set()
        worker.join()
    assert not host.valid
    assert host.correct(probe.Timing(1.0, 0, 1)) == 1.0  # left uncorrected


@pytest.mark.parametrize("name", sorted(inputs.LIBRARY_WORKLOADS))
def test_library_inputs_are_seeded(name):
    spec = inputs.LIBRARY_WORKLOADS[name]
    first = [dataset.rows.tobytes() for dataset in spec.make_pool(7)]
    again = [dataset.rows.tobytes() for dataset in spec.make_pool(7)]
    other = [dataset.rows.tobytes() for dataset in spec.make_pool(8)]
    assert first == again
    assert first != other


def test_serve_inputs_are_seeded():
    def encoded(seed):
        made = inputs.make_serve_inputs(seed)
        payload = [made.labels_a, made.labels_b, made.warmup_label, made.deliveries]
        return made.rows.tobytes(), json.dumps(payload).encode()

    assert encoded(7) == encoded(7)
    assert encoded(7) != encoded(8)


def test_serve_inputs_stay_in_schema():
    made = inputs.make_serve_inputs(7)
    top = inputs.column_max(made.rows)
    for payload in made.labels_a + made.labels_b:
        for pattern in payload:
            assert all(v is None or 0 <= v <= t for v, t in zip(pattern, top))
    for batch in made.deliveries:
        assert all(0 <= v <= t for row in batch for v, t in zip(row, top))


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        probe.p90_of([0.1] * 99)
    assert probe.p90_of([float(i) for i in range(100)]) == pytest.approx(89.1)
    host = probe.HostProbe()
    host.window()
    result = report.Result("x", host)
    timing = probe.Timing(0.1, 0, 0)
    result.setups = result.writes = [timing]
    result.ops = result.load = [timing] * 99
    result.primary_ops = 99
    with pytest.raises(ValueError):
        result.end_to_end()
    result.ops = result.load = [timing] * 100
    assert result.end_to_end()["op_p90_s"][1] == 100


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == [
        "airbnb-breaker", "bluenile-deepdiver", "serve-label-deliver"
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
