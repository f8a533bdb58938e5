"""serve-label-deliver: a closed loop against a ``repro serve`` subprocess.

One generator process drives two keep-alive connections, one thread each.
Both send ``/label`` requests (32 in-schema patterns plus the all-wildcard
pattern); connection A also sends a ``/deliver`` of 10 rows at tau after
every pass over its 100-request pool.  Every ``PAUSE_EVERY`` seconds the
load pauses, both connections drain, and a probe window runs while the
server is idle.  The server runs with the default ``ServeConfig``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.mups.base import find_mups
from repro.data.dataset import Dataset

import probe as probe_mod
from probe import Timing
import report
from inputs import (
    LABELS_A,
    SERVE_THRESHOLD,
    make_serve_inputs,
    pattern_mask,
    serve_cardinalities,
    serve_rows,
)

SETUP_REPEATS = 3
PAUSE_EVERY = 0.5  # seconds of load between probe windows
SETTLE = 0.02  # idle time before a probe window
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
RECHECKED_LABELS = 16
REFERENCE_ALGORITHM = "pattern_breaker"


class Gate:
    """Lets the load threads run, or holds them between ops."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._open = False
        self._stopped = False
        self._busy = 0

    def enter(self) -> bool:
        """Wait until open; False once stopped."""
        with self._cond:
            while not self._open and not self._stopped:
                self._cond.wait()
            if self._stopped:
                return False
            self._busy += 1
            return True

    def leave(self) -> None:
        with self._cond:
            self._busy -= 1
            self._cond.notify_all()

    def close(self, stop: bool = False) -> None:
        """Stop admitting ops and wait until none is in flight."""
        with self._cond:
            self._open = False
            self._stopped = stop
            self._cond.notify_all()
            while self._busy:
                self._cond.wait()

    def open(self) -> None:
        with self._cond:
            self._open = True
            self._cond.notify_all()


class Client:
    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self.conn.request(method, path, payload, headers)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
            raise

    def close(self) -> None:
        self.conn.close()


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, src: str, here: str, trace_out: Optional[str]) -> None:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
        serve_args = ["serve", "--port", "0"]
        if trace_out:
            command = [sys.executable, "-B", os.path.join(here, "serve_launcher.py"),
                       trace_out] + serve_args
        else:
            command = [sys.executable, "-B", "-m", "repro"] + serve_args
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
        deadline = time.monotonic() + START_TIMEOUT
        line = ""
        while "listening on" not in line:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            time.sleep(SETTLE)  # let the server see its clients hang up
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Load:
    """The timed phase's shared state: samples, checks, generator rows."""

    def __init__(self, result: report.Result, rows: np.ndarray, key: str) -> None:
        self.result = result
        self.key = key
        self.row_blocks: List[np.ndarray] = [rows]
        self.n = len(rows)
        self.traced = False  # tracing state of the current load window
        self.window = 0  # index of the current load window
        # (latency, load window, traced) per completed op
        self.reads: List[Tuple[float, int, bool]] = []
        self.writes: List[Tuple[float, int, bool]] = []
        self.labels: List[Tuple[list, dict]] = []  # (patterns, response)
        self.lock = threading.Lock()

    def deliver(self, client: Client, batch: list) -> None:
        window, traced = self.window, self.traced
        start = time.perf_counter()
        status, body = client.call(
            "POST", "/deliver",
            {"dataset": self.key, "rows": batch, "threshold": SERVE_THRESHOLD},
        )
        elapsed = time.perf_counter() - start
        with self.lock:
            self.result.attempted += 1
            if status != 200:
                self.result.fail(f"/deliver -> {status}: {body}")
                return
            self.row_blocks.append(np.asarray(batch, dtype=np.int32))
            self.n += len(batch)
            if body.get("rows_total") != self.n:
                self.result.fail(f"/deliver rows_total {body.get('rows_total')} != {self.n}")
            self.writes.append((elapsed, window, traced))

    def label(self, client: Client, patterns: list) -> None:
        window, traced = self.window, self.traced
        start = time.perf_counter()
        status, body = client.call("POST", "/label", {"dataset": self.key, "patterns": patterns})
        elapsed = time.perf_counter() - start
        with self.lock:
            self.result.attempted += 1
            if status != 200:
                self.result.fail(f"/label -> {status}: {body}")
                return
            coverage = body.get("coverage", [])
            if len(coverage) != len(patterns) or coverage[-1] != body.get("total"):
                self.result.fail(
                    f"/label all-wildcard count {coverage[-1:]} != total {body.get('total')}"
                )
                return
            self.reads.append((elapsed, window, traced))
            self.labels.append((patterns, body))

    def rows_at(self, total: int) -> np.ndarray:
        """The generator's rows when the server held ``total`` of them."""
        return np.concatenate(self.row_blocks)[:total]


def _guarded(load: Load, op, *args) -> None:
    try:
        op(*args)
    except (OSError, http.client.HTTPException, ValueError) as error:
        with load.lock:
            load.result.attempted += 1
            load.result.fail(f"{op.__name__}: {type(error).__name__}: {error}")


def _reader(load: Load, gate: Gate, client: Client, pool: List[list]) -> None:
    j = 0
    while gate.enter():
        try:
            _guarded(load, load.label, client, pool[j % len(pool)])
        finally:
            gate.leave()
        j += 1


def _writer(load: Load, gate: Gate, client: Client, pool: List[list], batches: List[list]) -> None:
    """Connection A: a pass over its label pool, then one delivery."""
    j = 0
    delivered = 1  # batch 0 is the set-up delivery
    while gate.enter():
        try:
            position = j % (LABELS_A + 1)
            if position == LABELS_A:
                _guarded(load, load.deliver, client, batches[delivered % len(batches)])
                delivered += 1
            else:
                _guarded(load, load.label, client, pool[position])
        finally:
            gate.leave()
        j += 1


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    batches = delta("batcher", "batches")
    requests = delta("batcher", "requests")
    lookups = delta("result_cache", "hits") + delta("result_cache", "misses")
    return {
        "serve.batch_size_mean": delta("batcher", "batched_queries") / batches if batches else 0.0,
        "serve.coalesced_frac": delta("batcher", "coalesced") / requests if requests else 0.0,
        "serve.cache_hit_frac": delta("result_cache", "hits") / lookups if lookups else 0.0,
        "serve.queued": delta("admission", "queued"),
        "serve.rejected": delta("admission", "rejected_over_budget")
        + delta("admission", "rejected_saturated"),
    }


def _expect_ok(route: str, status: int, body: dict) -> dict:
    if status != 200:
        raise RuntimeError(f"{route} -> {status}: {body}")
    return body


def _set_up(seed: int, src: str, here: str, trace_out: Optional[str]):
    rows = serve_rows(seed)
    inputs = make_serve_inputs(seed, rows)
    server = Server(src, here, trace_out)
    clients = [Client(server.port), Client(server.port)]
    try:
        registered = _expect_ok(
            "/datasets", *clients[0].call("POST", "/datasets", {"rows": rows.tolist()})
        )
        key = registered["dataset"]
        first = {"dataset": key, "rows": inputs.deliveries[0], "threshold": SERVE_THRESHOLD}
        _expect_ok("/deliver", *clients[0].call("POST", "/deliver", first))
        warmup = {"dataset": key, "patterns": inputs.warmup_label}  # not in the pools
        for client in clients:
            _expect_ok("/label", *client.call("POST", "/label", warmup))
    except BaseException:
        for client in clients:
            client.close()
        server.stop()
        raise
    return inputs, server, clients, key, registered


def run_serve(seed: int, seconds: float, traced: bool, src: str, here: str) -> report.Result:
    # Client threads and server share every CPU: probe each of them.
    host = probe_mod.HostProbe(cpus=sorted(os.sched_getaffinity(0)))
    result = report.Result("serve-label-deliver", host)
    peaks: List[float] = []  # VmHWM of each server at the end of its set-up
    trace_dir = os.path.join(here, ".trace")
    trace_out = None
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, f"serve-{os.getpid()}.json")

    server, clients = None, []
    try:
        before = host.window()
        for attempt in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs, server, clients, key, registered = _set_up(seed, src, here, trace_out)
            elapsed = time.perf_counter() - start
            peaks.append(probe_mod.peak_rss_mb(server.pid))
            if attempt < SETUP_REPEATS - 1:
                for client in clients:
                    client.close()
                server.stop()
                server = None
            else:  # from here on, probe windows also check the server idles
                host.server_pid = server.pid
                time.sleep(SETTLE)
            after = host.window()
            result.setups.append(Timing(elapsed, before, after))
            before = after
        result.plans = [f"backend={registered['backend']}"] + list(registered["plan"])

        load = Load(result, inputs.rows, key)
        load.row_blocks.append(np.asarray(inputs.deliveries[0], dtype=np.int32))
        load.n += len(inputs.deliveries[0])
        stats_before = _expect_ok("/stats", *clients[0].call("GET", "/stats"))
        gate = Gate()
        threads = [
            threading.Thread(
                target=_writer,
                args=(load, gate, clients[0], inputs.labels_a, inputs.deliveries),
            ),
            threading.Thread(target=_reader, args=(load, gate, clients[1], inputs.labels_b)),
        ]
        for thread in threads:
            thread.start()
        steal0 = probe_mod.cpu_steal()
        windows: List[Tuple[int, int]] = []  # probe windows around each load window
        load_s = 0.0
        try:
            while load_s < seconds:
                before = host.last
                opened = time.perf_counter()
                gate.open()
                time.sleep(PAUSE_EVERY)
                gate.close()
                elapsed = time.perf_counter() - opened
                time.sleep(SETTLE)
                after = host.window()
                result.load.append(Timing(elapsed, before, after))
                windows.append((before, after))
                load_s += elapsed
                load.window += 1
                if traced:  # alternate traced and untraced windows
                    load.traced = not load.traced
                    server.signal(signal.SIGUSR1 if load.traced else signal.SIGUSR2)
                    time.sleep(SETTLE)
        finally:
            gate.close(stop=True)
            for thread in threads:
                thread.join()
        result.steal_frac = probe_mod.steal_frac(steal0, probe_mod.cpu_steal())
        if traced:
            server.signal(signal.SIGUSR2)
        stats_after = _expect_ok("/stats", *clients[0].call("GET", "/stats"))
        # Set-up (registration, first delivery's index build) sets a steady
        # peak.  Under concurrent reads, later deliveries add a transient
        # whose size varies from run to run with malloc arena placement, so
        # it is reported as a diagnostic only.
        result.peak_rss_mb = statistics.median(peaks)
        result.counters["server.peak_rss_mb_after_load"] = probe_mod.peak_rss_mb(server.pid)

        for latency, window, in_trace in load.reads:
            timing = Timing(latency, *windows[window])
            (result.traced_ops if in_trace else result.ops).append(timing)
        result.primary_ops = len(load.reads)
        result.writes = [
            Timing(latency, *windows[window])
            for latency, window, in_trace in load.writes
            if not in_trace
        ]
        counters = _stats_delta(stats_before, stats_after)
        result.counters.update(counters)

        _check_answers(result, load, clients[0], seed)
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()  # a traced server writes its spans as it exits
        dump = None
        if traced and os.path.exists(trace_out):
            with open(trace_out) as handle:
                dump = json.load(handle)
            os.remove(trace_out)
            if not os.listdir(trace_dir):
                os.rmdir(trace_dir)
    if traced:
        result.layers = _serve_layers(dump, load, counters)
    return result


def _check_answers(result: report.Result, load: Load, client: Client, seed: int) -> None:
    """Recheck sampled labels with numpy; /identify against find_mups."""
    rng = np.random.default_rng([seed, 2])
    picks = rng.choice(len(load.labels), size=min(RECHECKED_LABELS, len(load.labels)), replace=False)
    for index in sorted(picks):
        patterns, body = load.labels[index]
        rows = load.rows_at(body["total"])
        expected = [int(pattern_mask(rows, pattern).sum()) for pattern in patterns]
        result.attempted += 1
        if expected != body["coverage"]:
            result.fail(f"/label at {body['fingerprint'][:12]}: counts differ from numpy")

    result.attempted += 1
    status, body = client.call(
        "POST", "/identify", {"dataset": load.key, "threshold": SERVE_THRESHOLD}
    )
    if status != 200:
        result.fail(f"/identify -> {status}: {body}")
        return
    final = load.rows_at(load.n)
    dataset = Dataset.from_rows(final, cardinalities=serve_cardinalities(load.row_blocks[0]))
    reference = find_mups(
        dataset, threshold=SERVE_THRESHOLD, algorithm=REFERENCE_ALGORITHM, engine="auto"
    )
    expected = {pattern.values for pattern in reference.mups}
    served = {tuple(-1 if v is None else v for v in values) for values in body["mups"]}
    if served != expected:
        result.fail(
            f"/identify returned {len(served)} MUPs, find_mups {len(expected)}"
        )


def _serve_layers(dump: dict, load: Load, counters: Dict[str, float]) -> Dict[str, tuple]:
    """Per-layer metrics of the traced windows, per primary (read) op."""
    reads = sum(1 for _, _, in_trace in load.reads if in_trace)
    self_s, calls, total_s = dump["self_s"], dump["calls"], dump["total_s"]

    def per_read(value: float) -> tuple:
        return (value / reads if reads else 0.0, reads)

    def median(layer: str) -> tuple:
        samples = dump["durations"].get(layer, [])
        return (float(np.median(samples)) if samples else 0.0, len(samples))

    hits, misses = dump["mask_cache"]
    add_rows = calls.get("incremental.add_rows", 0)
    layers = {
        "mups.self_s": per_read(self_s.get("mups", 0.0)),
        "pattern.created": per_read(calls.get("pattern.created", 0)),
        "dominance.s": per_read(self_s.get("dominance", 0.0)),
        "coverage.s": per_read(self_s.get("coverage", 0.0)),
        "engine.s": per_read(self_s.get("engine", 0.0)),
        "engine.masks": per_read(calls.get("engine", 0)),
        "engine.build_s": per_read(self_s.get("engine.build", 0.0)),
        "planner.s": per_read(self_s.get("planner", 0.0)),
        "engine.mask_cache_hit_frac": (
            hits / (hits + misses) if hits + misses else 0.0, 1
        ),
        "incremental.add_rows_s": (
            total_s.get("incremental.add_rows", 0.0) / add_rows if add_rows else 0.0,
            add_rows,
        ),
        "data.unique_s": per_read(self_s.get("data.unique", 0.0)),
        "data.fingerprint_s": per_read(self_s.get("data.fingerprint", 0.0)),
        "serve.label_s": median("serve.label"),
        "serve.deliver_s": median("serve.deliver"),
    }
    layers.update({name: (value, 1) for name, value in counters.items()})
    return layers
