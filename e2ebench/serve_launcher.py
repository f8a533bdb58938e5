"""Start ``repro serve`` with the span recorders installed.

    python3 -B e2ebench/serve_launcher.py TRACE_OUT serve --port 0 ...

Tracing starts disabled; SIGUSR1 enables it and SIGUSR2 disables it, so
the load generator can alternate traced and untraced windows.  When the
server exits (SIGINT), the recorder's totals are written to ``TRACE_OUT``
as JSON.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import os
import signal

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    trace_out, cli_args = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
    import spans
    from repro import cli

    recorder = spans.Recorder()
    recorder.enabled = False
    spans.install(recorder)

    def toggle(signum, frame):
        recorder.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, toggle)
    signal.signal(signal.SIGUSR2, toggle)
    try:
        return cli.main(cli_args)
    finally:
        hits = misses = 0
        if recorder.oracles:  # the serving engine: built by the last delivery
            info = recorder.oracles[-1].engine.cache_info()
            hits, misses = info["hits"], info["misses"]
        with open(trace_out, "w") as handle:
            json.dump(
                {
                    "self_s": recorder.self_s,
                    "total_s": recorder.total_s,
                    "calls": recorder.calls,
                    "durations": recorder.durations,
                    "mask_cache": [hits, misses],
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
