"""Run one ``tradelab`` CLI command with spans around its public functions.

Usage: python3 shim.py SPANS_JSON SPAWN_MONOTONIC RUN_ID <tradelab args...>

Installs the benchmark's wrappers, then calls ``tradelab.cli.entrypoint``.
The spans are kept in memory and written to SPANS_JSON when the command
exits, so nothing is added to the command's own output tree.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    spans_path, spawned, run_id, *args = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    tracer = tracing.Tracer(int(run_id))
    tracer.install()
    import tradelab.cli

    sys.argv = ["tradelab", *args]
    entered = time.monotonic()
    code = 0
    try:
        tradelab.cli.entrypoint()
    except SystemExit as exc:
        code = exc.code
    finally:
        exited = time.monotonic()
        tracer.dump(Path(spans_path), {"spawn": float(spawned), "started": STARTED,
                                       "entry": entered, "exit": exited})
    sys.exit(code)


if __name__ == "__main__":
    main()
