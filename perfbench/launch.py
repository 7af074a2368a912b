"""Start one program daemon — ``repro-serve``, a ``repro-dist`` coordinator or
worker — through its own ``main``, optionally with the per-layer timers.

    python perfbench/launch.py [--trace] [--dump FILE] {serve,coordinator,worker} -- ARGS...

``--trace`` installs :mod:`layers` before ``main`` runs. SIGTERM stops the
daemon the way Ctrl-C would; on the way out ``--dump`` receives the process's
``METRICS`` snapshot as JSON (how a worker's wire time, which no job outcome
carries, reaches the benchmark).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import use_source_tree


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump", default="")
    parser.add_argument("role", choices=("serve", "coordinator", "worker"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rest = args.args[1:] if args.args[:1] == ["--"] else args.args

    use_source_tree()
    if args.trace:
        import layers

        layers.install()
    signal.signal(signal.SIGTERM, _interrupt)
    if args.role == "serve":
        from repro.serve.server import main as daemon_main

        argv = rest
    else:
        from repro.dist.cli import main as daemon_main

        argv = [args.role, *rest]
    try:
        code = daemon_main(argv)
    except KeyboardInterrupt:
        code = 0
    finally:
        if args.dump:
            from repro.obs.metrics import METRICS

            with open(args.dump, "w") as fh:
                json.dump(METRICS.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
