"""Run one peribessel CLI call with spans installed; used by the traced pass.

Usage: python clichild.py <spans|alloc> <stats.json> <CLI arguments...>

Behaves like ``python -m peribessel.cli <CLI arguments...>`` (same stdout,
stderr and exit code) and writes the tracer snapshot to ``stats.json``.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import peribessel.cli

    tracer = Tracer(alloc=mode == "alloc")
    tracer.install()
    try:
        code = peribessel.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
