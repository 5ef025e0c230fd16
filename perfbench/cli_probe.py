"""Run one ``python -m repro`` command with its import and ``main`` timed.

Usage::

    PYTHONPATH=src python perfbench/cli_probe.py TIMING_FILE ARG...

Behaves like ``python -m repro ARG...`` (same output, same exit code)
and also writes ``{"import_s", "main_s", "exit"}`` as JSON to
``TIMING_FILE``: the time to import :mod:`repro.runs.cli` in a fresh
interpreter and the time of the ``main(argv)`` call after it.
"""

import json
import sys
import time


def main() -> int:
    # The script's own directory must not shadow top-level modules.
    sys.path.pop(0)
    timing_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from repro.runs import cli
    imported = time.perf_counter()
    code = cli.main(argv)
    finished = time.perf_counter()
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": imported - start,
                   "main_s": finished - imported, "exit": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
