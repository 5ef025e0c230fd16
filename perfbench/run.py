"""Run one benchmark workload, or all of them.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload sweep_fullstack --seed 1 \\
        --seconds 36 --trace 0 [--out perfbench-results.jsonl]
    python3 perfbench/run.py --workload all [--seed 1] \\
        [--out perfbench-results.jsonl]

One workload: set up, measure for ``--seconds`` seconds, check the
program's outputs, print a table of every metric with its unit and
sample count, and print as the last line the JSON result line (see
:mod:`perfbench.schema`).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json`` measured with tracing off; ``--trace 1`` reports
the per-layer metrics from a separate traced run.  ``--out`` appends the
full run record to a result file for ``compare.py``.  The exit code is 0
when every check held and no operation failed, 1 otherwise, and 2 when
the benchmark cannot run at all (for example without ``src/repro``).

``--workload all`` runs every workload untraced and then traced, each in
its own process, and exits non-zero if any of them did.

Inputs come from ``--seed`` only: equal seeds give equal inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the harness as the ``perfbench`` package,
    # and keep the script's own directory from shadowing other modules.
    sys.path[0] = str(ROOT)

from perfbench import schema  # noqa: E402
from perfbench.common import SRC, WorkDir, peak_rss_mb  # noqa: E402

def _number(value):
    """A finite float for JSON, or ``None`` (never NaN/Infinity)."""
    value = float(value)
    return value if math.isfinite(value) else None


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts to
    track shared-memory blocks, so a run leaves no process behind."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(benchmark: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> tuple[dict, dict]:
    """Run one workload (the module of its name in this package);
    returns ``(record, meaning)``."""
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(f"perfbench.{workload}")
    with WorkDir() as work:
        outcome = module.run(seed, seconds, trace, work)
    measured = dict(outcome.metrics)
    specs = schema.metric_specs(benchmark, trace)
    names = {spec["name"] for spec in specs}
    if not trace:
        measured["peak_rss_mb"] = (peak_rss_mb(), 1)
    _stop_resource_tracker()
    if trace:
        measured["ops_failed_ratio"] = (
            outcome.failed / outcome.attempted if outcome.attempted else 0.0,
            outcome.attempted)
    unknown = sorted(set(measured) - names)
    if unknown:
        raise RuntimeError(f"{workload} measured metrics BENCHMARK.json "
                           f"does not list: {', '.join(unknown)}")
    missing = sorted(names - set(measured))
    if not trace and missing:
        raise RuntimeError(f"{workload} did not measure the end-to-end "
                           f"metrics {', '.join(missing)}")
    metrics = {}
    for spec in specs:
        # A per-layer metric a workload does not exercise reads 0, from
        # 0 samples: that layer did no work here.
        value, samples = measured.get(spec["name"], (0.0, 0))
        metrics[spec["name"]] = {"value": _number(value),
                                 "unit": spec["unit"],
                                 "samples": int(samples)}
    details = {name: {"value": _number(value), "unit": unit,
                      "samples": int(samples)}
               for name, (value, unit, samples) in outcome.details.items()}
    values_ok = all(entry["value"] is not None
                    for entry in (*metrics.values(), *details.values()))
    correct = (bool(outcome.checks) and all(outcome.checks.values())
               and outcome.failed == 0 and outcome.attempted > 0
               and values_ok)
    record = {"schema": schema.RECORD_SCHEMA, "workload": workload,
              "seed": seed, "seconds": seconds, "trace": int(trace),
              "correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "checks": outcome.checks,
              "metrics": metrics, "details": details}
    return record, getattr(module, "MEANING", {})


def print_table(record: dict, meaning: dict, out=sys.stdout) -> None:
    """The human-readable account of one run."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  ({record['seconds']} s measured)",
          file=out)
    print(f"  {'metric':<26} {'value':>14} {'unit':<6} {'samples':>7}",
          file=out)
    rows = list(record["metrics"].items()) + [
        (name + " (not gated)", entry)
        for name, entry in record["details"].items()]
    for name, entry in rows:
        value = entry["value"]
        text = "failed" if value is None else f"{value:.6g}"
        note = meaning.get(name, "")
        print(f"  {name:<26} {text:>14} {entry['unit']:<6} "
              f"{entry['samples']:>7}  {note}".rstrip(), file=out)
    ratio = record["failed"] / record["attempted"] \
        if record["attempted"] else 0.0
    print(f"  operations: {record['attempted']} attempted, "
          f"{record['failed']} failed (ops_failed_ratio {ratio:.6g})",
          file=out)
    for name, ok in sorted(record["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}", file=out)


def run_all(args, workloads) -> int:
    """Every workload untraced then traced, each in its own process."""
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.out:
                command += ["--out", args.out]
            code = subprocess.run(command, check=False).returncode
            if code != 0:
                failures.append(f"{workload} (trace {trace}): exit {code}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    benchmark = schema.load_benchmark(ROOT / "BENCHMARK.json")
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the run record to this result file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads)
    record, meaning = run_workload(benchmark, args.workload, args.seed,
                                   args.seconds, bool(args.trace))
    print_table(record, meaning)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()
    print(json.dumps(schema.result_line(record)), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
