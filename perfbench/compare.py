"""Set two result files side by side: the parent revision and a change.

Usage (from the checkout root)::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

Result files are what ``run.py --out FILE`` appends, one record per run.
Run both sides over the same seeds, interleaved (parent seed 1, change
seed 1, parent seed 2, ...): where the host's speed drifts, two batches
of the same code run one after the other can differ by more than the
spread inside either.  For every workload and end-to-end
metric the view prints each side's median and quartiles, the share of
seed-paired runs the change won, and a verdict under the bounds in
``BENCHMARK.json`` (see :func:`perfbench.stats.verdict`).  Per-layer
metrics and the ungated detail figures follow side by side, with the
end-to-end metric each per-layer metric is expected to move, and no
verdict.

With one file the view checks steadiness instead: each end-to-end
metric's quartile spread as a share of its median, against its bound.

Exit code: 1 when a metric is worse (two files) or a spread other than
``setup_s``'s exceeds its bound (one file), else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path[0] = str(ROOT)     # run as a script: see run.py

from perfbench import schema, stats  # noqa: E402
from perfbench.layers import PREDICTIONS  # noqa: E402


def _series(records, trace: int, section: str) -> dict:
    """``{(workload, metric): {seed: value}}`` over correct runs."""
    series: dict = {}
    for record in records:
        if record["trace"] != trace or not record["correct"]:
            continue
        for name, entry in record[section].items():
            series.setdefault((record["workload"], name), {})[
                record["seed"]] = entry["value"]
    return series


def _describe(values: dict) -> str:
    if not values:
        return f"{'-':>32}"
    q1, q2, q3 = stats.quartiles(list(values.values()))
    return f"{q2:>12.6g} [{q1:.4g}, {q3:.4g}]".rjust(32)


def _workloads(benchmark) -> list[str]:
    return [entry["name"] for entry in benchmark["workloads"]]


def steadiness(benchmark, records, out=sys.stdout) -> int:
    """One side: each end-to-end metric's spread against its bound."""
    series = _series(records, 0, "metrics")
    wide = 0
    print(f"{'workload':<20} {'metric':<18} {'runs':>4} "
          f"{'median [q1, q3]':>32} {'spread':>8} {'bound':>6}", file=out)
    for workload in _workloads(benchmark):
        for spec in benchmark["end_to_end"]:
            values = series.get((workload, spec["name"]), {})
            if len(values) < 2:
                print(f"{workload:<20} {spec['name']:<18} {len(values):>4} "
                      "  (needs two runs)", file=out)
                continue
            spread = stats.relative_spread(list(values.values()))
            flag = ""
            if spread > spec["bound"]:
                flag = "  (setup_s: not gated)" \
                    if spec["name"] == "setup_s" else "  WIDE"
                wide += spec["name"] != "setup_s"
            print(f"{workload:<20} {spec['name']:<18} {len(values):>4} "
                  f"{_describe(values)} {spread:>8.4f} "
                  f"{spec['bound']:>6.3f}{flag}", file=out)
    return 1 if wide else 0


def compare(benchmark, parent, change, out=sys.stdout) -> int:
    """Two sides: verdicts on end-to-end metrics, the rest side by side."""
    worse = 0
    old = _series(parent, 0, "metrics")
    new = _series(change, 0, "metrics")
    print(f"{'workload':<20} {'metric':<18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7}  verdict", file=out)
    for workload in _workloads(benchmark):
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            a, b = old.get(key, {}), new.get(key, {})
            wins, pairs = stats.pair_wins(a, b, spec["better"])
            result = stats.verdict(a, b, spec["better"], spec["bound"])
            worse += result == "worse"
            print(f"{workload:<20} {spec['name']:<18} {_describe(a)} "
                  f"{_describe(b)} {wins:>3}/{pairs:<3}  {result}", file=out)
    for title, trace, section in (("per-layer", 1, "metrics"),
                                  ("details (untraced, not gated)", 0,
                                   "details")):
        old = _series(parent, trace, section)
        new = _series(change, trace, section)
        print(f"\n{title}:", file=out)
        for workload in _workloads(benchmark):
            names = sorted({name for (w, name) in (*old, *new)
                            if w == workload})
            for name in names:
                a = old.get((workload, name), {})
                b = new.get((workload, name), {})
                if not any(a.values()) and not any(b.values()):
                    continue        # a layer this workload never runs
                _layer, moves = PREDICTIONS.get(name, ("", None))
                note = f"  moves {moves[0]} on {moves[1]}" if moves else ""
                print(f"{workload:<20} {name:<26} {_describe(a)} "
                      f"{_describe(b)}{note}", file=out)
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="result file of the parent revision")
    parser.add_argument("change", nargs="?", default=None,
                        help="result file of the change")
    args = parser.parse_args(argv)
    benchmark = schema.load_benchmark(ROOT / "BENCHMARK.json")
    parent = schema.read_results(args.parent, benchmark)
    if args.change is None:
        return steadiness(benchmark, parent)
    change = schema.read_results(args.change, benchmark)
    return compare(benchmark, parent, change)


if __name__ == "__main__":
    sys.exit(main())
