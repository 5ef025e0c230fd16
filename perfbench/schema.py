"""The benchmark's file formats, and checks that a file follows them.

* ``BENCHMARK.json`` — which workloads and metrics exist, their units,
  which direction is better, and each end-to-end metric's regression
  bound.  :func:`benchmark_problems` enforces the format's limits on
  keys, names, units, counts and bounds.
* The result line — the last line ``run.py`` prints:
  ``{"correct", "attempted", "failed", "metrics": {name: {"value",
  "unit"}}}`` with every end-to-end metric (``--trace 0``) or every
  per-layer metric (``--trace 1``).
* The result file — what ``run.py --out FILE`` appends and
  ``compare.py`` reads: one JSON record per run, holding the result line
  plus the workload, seed, trace flag, sample counts, checks and
  untraced detail figures.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

__all__ = ["RECORD_SCHEMA", "benchmark_problems", "load_benchmark",
           "metric_specs", "read_results", "record_problems",
           "result_line", "result_line_problems"]

RECORD_SCHEMA = 1

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def load_benchmark(path) -> dict:
    """Read ``BENCHMARK.json``; raises ``ValueError`` listing every
    problem when it breaks the format."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = benchmark_problems(data)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return data


def _name_problems(entries, what: str, keys: set, seen: set) -> list[str]:
    problems = []
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != keys:
            problems.append(f"{what} entry {entry!r} must have exactly "
                            f"the keys {sorted(keys)}")
            continue
        name = entry["name"]
        if not isinstance(name, str) or not _NAME.match(name):
            problems.append(f"{what} name {name!r} is malformed")
        elif name in seen:
            problems.append(f"name {name!r} is used twice")
        seen.add(name)
        if "unit" in keys and not (isinstance(entry["unit"], str)
                                   and _UNIT.match(entry["unit"])):
            problems.append(f"{name}: unit {entry['unit']!r} is malformed")
        if "better" in keys and entry["better"] not in ("lower", "higher"):
            problems.append(f"{name}: better must be lower or higher")
        if "bound" in keys:
            bound = entry["bound"]
            if (isinstance(bound, bool)
                    or not isinstance(bound, (int, float))
                    or not 0 < bound <= 0.25):
                problems.append(f"{name}: bound {bound!r} must be in "
                                "(0, 0.25]")
        if "why" in keys:
            why = entry["why"]
            if (not isinstance(why, str) or not why or len(why) > 200
                    or "\n" in why):
                problems.append(f"{name}: why must be one line of at "
                                "most 200 characters")
    return problems


def benchmark_problems(data) -> list[str]:
    """Every way ``data`` breaks the ``BENCHMARK.json`` format."""
    if not isinstance(data, dict) or set(data) != _TOP_KEYS:
        return [f"BENCHMARK.json must have exactly the keys "
                f"{sorted(_TOP_KEYS)}"]
    problems = []
    paths = data["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths must list 1 to 16 directories")
        paths = []
    for path in paths:
        if (not isinstance(path, str) or not _PATH.match(path)
                or path.startswith("/") or ".." in path.split("/")):
            problems.append(f"path {path!r} is malformed")
    command = data["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(arg, str) and len(arg) <= 200
                       for arg in command)):
        problems.append("command must be 1 to 32 strings of at most 200 "
                        "characters")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command argument {arg!r} leaves the "
                                "checkout")
    seconds = data["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) \
            or not 1 <= seconds <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    seen: set = set()
    for key, low, high, keys in (
            ("workloads", 2, 8, {"name", "why"}),
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        entries = data[key]
        if not isinstance(entries, list) or not low <= len(entries) <= high:
            problems.append(f"{key} must list {low} to {high} entries")
            continue
        problems.extend(_name_problems(entries, key, keys, seen))
    setup = [entry for entry in data["end_to_end"]
             if isinstance(entry, dict) and entry.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, lower better")
    elif any(entry.get("bound", 0) > setup[0].get("bound", 0)
             for entry in data["end_to_end"] if isinstance(entry, dict)):
        problems.append("setup_s must have the largest bound")
    if len(json.dumps(data)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def metric_specs(benchmark: dict, trace: bool) -> list[dict]:
    """The metrics a run reports: per-layer when traced, else end-to-end."""
    return benchmark["per_layer" if trace else "end_to_end"]


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def result_line(record: dict) -> dict:
    """The last line ``run.py`` prints, cut from a full run record."""
    return {"correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": entry["value"],
                               "unit": entry["unit"]}
                        for name, entry in record["metrics"].items()}}


def result_line_problems(line, benchmark: dict, trace: bool) -> list[str]:
    """Every way ``line`` breaks the result-line format."""
    if not isinstance(line, dict) or set(line) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["the result line must have exactly the keys correct, "
                "attempted, failed and metrics"]
    problems = []
    if not isinstance(line["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        value = line[key]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            problems.append(f"{key} must be a whole number")
    if isinstance(line["attempted"], int) and line["attempted"] < 1:
        problems.append("attempted must be at least 1")
    specs = {spec["name"]: spec for spec in metric_specs(benchmark, trace)}
    metrics = line["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(specs):
        return problems + ["metrics must name exactly the "
                           + ("per_layer" if trace else "end_to_end")
                           + " metrics of BENCHMARK.json"]
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: must be {{value, unit}}")
        elif not _finite(entry["value"]):
            problems.append(f"{name}: value {entry['value']!r} is not a "
                            "finite number")
        elif entry["unit"] != specs[name]["unit"]:
            problems.append(f"{name}: unit {entry['unit']!r} is not "
                            f"{specs[name]['unit']!r}")
        elif not trace and entry["value"] == 0:
            problems.append(f"{name}: an end-to-end metric is never 0")
    return problems


def record_problems(record, benchmark: dict) -> list[str]:
    """Every way ``record`` breaks the result-file record format."""
    keys = {"schema", "workload", "seed", "seconds", "trace", "correct",
            "attempted", "failed", "checks", "metrics", "details"}
    if not isinstance(record, dict) or set(record) != keys:
        return [f"a result record must have exactly the keys "
                f"{sorted(keys)}"]
    if record["schema"] != RECORD_SCHEMA:
        return [f"unknown result record schema {record['schema']!r}"]
    problems = []
    workloads = {entry["name"] for entry in benchmark["workloads"]}
    if record["workload"] not in workloads:
        problems.append(f"unknown workload {record['workload']!r}")
    if record["trace"] not in (0, 1):
        problems.append("trace must be 0 or 1")
        return problems
    for name, entry in record["metrics"].items():
        if not isinstance(entry, dict) or set(entry) != {
                "value", "unit", "samples"}:
            problems.append(f"{name}: must be {{value, unit, samples}}")
    for name, entry in record["details"].items():
        if not isinstance(entry, dict) or set(entry) != {
                "value", "unit", "samples"}:
            problems.append(f"detail {name}: must be "
                            "{value, unit, samples}")
    if not problems:
        problems.extend(result_line_problems(
            result_line(record), benchmark, bool(record["trace"])))
    return problems


def read_results(path, benchmark: dict) -> list[dict]:
    """Every record of a result file; raises ``ValueError`` naming the
    first malformed line."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            problems = record_problems(record, benchmark)
            if problems:
                raise ValueError(f"{path}:{number}: " + "; ".join(problems))
            records.append(record)
    return records
