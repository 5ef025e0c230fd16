"""Workload ``cli_cached``: the commands that do not simulate, each a
fresh ``python -m repro`` process.

Set-up builds a run directory on the SQLite warehouse from a genie
``batch`` grid (``awgn``, ``two_ray``, ``cm1`` x BPSK, PPM x 13 Eb/N0
values = 78 points, 256 packets in 16-packet chunks = 1248 chunks, with
``--telemetry`` so ``report`` has a ledger to render).  A round then runs,
in sequence, the all-cached ``sweep`` re-run, ``show``, ``report``,
``query`` and ``merge`` against it.  Most of each command is interpreter
start-up and imports; the rest reads the store.  Nothing is simulated.

The run repeats these rounds command by command for its whole budget.
The traced run alternates untraced and traced rounds.  A traced round
runs each command through ``cli_probe.py``, which times the import of
:mod:`repro.runs.cli` and the ``main(argv)`` call inside the child, and
adds a bare interpreter start and in-process ``ResultStore.open`` +
``reload`` timings on the warehouse.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import (HostSpeed, Outcome, Samples, child_env,
                              repeat_for)

SETUP_REPEATS = 2
PROBE = Path(__file__).resolve().parent / "cli_probe.py"
COMMANDS = ("sweep", "show", "report", "query", "merge")
OPEN_REPEATS = 5
INTERPRETER_REPEATS = 3

#: What each end-to-end metric means on this workload.
MEANING = {
    "throughput_per_ref": "commands completed per ref of command time, "
                          "over every invocation of the run",
    "latency_p50_ref": "time of one command invocation in refs "
                       "(cli_p50_s, host-normalized)",
    "peak_rss_mb": "peak RSS of the benchmark or a command process",
    "setup_s": "building the 78-point warehouse run with --telemetry",
}


def sweep_args(seed: int, out_dir) -> list[str]:
    """The warehouse-building ``sweep`` arguments drawn from the
    workload seed: the engine seed and the Eb/N0 axis offset."""
    rng = random.Random(seed)
    start = rng.choice((0.0, 0.5))
    return ["sweep", "--scenario", "awgn,two_ray,cm1", "--mod", "bpsk,ppm",
            "--ebn0", f"{start:g}:{start + 12:g}:1", "--packets", "256",
            "--chunk-packets", "16", "--store-format", "sqlite",
            "--array-backend", "numpy", "--seed",
            str(rng.randrange(2 ** 31)), "--workers", "2",
            "--out", str(out_dir), "--name", "warehouse"]


def _argv(command: str, sweep: list[str], run_dir: Path,
          export_dir: Path) -> list[str]:
    if command == "sweep":
        return list(sweep)
    if command in ("show", "merge"):
        return [command, "--run", str(run_dir)]
    if command == "report":
        return ["report", str(run_dir)]
    return ["query", str(run_dir), "--export", "query", "--export-dir",
            str(export_dir)]


def _curves(path: Path) -> list:
    return json.loads(path.read_text(encoding="utf-8"))["curves"]


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    from repro.runs import ResultStore, cli

    outcome = Outcome()
    env = child_env()
    setup = Samples()
    for index in range(SETUP_REPEATS):
        build = sweep_args(seed, work / f"build-{index}")
        start = time.perf_counter()
        code = cli.main(build + ["--telemetry"], out=io.StringIO())
        setup.add(time.perf_counter() - start)
        outcome.check("setup_sweep_exit_0", code == 0)
    sweep = sweep_args(seed, work / f"build-{SETUP_REPEATS - 1}")
    run_dir = work / f"build-{SETUP_REPEATS - 1}" / "warehouse"
    export_dir = work / "query-export"

    host = HostSpeed()
    plain = {command: Samples() for command in COMMANDS}
    plain_refs = Samples()            # every untraced command, in refs
    traced = {command: Samples() for command in COMMANDS}
    imports = Samples()
    mains = {command: Samples() for command in COMMANDS}
    interpreter = Samples()
    store_open = Samples()

    def invoke(command: str, tracing: bool) -> float | None:
        """Run one command; its wall time, or None when it failed."""
        argv = _argv(command, sweep, run_dir, export_dir)
        timing = work / "probe.json"
        prefix = [sys.executable, str(PROBE), str(timing)] if tracing \
            else [sys.executable, "-m", "repro"]
        start = time.perf_counter()
        completed = subprocess.run(prefix + argv, cwd=work, env=env,
                                   capture_output=True, text=True,
                                   check=False)
        wall = time.perf_counter() - start
        outcome.count(1, completed.returncode != 0)
        outcome.check("commands_exit_0", completed.returncode == 0)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return None
        if command == "sweep":
            outcome.check("cached_sweep_simulates_nothing",
                          "0 packets simulated in 0 chunk(s)"
                          in completed.stdout
                          and "[all points served from cache]"
                          in completed.stdout)
        if command == "merge":
            outcome.check("query_equals_merge",
                          _curves(export_dir / "query.json")
                          == _curves(run_dir / "artifacts"
                                     / "warehouse.json"))
        if tracing:
            probe = json.loads(timing.read_text(encoding="utf-8"))
            imports.add(probe["import_s"])
            mains[command].add(probe["main_s"])
        return wall

    def one_command(index: int) -> None:
        """The ``index``-th command: rounds run the commands in order,
        and a traced run traces every other round."""
        command = COMMANDS[index % len(COMMANDS)]
        tracing = trace and index // len(COMMANDS) % 2 == 1
        ref = host.probe()
        wall = invoke(command, tracing)
        samples = (traced if tracing else plain)[command]
        if wall is None:
            samples.fail()
            if not tracing:
                plain_refs.fail()
        else:
            samples.add(wall)
            if not tracing:
                plain_refs.add(wall / ref)
        if tracing and command == COMMANDS[-1]:
            for _ in range(INTERPRETER_REPEATS):
                begin = time.perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], check=True)
                interpreter.add(time.perf_counter() - begin)
            for _ in range(OPEN_REPEATS):
                begin = time.perf_counter()
                store = ResultStore.open(run_dir / "store")
                store.reload()
                store_open.add(time.perf_counter() - begin)
                store.close()

    # One untimed command first, so the imports' files are in the page
    # cache before the first timed process starts.
    invoke("show", False)
    # Repeating single commands rather than whole rounds of five lets the
    # run use its whole budget; at least two rounds, so a traced run has
    # one of each kind.
    repeat_for(seconds, one_command, minimum=2 * len(COMMANDS))

    metrics = outcome.metrics
    if not trace:
        every = Samples()
        for command in COMMANDS:
            every.values.extend(plain[command].values)
        # Every invocation counts (a failed one as infinite time): the
        # mean over some twenty commands is steadier than the median of
        # the four or so rounds they make up.
        metrics["throughput_per_ref"] = (
            len(plain_refs) / sum(plain_refs.values), len(plain_refs))
        metrics["latency_p50_ref"] = (plain_refs.p(50), len(plain_refs))
        metrics["setup_s"] = (setup.p(50), len(setup))
        outcome.details["throughput_per_s"] = (
            len(every) / sum(every.values), "1/s", len(every))
        outcome.details["latency_p50_ms"] = (every.p(50, 1e3), "ms",
                                             len(every))
        outcome.details["host_ref_ms"] = (host.samples.p(50, 1e3), "ms",
                                          len(host.samples))
        outcome.details["cli_sweep_cached_s"] = (
            plain["sweep"].p(50), "s", len(plain["sweep"]))
        return outcome

    metrics["startup.interpreter_s"] = (interpreter.p(50), len(interpreter))
    metrics["startup.import_cli_s"] = (imports.p(50), len(imports))
    for command in COMMANDS:
        metrics[f"cli.main_{command}_ms"] = (mains[command].p(50, 1e3),
                                             len(mains[command]))
    metrics["store.open_ms"] = (store_open.p(50, 1e3), len(store_open))
    # A round's median wall time, traced over untraced, from the
    # per-command medians of each kind.
    both = [command for command in COMMANDS
            if len(plain[command]) and len(traced[command])]
    if both:
        metrics["obs.trace_overhead_ratio"] = (
            sum(traced[command].p(50) for command in both)
            / sum(plain[command].p(50) for command in both),
            min(sum(len(plain[command]) for command in both),
                sum(len(traced[command]) for command in both)))
    return outcome
