"""Workload ``sweep_fullstack``: a fresh local sweep on the gen-2
full-stack backend.

Each repetition creates a new run directory with
:meth:`repro.runs.RunDriver.create` and executes it with
``run_shard(max_workers=2)``: 12 points (``cm1``, ``gen2_nlos`` — the
S-V-heavy CM3 channel — and ``gen1_baseline``, which brings in the gen-1
front end) x 4 Eb/N0 values, 64 packets per point in 16-packet chunks,
so 48 chunks and 48 store writes per sweep.  Nearly all the time goes to
the batched receiver's ``rx.*`` stages; the control plane has little to
do and no broker is involved.

The traced run alternates untraced and traced sweeps.  A traced sweep
turns on the engine's :class:`repro.obs.Recorder` (the ``chunk.run``,
``pool.run``, ``shm.*`` and ``rx.*`` spans the program already emits,
read back from the run's ``events.jsonl``) and times ``RunDriver.create``,
``RunDriver.run_shard`` and ``ResultStore.add_chunks`` from here.
"""

from __future__ import annotations

import random
import shutil
import time
import traceback

from perfbench import stats
from perfbench.common import (HostSpeed, Outcome, Samples, repeat_for,
                              timed_method)

SCENARIOS = ("cm1", "gen2_nlos", "gen1_baseline")
EBN0_DB = (4.0, 6.0, 8.0, 10.0)
PACKETS = 64
CHUNK_PACKETS = 16
WORKERS = 2
CHUNKS_PER_SWEEP = len(SCENARIOS) * len(EBN0_DB) * PACKETS // CHUNK_PACKETS
SETUP_REPEATS = 3

#: What each end-to-end metric means on this workload.
MEANING = {
    "throughput_per_ref": "packets per sweep over the median sweep time "
                          "in refs (sweep_packets_per_s, host-normalized)",
    "latency_p50_ref": "time of one fresh sweep (create + run_shard) in "
                       "refs",
    "peak_rss_mb": "peak RSS of the benchmark or a pool worker",
    "setup_s": "engine construction + one warm-up chunk per scenario",
}

RX_STAGES = ("synthesis", "channel_fft", "acquisition", "chanest", "rake",
             "viterbi")
#: Parent-process spans directly under ``driver.run_shard``.
_TOP_SPANS = ("engine.chunk_plan", "shm.pack", "shm.alloc", "pool.run")


def inputs(seed: int):
    """The engine seed and the grid, both drawn from the workload seed.

    The Eb/N0 axis is shifted by a seeded quarter-dB step so different
    seeds sweep different (but equally expensive) grids.
    """
    from repro.sim import sweep_grid
    rng = random.Random(seed)
    engine_seed = rng.randrange(2 ** 31)
    shift = rng.choice((0.0, 0.25, 0.5))
    points = sweep_grid([value + shift for value in EBN0_DB],
                        scenarios=SCENARIOS)
    return engine_seed, points


def _engine(engine_seed: int, recorder=None):
    from repro.sim import SweepEngine
    return SweepEngine(generation="gen2", seed=engine_seed,
                       backend="fullstack", chunk_packets=CHUNK_PACKETS,
                       array_backend="numpy", recorder=recorder)


def _counts(result) -> list[tuple]:
    """Per-point error counts of a merged sweep, in grid order."""
    return [(point.scenario, point.ebn0_db, m.bit_errors, m.total_bits,
             m.packets_sent, m.packets_failed)
            for point, m in result.entries]


def _span_summary(events) -> dict:
    """Per span name: list of durations; plus each chunk's pool queue
    wait and the pool worker count."""
    spans: dict[str, list[float]] = {}
    queue_waits: list[float] = []
    workers = 0
    for event in events:
        if event["kind"] == "span":
            spans.setdefault(event["name"], []).append(
                float(event["duration_s"]))
            if event["name"] == "chunk.run":
                queue_waits.append(
                    float(event["attrs"].get("queue_wait_s", 0.0)))
        elif event["kind"] == "gauge" and event["name"] == "pool.workers":
            workers = int(event["value"])
    return {"spans": spans, "queue_waits": queue_waits, "workers": workers}


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    from repro.obs import Recorder, load_run_events
    from repro.runs import ResultStore, RunDriver

    outcome = Outcome()
    engine_seed, points = inputs(seed)

    # Set-up warms the receiver's caches in this process; the pool
    # workers of every sweep inherit them.
    warm = [(next(p for p in points if p.scenario == scenario),
             CHUNK_PACKETS, 0) for scenario in SCENARIOS]
    setup = Samples()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _engine(engine_seed).measure_points(warm)
        setup.add(time.perf_counter() - start)

    host = HostSpeed()
    plain = Samples()          # untraced sweep wall times
    plain_refs = Samples()     # the same in refs
    traced = Samples()         # traced sweep wall times
    reference: list = []
    layer = {name: Samples() for name in (
        "create", "run_shard", "chunk_run_total", "pool_run", "shm_pack",
        "efficiency", "coverage", "outside_pool", "chunks",
        "add_calls", "growth", *("rx." + stage for stage in RX_STAGES))}
    chunk_durations = Samples()
    queue_waits = Samples()
    add_chunks = Samples()

    def sweep(index: int) -> None:
        tracing = trace and index % 2 == 1
        run_dir = work / f"sweep-{index}"
        recorder = Recorder() if tracing else None
        calls_before = len(add_chunks)
        ref = host.probe()
        start = time.perf_counter()
        driver = RunDriver.create(run_dir, _engine(engine_seed, recorder),
                                  points, num_packets=PACKETS,
                                  store_format="jsonl")
        created = time.perf_counter()
        try:
            if tracing:
                with timed_method(ResultStore, "add_chunks", add_chunks):
                    report = driver.run_shard(0, max_workers=WORKERS)
            else:
                report = driver.run_shard(0, max_workers=WORKERS)
        except Exception:  # noqa: BLE001 - a failed sweep is accounted
            traceback.print_exc()
            stored = driver.shard_progress()[0]["chunks_stored"]
            outcome.count(CHUNKS_PER_SWEEP, CHUNKS_PER_SWEEP - stored)
            (traced if tracing else plain).fail()
            if not tracing:
                plain_refs.fail()
            outcome.check("sweeps_complete", False)
            shutil.rmtree(run_dir, ignore_errors=True)
            return
        finished = time.perf_counter()
        wall = finished - start
        (traced if tracing else plain).add(wall)
        if not tracing:
            plain_refs.add(wall / ref)
        outcome.count(CHUNKS_PER_SWEEP)
        outcome.check("sweeps_complete",
                      report.chunks_simulated == CHUNKS_PER_SWEEP
                      and report.packets_simulated == PACKETS * len(points))
        counts = _counts(driver.merge())
        if not reference:
            reference.extend(counts)
        # Telemetry must not change results, and equal inputs must
        # give equal outputs: every sweep matches the first untraced one.
        outcome.check("traced_equals_untraced" if tracing
                      else "repeat_identical", counts == reference)
        if tracing:
            events, _corrupt = load_run_events(run_dir)
            summary = _span_summary(events)
            spans = summary["spans"]
            runs = spans.get("chunk.run", [])
            chunk_durations.values.extend(runs)
            pool_run = sum(spans.get("pool.run", []))
            run_shard = finished - created
            chunk_total = sum(runs)
            layer["create"].add(created - start)
            layer["run_shard"].add(run_shard)
            layer["chunk_run_total"].add(chunk_total)
            layer["chunks"].add(len(runs))
            layer["pool_run"].add(pool_run)
            layer["shm_pack"].add(sum(spans.get("shm.pack", [])))
            queue_waits.values.extend(summary["queue_waits"])
            layer["outside_pool"].add(run_shard - pool_run)
            layer["add_calls"].add(len(add_chunks) - calls_before)
            layer["growth"].add(
                stats.growth_ratio(add_chunks.values[calls_before:]))
            if pool_run > 0 and summary["workers"]:
                layer["efficiency"].add(
                    chunk_total / (summary["workers"] * pool_run))
            layer["coverage"].add(
                sum(sum(spans.get(name, [])) for name in _TOP_SPANS)
                / run_shard)
            rx_total = 0.0
            for stage in RX_STAGES:
                stage_total = sum(spans.get("rx." + stage, []))
                rx_total += stage_total
                layer["rx." + stage].add(stage_total)
            # The rx.* stages run inside chunk.run, so they cannot
            # add up to more than it.
            outcome.check("rx_within_chunk_run", rx_total <= chunk_total)
        shutil.rmtree(run_dir, ignore_errors=True)

    repeat_for(seconds, sweep)
    outcome.check("sweeps_complete", len(plain) > 0)

    metrics = outcome.metrics
    if not trace:
        packets = PACKETS * len(points)
        metrics["throughput_per_ref"] = (packets / plain_refs.p(50),
                                         len(plain_refs))
        metrics["latency_p50_ref"] = (plain_refs.p(50), len(plain_refs))
        metrics["setup_s"] = (setup.p(50), len(setup))
        outcome.details["throughput_per_s"] = (packets / plain.p(50), "1/s",
                                               len(plain))
        outcome.details["latency_p50_ms"] = (plain.p(50, 1e3), "ms",
                                             len(plain))
        outcome.details["host_ref_ms"] = (host.samples.p(50, 1e3), "ms",
                                          len(host.samples))
        return outcome

    n = len(traced)
    for stage in RX_STAGES:
        name = "rx." + stage
        metrics[name + "_s"] = (layer[name].p(50), n)
    metrics["sim.chunks"] = (layer["chunks"].p(50), n)
    metrics["sim.chunk_run_s"] = (layer["chunk_run_total"].p(50), n)
    metrics["sim.chunk_p50_s"] = (chunk_durations.p(50),
                                  len(chunk_durations))
    metrics["sim.pool_run_s"] = (layer["pool_run"].p(50), n)
    metrics["sim.shm_pack_s"] = (layer["shm_pack"].p(50), n)
    metrics["sim.queue_wait_s"] = (queue_waits.p(50), len(queue_waits))
    metrics["sim.pool_efficiency"] = (layer["efficiency"].p(50),
                                      len(layer["efficiency"]))
    metrics["sim.span_coverage"] = (layer["coverage"].p(50), n)
    metrics["driver.create_s"] = (layer["create"].p(50), n)
    metrics["driver.run_shard_s"] = (layer["run_shard"].p(50), n)
    metrics["driver.outside_pool_s"] = (layer["outside_pool"].p(50), n)
    metrics["store.add_chunks_calls"] = (layer["add_calls"].p(50), n)
    metrics["store.add_chunks_p50_ms"] = (add_chunks.p(50, 1e3),
                                          len(add_chunks))
    metrics["store.add_chunks_growth"] = (layer["growth"].p(50), n)
    if len(plain) and len(traced):
        metrics["obs.trace_overhead_ratio"] = (traced.p(50) / plain.p(50),
                                               min(len(plain), n))
    return outcome

