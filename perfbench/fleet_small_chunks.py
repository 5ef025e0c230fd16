"""Workload ``fleet_small_chunks``: one job drained through a durable
broker over HTTP, in one-packet chunks.

Each repetition stands up a fresh :class:`repro.serve.Broker` (with a
``state_dir`` journal and a JSONL store) behind
:func:`repro.serve.api.create_server` on localhost, submits one job — a
single ``awgn`` point on the genie ``batch`` backend, 1024 packets in
one-packet chunks — and lets one closed-loop in-process
:class:`repro.serve.Worker` drain it (one request in flight at a time).
A chunk simulates in about a millisecond, so the time goes to the
control plane: HTTP round trips, the broker lock, the fsynced store
ingest and the fsynced journal, once per chunk.  The ``rx.*`` stages are
never reached.

The traced run alternates untraced and traced repetitions.  A traced one
times the broker's ``submit``/``lease``/``commit`` methods, every
``BrokerJournal.append``, every ``ResultStore.add_chunks`` and the
worker's ``simulate`` from here, and reads the broker's own service
counters.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import threading
import time
import traceback

from perfbench import stats
from perfbench.common import (HostSpeed, Outcome, Samples, repeat_for,
                              timed_method)

# Enough one-packet chunks on one key to show ingest cost growing with
# the chunks already stored; a 36-s run holds five to seven such jobs.
CHUNKS = 1024
# Throughput is taken over windows of this many commits (16 per job), so
# its median rests on about a hundred samples rather than on five job
# walls, and a stall of the shared disk or CPU moves one window, not the
# run's figure.
WINDOW_CHUNKS = 64
SETUP_REPEATS = 5
WARM_UP_CHUNKS = 64

#: What each end-to-end metric means on this workload.
MEANING = {
    "throughput_per_ref": "median chunks per ref over windows of 64 "
                          "commits, submit to complete curve "
                          "(fleet_chunks_per_s, host-normalized)",
    "latency_p50_ref": "lease RPC + commit RPC per chunk, as the worker "
                       "sees them, in refs",
    "peak_rss_mb": "peak RSS of the benchmark (broker, server, worker)",
    "setup_s": "broker (journal + store) and HTTP server stand-up",
}


def inputs(seed: int) -> dict:
    """The job spec (a :class:`repro.serve.JobSpec` payload) drawn from
    the workload seed: the engine seed and the point's Eb/N0."""
    rng = random.Random(seed)
    ebn0_db = round(rng.uniform(2.0, 5.0), 1)
    return {"points": [{"ebn0_db": ebn0_db, "scenario": "awgn",
                        "modulation": "bpsk", "adc_bits": None}],
            "num_packets": CHUNKS, "chunk_packets": 1,
            "payload_bits_per_packet": 64, "seed": rng.randrange(2 ** 31),
            "generation": "gen2", "backend": "batch", "quantize": True,
            "array_backend": "numpy", "name": f"perfbench-{seed}"}


def _timed_client_class():
    from repro.serve import BrokerClient, BrokerTransportError
    from repro.serve.worker import BrokerRequestError

    class TimedClient(BrokerClient):
        """A :class:`BrokerClient` that times every RPC by route and
        counts attempts and failures (transport retries included)."""

        def __init__(self, base_url: str) -> None:
            super().__init__(base_url)
            self.rpc: dict[str, Samples] = {}
            self.cycle = Samples()       # lease + commit per chunk
            self.committed_at: list[float] = []
            self.attempted = 0
            self.failed = 0
            self._lease_s = None
            self._lock = threading.Lock()

        def _timed(self, path: str, call, *args):
            route = path.split("?")[0].rsplit("/", 1)[-1]
            samples = self.rpc.setdefault(route, Samples())
            start = time.perf_counter()
            try:
                response = call(self, *args)
            except (BrokerTransportError, BrokerRequestError):
                with self._lock:
                    self.attempted += 1
                    self.failed += 1
                    samples.fail()
                    if route in ("lease", "commit"):
                        self.cycle.fail()
                        self._lease_s = None
                raise
            elapsed = time.perf_counter() - start
            with self._lock:
                self.attempted += 1
                samples.add(elapsed)
                if route == "lease" and response.get("task") is not None:
                    self._lease_s = elapsed
                elif route == "commit" and self._lease_s is not None:
                    self.cycle.add(self._lease_s + elapsed)
                    self.committed_at.append(start + elapsed)
                    self._lease_s = None
            return response

        def get(self, path: str):
            return self._timed(path, BrokerClient.get, path)

        def post(self, path: str, payload=None):
            return self._timed(path, BrokerClient.post, path, payload)

    return TimedClient


def window_rates(begin: float, committed_at, end: float,
                 window: int = WINDOW_CHUNKS) -> list[float]:
    """Chunks per second in consecutive windows of ``window`` commits.

    The first window opens at submission and the last closes when the
    complete curve is back, so the windows tile the job's wall time; a
    short final window of leftover commits joins the one before it.
    """
    count = len(committed_at)
    edges = [begin] + [committed_at[index - 1]
                       for index in range(window, count, window)
                       if count - index >= window] + [end]
    sizes = [window] * (len(edges) - 2)
    sizes.append(count - sum(sizes))
    return [size / (stop - start) for size, start, stop
            in zip(sizes, edges, edges[1:]) if size and stop > start]


def _stand_up(directory):
    """A durable broker on a fresh store behind a serving HTTP server."""
    from repro.serve import Broker
    from repro.serve.api import create_server
    broker = Broker(directory / "store", store_format="jsonl",
                    state_dir=directory / "state")
    server = create_server(broker)
    thread = server.serve_in_thread()
    return broker, server, thread


def _tear_down(broker, server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10.0)
    broker.close()


def run(seed: int, seconds: float, trace: bool, work) -> Outcome:
    from repro.runs import ResultStore
    from repro.serve import BrokerClient, BrokerJournal, JobSpec, Worker
    from repro.serve.broker import result_from_curve_payload

    TimedClient = _timed_client_class()
    outcome = Outcome()
    spec = inputs(seed)

    setup = Samples()
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        broker, server, thread = _stand_up(work / f"setup-{index}")
        setup.add(time.perf_counter() - start)
        if index == 0:
            # Drain a short job once, untimed, so lazy imports and the
            # engine's caches are warm before the first measured job.
            client = BrokerClient(server.url)
            client.submit(dict(spec, num_packets=WARM_UP_CHUNKS))
            Worker(client, exit_when_idle=True).run()
        _tear_down(broker, server, thread)
        shutil.rmtree(work / f"setup-{index}", ignore_errors=True)

    plain = Samples()
    traced = Samples()
    host = HostSpeed()
    windows = Samples()                   # untraced chunks/s per window
    windows_per_ref = Samples()           # the same in chunks per ref
    rpc: dict[str, Samples] = {}          # untraced RPC latencies
    cycle = Samples()
    cycle_refs = Samples()
    results = []
    layer = {name: Samples() for name in (
        "submit", "journal_records", "add_calls", "growth", "leased",
        "committed", "duplicates")}
    method = {name: Samples() for name in ("lease", "commit", "journal",
                                           "add_chunks", "simulate")}
    traced_rpc: dict[str, Samples] = {}

    def drain(index: int) -> None:
        tracing = trace and index % 2 == 1
        directory = work / f"fleet-{index}"
        ref = host.probe()
        start = time.perf_counter()
        broker, server, thread = _stand_up(directory)
        setup.add(time.perf_counter() - start)
        client = TimedClient(server.url)
        worker = Worker(client, exit_when_idle=True)
        calls_before = len(method["add_chunks"])
        try:
            with contextlib.ExitStack() as patches:
                submit = Samples()
                if tracing:
                    patches.enter_context(
                        timed_method(broker, "submit", submit))
                    patches.enter_context(
                        timed_method(broker, "lease", method["lease"]))
                    patches.enter_context(
                        timed_method(broker, "commit", method["commit"]))
                    patches.enter_context(timed_method(
                        BrokerJournal, "append", method["journal"]))
                    patches.enter_context(timed_method(
                        ResultStore, "add_chunks", method["add_chunks"]))
                    patches.enter_context(
                        timed_method(worker, "simulate", method["simulate"]))
                journal_before = len(method["journal"])
                begin = time.perf_counter()
                try:
                    job = client.submit(spec)
                    tally = worker.run()
                    curve = client.curve(job["job_id"])
                except Exception:  # noqa: BLE001 - accounted, then checked
                    traceback.print_exc()
                    curve = None
                wall = time.perf_counter() - begin
            counters = broker.recorder.counter_totals()
            stored = [(chunk.packet_offset, chunk.measurement)
                      for key in broker.store.keys()
                      for chunk in broker.store.stored_chunks(key)]
        finally:
            _tear_down(broker, server, thread)
            shutil.rmtree(directory, ignore_errors=True)
        outcome.count(client.attempted + client.transport_retries,
                      client.failed + client.transport_retries)
        # Failed RPCs stay in the latency samples, as infinite latencies.
        for route, samples in client.rpc.items():
            (traced_rpc if tracing else rpc).setdefault(
                route, Samples()).values.extend(samples.values)
        if not tracing:
            cycle.values.extend(client.cycle.values)
            cycle_refs.values.extend(value / ref
                                     for value in client.cycle.values)
        if curve is None:
            (traced if tracing else plain).fail()
            outcome.check("job_complete", False)
            return
        outcome.check("job_complete",
                      curve["complete"] and curve["state"] == "done"
                      and tally["chunks_committed"] == CHUNKS
                      and tally["chunks_failed"] == 0)
        results.append((result_from_curve_payload(curve).entries, stored))
        if not tracing:
            plain.add(wall)
            rates = window_rates(begin, client.committed_at, begin + wall)
            windows.values.extend(rates)
            windows_per_ref.values.extend(rate * ref for rate in rates)
            return
        traced.add(wall)
        add_calls = method["add_chunks"].values[calls_before:]
        layer["submit"].values.extend(submit.values)
        layer["journal_records"].add(len(method["journal"]) - journal_before)
        layer["add_calls"].add(len(add_calls))
        layer["growth"].add(stats.growth_ratio(add_calls))
        layer["leased"].add(counters.get("serve.chunks_leased", 0))
        layer["committed"].add(counters.get("serve.chunks_committed", 0))
        layer["duplicates"].add(counters.get("serve.commit_duplicates", 0))

    repeat_for(seconds, drain)

    # fleet == local: the fleet's curve, and every chunk in its store,
    # is bit-identical to the engine measuring the same spec in-process.
    job = JobSpec.from_dict(spec)
    point = job.points[0]
    local_chunks = []
    [local] = job.build_engine().measure_points(
        [(point, job.num_packets, 0)],
        payload_bits_per_packet=job.payload_bits_per_packet,
        on_chunk=lambda _point, offset, measurement: local_chunks.append(
            (offset, measurement)))
    outcome.check("fleet_equals_local", bool(results) and all(
        entries == [(point, local)] and stored == local_chunks
        for entries, stored in results))

    metrics = outcome.metrics
    if not trace:
        metrics["throughput_per_ref"] = (windows_per_ref.p(50),
                                         len(windows_per_ref))
        metrics["latency_p50_ref"] = (cycle_refs.p(50), len(cycle_refs))
        metrics["setup_s"] = (setup.p(50), len(setup))
        outcome.details["throughput_per_s"] = (windows.p(50), "1/s",
                                               len(windows))
        outcome.details["latency_p50_ms"] = (cycle.p(50, 1e3), "ms",
                                             len(cycle))
        outcome.details["host_ref_ms"] = (host.samples.p(50, 1e3), "ms",
                                          len(host.samples))
        outcome.details["fleet_job_chunks_per_s"] = (
            CHUNKS / plain.p(50), "1/s", len(plain))
        for route in ("lease", "commit"):
            samples = rpc.get(route, Samples())
            outcome.details[f"fleet_{route}_p50_ms"] = (
                samples.p(50, 1e3), "ms", len(samples))
        return outcome

    n = len(traced)
    lease_rpc = traced_rpc.get("lease", Samples())
    commit_rpc = traced_rpc.get("commit", Samples())
    metrics["broker.submit_ms"] = (layer["submit"].p(50, 1e3),
                                   len(layer["submit"]))
    metrics["broker.lease_p50_ms"] = (method["lease"].p(50, 1e3),
                                      len(method["lease"]))
    metrics["broker.commit_p50_ms"] = (method["commit"].p(50, 1e3),
                                       len(method["commit"]))
    metrics["journal.records"] = (layer["journal_records"].p(50), n)
    metrics["journal.record_p50_ms"] = (method["journal"].p(50, 1e3),
                                        len(method["journal"]))
    metrics["store.add_chunks_calls"] = (layer["add_calls"].p(50), n)
    metrics["store.add_chunks_p50_ms"] = (method["add_chunks"].p(50, 1e3),
                                          len(method["add_chunks"]))
    metrics["store.add_chunks_growth"] = (layer["growth"].p(50), n)
    metrics["api.lease_overhead_ms"] = (
        lease_rpc.p(50, 1e3) - method["lease"].p(50, 1e3), len(lease_rpc))
    metrics["api.commit_overhead_ms"] = (
        commit_rpc.p(50, 1e3) - method["commit"].p(50, 1e3),
        len(commit_rpc))
    metrics["rpc.lease_p99_ms"] = (lease_rpc.p(99, 1e3), len(lease_rpc))
    metrics["rpc.commit_p99_ms"] = (commit_rpc.p(99, 1e3), len(commit_rpc))
    metrics["worker.simulate_p50_ms"] = (method["simulate"].p(50, 1e3),
                                         len(method["simulate"]))
    metrics["serve.chunks_leased"] = (layer["leased"].p(50), n)
    metrics["serve.chunks_committed"] = (layer["committed"].p(50), n)
    metrics["serve.commit_duplicates"] = (layer["duplicates"].p(50), n)
    leased = layer["leased"].p(50)
    metrics["serve.commit_yield"] = (
        layer["committed"].p(50) / leased if leased else 0.0, n)
    if len(plain) and n:
        metrics["obs.trace_overhead_ratio"] = (traced.p(50) / plain.p(50),
                                               min(len(plain), n))
    return outcome
