"""Which layer each per-layer metric measures, and which end-to-end
metric on which workload it is expected to move.

These predictions were written down before any optimization was
measured, so that a later change claiming a gain on one layer can be
checked against them: the claimed end-to-end metric should move on the
named workload, and the other workloads should not.  ``None`` marks a
metric that is reported only.
"""

from __future__ import annotations

__all__ = ["PREDICTIONS"]

_SWEEP = ("throughput_per_ref", "sweep_fullstack")
_FLEET_RATE = ("throughput_per_ref", "fleet_small_chunks")
_FLEET_RPC = ("latency_p50_ref", "fleet_small_chunks")
_CLI = ("latency_p50_ref", "cli_cached")

#: per-layer metric -> (layer, (end-to-end metric, workload) or None)
PREDICTIONS = {
    "rx.synthesis_s": ("repro.sim.batch_rx", _SWEEP),
    "rx.channel_fft_s": ("repro.sim.batch_rx", _SWEEP),
    "rx.acquisition_s": ("repro.sim.batch_rx", _SWEEP),
    "rx.chanest_s": ("repro.sim.batch_rx", _SWEEP),
    "rx.rake_s": ("repro.sim.batch_rx", _SWEEP),
    "rx.viterbi_s": ("repro.sim.batch_rx", _SWEEP),
    "sim.chunks": ("repro.sim", _SWEEP),
    "sim.chunk_run_s": ("repro.sim", _SWEEP),
    "sim.chunk_p50_s": ("repro.sim", _SWEEP),
    "sim.pool_run_s": ("repro.sim", _SWEEP),
    "sim.shm_pack_s": ("repro.sim", _SWEEP),
    "sim.queue_wait_s": ("repro.sim", _SWEEP),
    "sim.pool_efficiency": ("repro.sim", _SWEEP),
    "sim.span_coverage": ("repro.obs", None),
    "driver.create_s": ("repro.runs.driver", _SWEEP),
    "driver.run_shard_s": ("repro.runs.driver", _SWEEP),
    "driver.outside_pool_s": ("repro.runs.driver", _SWEEP),
    "store.add_chunks_calls": ("repro.runs.store", _FLEET_RPC),
    "store.add_chunks_p50_ms": ("repro.runs.store", _FLEET_RPC),
    "store.add_chunks_growth": ("repro.runs.store", _FLEET_RPC),
    "store.open_ms": ("repro.runs.warehouse", _CLI),
    "startup.interpreter_s": ("startup", _CLI),
    "startup.import_cli_s": ("startup", _CLI),
    "cli.main_sweep_ms": ("repro.runs.cli", _CLI),
    "cli.main_show_ms": ("repro.runs.cli", _CLI),
    "cli.main_report_ms": ("repro.runs.cli", _CLI),
    "cli.main_query_ms": ("repro.runs.cli", _CLI),
    "cli.main_merge_ms": ("repro.runs.cli", _CLI),
    "broker.submit_ms": ("repro.serve.broker", _FLEET_RATE),
    "broker.lease_p50_ms": ("repro.serve.broker", _FLEET_RPC),
    "broker.commit_p50_ms": ("repro.serve.broker", _FLEET_RPC),
    "journal.records": ("repro.serve.journal", _FLEET_RPC),
    "journal.record_p50_ms": ("repro.serve.journal", _FLEET_RPC),
    "api.lease_overhead_ms": ("repro.serve.api", _FLEET_RPC),
    "api.commit_overhead_ms": ("repro.serve.api", _FLEET_RPC),
    "rpc.lease_p99_ms": ("repro.serve.api", None),
    "rpc.commit_p99_ms": ("repro.serve.api", None),
    "worker.simulate_p50_ms": ("repro.serve.worker", _FLEET_RATE),
    "serve.chunks_leased": ("repro.serve.leases", _FLEET_RATE),
    "serve.chunks_committed": ("repro.serve.broker", _FLEET_RATE),
    "serve.commit_duplicates": ("repro.serve.broker", _FLEET_RATE),
    "serve.commit_yield": ("repro.serve.leases", _FLEET_RATE),
    "obs.trace_overhead_ratio": ("repro.obs", None),
    "ops_failed_ratio": ("all layers", None),
}
