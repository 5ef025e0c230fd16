"""repro.obs: lightweight, dependency-free run telemetry.

Instrumentation for the sweep stack with one hard contract: **off by
default and bitwise invisible**.  Results, ``config_digest``, store
keys, and golden fixtures are identical whether recording is on or off,
and the disabled path is a true no-op (a null recorder, zero clock
reads).

* :mod:`repro.obs.recorder` — :class:`Recorder` (``span()`` context
  managers, counters, gauges, Prometheus text exposition via
  :meth:`Recorder.render_prom`), the no-op :class:`NullRecorder`, and
  the :func:`active`/:func:`activate` pattern that lets leaf code (the
  batched receiver stages, the pool workers' chunks, the result store)
  record against whatever recorder the orchestration layer installed.
* :mod:`repro.obs.ledger` — the per-run append-only ``events.jsonl``
  ledger and aggregated ``telemetry.json`` summary written next to
  ``manifest.json``, plus the schema validator CI runs against them.
* :mod:`repro.obs.progress` — the ``--progress`` live single-line CLI
  readout (chunks, points, throughput, cache-hit share).
* :mod:`repro.obs.report` — the ``python -m repro report`` renderer
  (span tables, chunk latency histogram, per-scenario throughput,
  slowest-chunk top-k).

Enable telemetry with ``SweepEngine(recorder=Recorder())`` or the CLI's
``--telemetry`` flag; drive progress with ``--progress``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "EVENT_SCHEMA_VERSION": "repro.obs.recorder",
    "LEDGER_NAME": "repro.obs.ledger",
    "NULL_RECORDER": "repro.obs.recorder",
    "SUMMARY_NAME": "repro.obs.ledger",
    "EventLedger": "repro.obs.ledger",
    "NullRecorder": "repro.obs.recorder",
    "ProgressLine": "repro.obs.progress",
    "Recorder": "repro.obs.recorder",
    "activate": "repro.obs.recorder",
    "active": "repro.obs.recorder",
    "load_run_events": "repro.obs.report",
    "render_report": "repro.obs.report",
    "summarize": "repro.obs.ledger",
    "validate_event": "repro.obs.ledger",
    "write_summary": "repro.obs.ledger",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
