"""Sweep service: a broker that leases seeded packet chunks to workers.

ROADMAP item 1 ("one shared cache, many clients") realized as a small
stdlib-only service.  Clients submit sweep grids to a :class:`Broker`
(usually over the HTTP API in :mod:`repro.serve.api`); the broker
decomposes each grid into the same seeded packet-chunk units the local
:class:`repro.runs.RunDriver` schedules — identical
:func:`repro.runs.store.measurement_key` content addresses, identical
:func:`repro.sim.engine.chunk_spans` layout — and hands the missing
chunks out as time-limited *leases* to pull-based workers
(:mod:`repro.serve.worker`).  Because every chunk's random stream is
content-seeded, a fleet run merges bit-identically to a local run of the
same grid, whatever workers executed which chunks in whatever order.

Lifecycle: ``submit -> lease -> heartbeat -> commit``.  A worker that
dies mid-chunk simply stops heartbeating; its lease expires and the
chunk is re-leased to the next worker.  Commits are at-most-once by
construction: the :class:`repro.runs.ResultStore` is content-addressed
and idempotent for identical replays, so a stale worker's late commit
either lands as a no-op duplicate or is rejected as a conflict — it can
never double-count packets.

Durability: with ``state_dir`` (CLI ``--state-dir``) the broker
journals every submission, grant, commit and failure to an append-only
fsynced ``journal.jsonl`` (:mod:`repro.serve.journal`) and, on restart,
replays it against the store's actual chunk coverage — committed
chunks drop out of the rebuilt queue, outstanding leases are reaped as
expired, job ids survive, and a SIGKILLed broker resumes mid-job
without re-simulating a single committed chunk.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Broker": "repro.serve.broker",
    "BrokerClient": "repro.serve.worker",
    "BrokerDrainingError": "repro.serve.broker",
    "BrokerJournal": "repro.serve.journal",
    "BrokerTransportError": "repro.serve.worker",
    "JobSpec": "repro.serve.broker",
    "Lease": "repro.serve.leases",
    "LeaseError": "repro.serve.leases",
    "LeaseExpiredError": "repro.serve.leases",
    "LeaseTable": "repro.serve.leases",
    "UnknownLeaseError": "repro.serve.leases",
    "Worker": "repro.serve.worker",
    "WorkerShutdown": "repro.serve.worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
