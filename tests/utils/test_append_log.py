"""The append-log contract, once, over every log that writes through it.

The result store, the telemetry event ledger and the broker journal all
persist through :func:`repro.utils.io.append_jsonl` and read back through
:func:`repro.utils.io.read_jsonl`.  Each case below runs against all
three through a small adapter that maps integer items to the log's own
records (a store chunk at offset ``2 * item``, a counter event, a commit
record), so crash and torn-write handling is identical by test, not by
convention.
"""

import json
import multiprocessing
import os
import warnings

import pytest

from repro.core.metrics import BERPoint
from repro.obs.ledger import LEDGER_NAME, EventLedger
from repro.runs.store import ResultStore
from repro.serve.journal import JOURNAL_NAME, BrokerJournal

KEY = "ab" * 32


class StoreLog:
    """Items are two-packet chunks of one key at offset ``2 * item``."""

    def __init__(self, directory):
        self.directory = directory
        self.path = directory / "store.jsonl"
        self.store = ResultStore(directory)

    @staticmethod
    def measurement():
        return BERPoint(ebn0_db=4.0, bit_errors=1, total_bits=128,
                        packets_sent=2, packets_failed=0)

    def record(self, item):
        return {"schema": 1, "key": KEY, "packet_offset": 2 * item,
                "measurement": self.measurement().to_dict()}

    def append(self, items):
        self.store.add_chunks([(KEY, 2 * item, self.measurement())
                               for item in items])

    def live(self):
        return sorted(offset // 2 for offset in self.store.chunks_for(KEY))

    def reload(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # one per corrupt line
            store = ResultStore(self.directory)
        return (sorted(offset // 2 for offset in store.chunks_for(KEY)),
                store.corrupt_records)


class LedgerLog:
    """Items are counter events named ``e<item>``."""

    def __init__(self, directory):
        self.path = directory / LEDGER_NAME
        self.ledger = EventLedger(self.path)

    def record(self, item):
        return {"schema": 1, "kind": "counter", "name": f"e{item}",
                "ts": 1.0, "pid": 1, "attrs": {}, "value": 1}

    def append(self, items):
        self.ledger.append([self.record(item) for item in items])

    def live(self):
        return self.reload()[0]

    def reload(self):
        events, corrupt = EventLedger(self.path).read()
        return sorted(int(event["name"][1:]) for event in events), corrupt


class JournalLog:
    """Items are commit records for task ``t:<item>``."""

    def __init__(self, directory):
        self.path = directory / JOURNAL_NAME
        self.journal = BrokerJournal(self.path)

    def record(self, item):
        return {"schema": 1, "kind": "commit", "task_id": f"t:{item}"}

    def append(self, items):
        self.journal.append([self.record(item) for item in items])

    def live(self):
        return self.reload()[0]

    def reload(self):
        records, corrupt = BrokerJournal(self.path).read()
        return (sorted(int(record["task_id"][2:]) for record in records),
                corrupt)


LOGS = [StoreLog, LedgerLog, JournalLog]


@pytest.fixture(params=LOGS, ids=["store", "ledger", "journal"])
def log(request, tmp_path):
    return request.param(tmp_path / "log")


def tear_last_line(path):
    """Chop the newline and a few bytes off the final record, as a crash
    mid-append would."""
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 5)


def test_healthy_appends_are_sorted_key_json_lines(log):
    log.append([0])
    log.append([1, 2])
    expected = "".join(json.dumps(log.record(item), sort_keys=True) + "\n"
                       for item in (0, 1, 2))
    assert log.path.read_text(encoding="utf-8") == expected
    assert log.reload() == ([0, 1, 2], 0)


def test_torn_tail_costs_only_its_own_line(log):
    log.append([0])
    log.append([1])
    tear_last_line(log.path)
    assert log.reload() == ([0], 1)
    # The next append heals the tail instead of gluing its record onto
    # the torn bytes, so it survives a reload.
    log.append([2])
    assert log.reload() == ([0, 2], 1)


def test_short_write_raises_and_the_next_append_heals(log, monkeypatch):
    log.append([0])
    real_write = os.write

    def short_write(descriptor, data):
        return real_write(descriptor, data[:len(data) // 2])

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        with pytest.raises(OSError, match="short append"):
            log.append([1])
    assert log.live() == [0]  # the failed record was never indexed
    log.append([2])
    assert log.reload() == ([0, 2], 1)


def _append_batches(log_class, directory, first_item, batches):
    log = log_class(directory)
    for batch in range(batches):
        start = first_item + 3 * batch
        log.append([start, start + 1, start + 2])


def test_concurrent_batch_appends_leave_only_whole_lines(log, tmp_path):
    context = multiprocessing.get_context("fork")
    batches = 40
    writers = [context.Process(target=_append_batches,
                               args=(type(log), log.path.parent,
                                     1000 * index, batches))
               for index in range(3)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert [writer.exitcode for writer in writers] == [0, 0, 0]
    expected = sorted(1000 * index + item for index in range(3)
                      for item in range(3 * batches))
    assert log.reload() == (expected, 0)
