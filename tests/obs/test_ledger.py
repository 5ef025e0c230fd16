"""Event schema validation, the JSONL ledger, and the summary artifact."""

import json
import os

import pytest

from repro.obs.ledger import (
    LEDGER_NAME,
    SUMMARY_NAME,
    EventLedger,
    summarize,
    validate_event,
    write_summary,
)
from repro.obs.recorder import Recorder


def make_events():
    recorder = Recorder(clock=iter(range(100)).__next__,
                        time_source=lambda: 42.0)
    with recorder.span("chunk.run", scenario="awgn", packets=4):
        pass
    recorder.counter("store.chunks_added", 3)
    recorder.gauge("pool.workers", 2)
    return recorder.drain()


def valid_event(**overrides):
    event = {"schema": 1, "kind": "counter", "name": "x", "ts": 1.0,
             "pid": 1, "attrs": {}, "value": 1}
    event.update(overrides)
    return event


#: Malformed events that are still valid JSON (so can sit in a ledger).
MALFORMED = [
    "not a dict",
    valid_event(schema=2),
    valid_event(kind="timer"),
    valid_event(name=""),
    valid_event(name=7),
    valid_event(ts="late"),
    valid_event(pid="p"),
    valid_event(attrs=None),
    valid_event(value="many"),
    {"schema": 1, "kind": "span", "name": "s", "ts": 1.0, "pid": 1,
     "attrs": {}},                                      # span, no duration
]


class TestValidateEvent:
    def test_recorder_events_validate(self):
        for event in make_events():
            validate_event(event)

    def test_accepts_span_with_duration(self):
        validate_event(valid_event(kind="span", duration_s=0.5, value=None))

    @pytest.mark.parametrize("broken", MALFORMED + [
        valid_event(attrs={"bad": object()}),           # not JSON-safe
    ])
    def test_rejects_malformed(self, broken):
        with pytest.raises(ValueError):
            validate_event(broken)


class TestEventLedger:
    def test_round_trip(self, tmp_path):
        ledger = EventLedger(tmp_path / LEDGER_NAME)
        events = make_events()
        assert ledger.append(events) == len(events)
        loaded, corrupt = ledger.read()
        assert corrupt == 0
        assert loaded == json.loads(json.dumps(events))

    def test_appends_accumulate(self, tmp_path):
        ledger = EventLedger(tmp_path / LEDGER_NAME)
        ledger.append(make_events())
        ledger.append(make_events())
        loaded, _ = ledger.read()
        assert len(loaded) == 2 * len(make_events())

    def test_empty_batch_writes_nothing(self, tmp_path):
        ledger = EventLedger(tmp_path / LEDGER_NAME)
        assert ledger.append([]) == 0
        assert not ledger.path.exists()
        assert ledger.read() == ([], 0)

    def test_rejects_invalid_batch_without_partial_write(self, tmp_path):
        ledger = EventLedger(tmp_path / LEDGER_NAME)
        with pytest.raises(ValueError):
            ledger.append(make_events() + [{"schema": 99}])
        assert not ledger.path.exists()

    def test_skips_schema_violations_on_read(self, tmp_path):
        ledger = EventLedger(tmp_path / LEDGER_NAME)
        ledger.append(make_events())
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(valid_event(kind="timer")) + "\n")
        loaded, corrupt = ledger.read()
        assert corrupt == 1
        assert all(event["kind"] in ("span", "counter", "gauge")
                   for event in loaded)

    @pytest.mark.parametrize("broken", MALFORMED)
    def test_read_skips_every_malformed_event(self, tmp_path, broken):
        ledger = EventLedger(tmp_path / LEDGER_NAME)
        events = make_events()
        ledger.append(events)
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(broken) + "\n")
        assert ledger.read() == (json.loads(json.dumps(events)), 1)


class TestSummarize:
    def test_aggregates_all_kinds(self):
        events = [
            valid_event(kind="span", name="s", duration_s=1.0),
            valid_event(kind="span", name="s", duration_s=3.0),
            valid_event(kind="counter", name="c", value=2),
            valid_event(kind="counter", name="c", value=5),
            valid_event(kind="gauge", name="g", value=9),
            valid_event(kind="gauge", name="g", value=4),
        ]
        summary = summarize(events)
        assert summary["events"] == 6
        span = summary["spans"]["s"]
        assert span["count"] == 2
        assert span["total_s"] == pytest.approx(4.0)
        assert span["min_s"] == pytest.approx(1.0)
        assert span["max_s"] == pytest.approx(3.0)
        assert span["mean_s"] == pytest.approx(2.0)
        assert summary["counters"] == {"c": 7}
        assert summary["gauges"]["g"] == {"last": 4.0, "max": 9.0}

    def test_empty(self):
        summary = summarize([])
        assert summary["events"] == 0
        assert summary["spans"] == {}
        assert summary["counters"] == {}
        assert summary["gauges"] == {}

    def test_write_summary_is_valid_json(self, tmp_path):
        path = tmp_path / SUMMARY_NAME
        returned = write_summary(path, make_events())
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk == json.loads(json.dumps(returned))
        assert on_disk["events"] == len(make_events())
        assert not [name for name in os.listdir(tmp_path)
                    if name != SUMMARY_NAME], "temp file left behind"
