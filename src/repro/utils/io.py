"""The package's two write disciplines, each defined only here.

:func:`atomic_write_text` replaces whole files (manifests, artifacts,
summaries, shard markers); :func:`append_jsonl` / :func:`read_jsonl` are
the append-only JSON-lines log (result store, event ledger, broker
journal).
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

__all__ = ["append_jsonl", "atomic_write_text", "read_jsonl"]


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (all-or-nothing).

    The content goes to a uniquely named sibling temporary file, is
    fsynced, and then renamed over the target, so readers and crashes
    see the old content or the new, never a torn mix.  Concurrent
    writers of one path never share a temporary file (the last rename
    wins); a failed write removes its temporary file.
    """
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def append_jsonl(path, records) -> None:
    """Append ``records`` to the JSON-lines log at ``path`` as one batch.

    One sorted-key JSON line per record, sent as a single ``os.write`` on
    an ``O_APPEND`` descriptor and fsynced: concurrent appenders never
    interleave partial lines and a crash tears at worst the final line.
    A torn tail (no final newline) gets a newline first, so it costs only
    its own line.  A short write raises ``OSError``; the next append
    heals the partial line it left.
    """
    payload = "".join(json.dumps(record, sort_keys=True) + "\n"
                      for record in records).encode("utf-8")
    if not payload:
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(descriptor).st_size
        if size and os.pread(descriptor, 1, size - 1) != b"\n":
            payload = b"\n" + payload
        written = os.write(descriptor, payload)
        if written != len(payload):
            raise OSError(errno.EIO, f"short append to {path}: wrote "
                                     f"{written} of {len(payload)} bytes")
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def read_jsonl(path, parse) -> tuple[list, list[tuple[int, ValueError]]]:
    """Read the JSON-lines log at ``path``, tolerating damaged lines.

    Each non-blank line is decoded as JSON and passed through ``parse``
    (which rejects a record by raising ``ValueError``).  Returns
    ``(records, corrupt)``: the parsed records and ``(line_number,
    error)`` for every undecodable or rejected line.  A missing file
    reads as empty.
    """
    records: list = []
    corrupt: list[tuple[int, ValueError]] = []
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return records, corrupt
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(json.loads(line.decode("utf-8"))))
            except ValueError as error:
                corrupt.append((line_number, error))
    return records, corrupt
