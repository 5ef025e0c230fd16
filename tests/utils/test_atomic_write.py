"""Whole-file atomic replacement (repro.utils.io.atomic_write_text)."""

import multiprocessing

import pytest

from repro.utils.io import atomic_write_text

WRITES_PER_PROCESS = 300


def _rewrite_repeatedly(path, tag):
    # Raises (non-zero exit code) on the first failed write.
    for index in range(WRITES_PER_PROCESS):
        atomic_write_text(path, f"{tag}-{index}\n" * 32)


def test_replaces_content_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "telemetry.json"
    atomic_write_text(path, "old\n")
    atomic_write_text(path, "new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["telemetry.json"]


def test_failed_write_keeps_old_content_and_removes_temporary(tmp_path):
    path = tmp_path / "manifest.json"
    atomic_write_text(path, "old\n")
    with pytest.raises(TypeError):
        atomic_write_text(path, None)  # the write itself fails
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_concurrent_writers_of_one_path_never_collide(tmp_path):
    # Two processes rewriting one file (concurrent shards flushing the
    # same telemetry.json): each write must succeed and the survivor
    # must be one writer's whole final content.
    path = tmp_path / "telemetry.json"
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_rewrite_repeatedly, args=(path, tag))
               for tag in ("a", "b")]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert [writer.exitcode for writer in writers] == [0, 0]
    last = WRITES_PER_PROCESS - 1
    assert path.read_text(encoding="utf-8") in (
        f"a-{last}\n" * 32, f"b-{last}\n" * 32)
    assert [p.name for p in tmp_path.iterdir()] == ["telemetry.json"]
