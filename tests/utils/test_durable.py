"""The durable-file helpers: the append-only JSONL log and the atomic write."""

from __future__ import annotations

import errno
import json
import logging

import pytest

from repro.utils import durable
from repro.utils.durable import AppendLog, atomic_write


def line(**record) -> str:
    return json.dumps(record)


class TestAppendLog:
    def test_missing_file_reads_empty_and_is_created_on_append(self, tmp_path):
        log = AppendLog(tmp_path / "deep" / "log.jsonl")
        assert log.read() == [] and len(log) == 0
        assert log.append(line(n=0)) == 0
        assert log.path.read_text() == '{"n": 0}\n'

    def test_empty_file_starts_at_index_zero(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        log = AppendLog(path)
        assert log.read() == []
        assert log.append(line(n=0)) == 0
        assert path.read_text() == '{"n": 0}\n'

    def test_torn_tail_is_ended_once_and_skipped(self, tmp_path, caplog):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 0}\n{"n": 1, "ha')  # killed mid-write
        log = AppendLog(path)
        assert log.append(line(n=1)) == 1
        assert log.append(line(n=2)) == 2
        assert path.read_text() == '{"n": 0}\n{"n": 1, "ha\n{"n": 1}\n{"n": 2}\n'
        with caplog.at_level(logging.WARNING, logger="repro.durable"):
            assert log.read() == [{"n": 0}, {"n": 1}, {"n": 2}]
            log.read()
        assert len(caplog.records) == 1  # one warning per unreadable line
        assert "line 2" in caplog.records[0].getMessage()

    def test_tail_torn_after_the_count_is_still_repaired(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append(line(n=0))
        with log.path.open("a") as stream:  # another writer dies mid-line
            stream.write('{"n": 1')
        assert log.append(line(n=1)) == 1
        assert log.read() == [{"n": 0}, {"n": 1}]

    def test_index_continues_across_instances(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first = AppendLog(path)
        assert [first.append(line(n=n)) for n in range(3)] == [0, 1, 2]
        second = AppendLog(path)
        assert len(second) == 3
        assert second.append(line(n=3)) == 3
        assert [r["n"] for r in AppendLog(path).read()] == [0, 1, 2, 3]

    def test_since_returns_records_after_an_index(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append(*(line(n=n) for n in range(4)))
        assert [r["n"] for r in log.read(since=1)] == [2, 3]
        assert log.read(since=3) == [] and log.read(since=10) == []
        assert len(log.read(since=-1)) == len(log.read(since=-5)) == 4

    def test_batch_is_one_write_and_returns_the_first_index(self, tmp_path, monkeypatch):
        log = AppendLog(tmp_path / "log.jsonl")
        log.append(line(n=0))
        writes = []
        real_write = durable.os.write
        monkeypatch.setattr(
            durable.os, "write", lambda fd, data: writes.append(bytes(data)) or real_write(fd, data)
        )
        assert log.append(line(n=1), line(n=2), line(n=3)) == 1
        assert writes == [b'{"n": 1}\n{"n": 2}\n{"n": 3}\n']
        assert len(log) == 4 and log.append(line(n=4)) == 4


class TestAtomicWrite:
    def test_writes_str_and_bytes_and_creates_parents(self, tmp_path):
        target = tmp_path / "sub" / "file.json"
        assert atomic_write(target, '{"a": 1}') == target
        assert target.read_text() == '{"a": 1}'
        atomic_write(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert [p.name for p in target.parent.iterdir()] == ["file.json"]

    def test_failure_mid_write_keeps_old_content_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "file.json"
        target.write_text("old")
        real_write = durable.os.write

        def half_then_disk_full(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(durable.os, "write", half_then_disk_full)
        with pytest.raises(OSError):
            atomic_write(target, "new content")
        monkeypatch.undo()
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["file.json"]

    def test_temp_file_is_a_name_dot_tmp_sibling(self, tmp_path, monkeypatch):
        seen = []
        real_replace = durable.os.replace
        monkeypatch.setattr(
            durable.os, "replace", lambda src, dst: seen.append(src) or real_replace(src, dst)
        )
        atomic_write(tmp_path / "latest.json", "{}")
        assert seen[0].parent == tmp_path
        assert seen[0].name.startswith("latest.json.tmp-")
