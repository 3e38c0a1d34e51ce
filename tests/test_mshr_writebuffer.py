"""Unit tests for MSHR files and the store/write buffer."""

import pytest

from repro.mem.mshr import MSHRFile
from repro.mem.writebuffer import WriteBuffer


class TestMSHRFile:
    def test_allocate_and_lookup(self):
        mshrs = MSHRFile("m", 4)
        entry = mshrs.allocate(0x1000, 5)
        assert entry is not None
        assert mshrs.lookup(0x1000) is entry
        assert 0x1000 in mshrs

    def test_duplicate_allocation_rejected(self):
        mshrs = MSHRFile("m", 4)
        mshrs.allocate(0x1000, 0)
        with pytest.raises(ValueError):
            mshrs.allocate(0x1000, 1)

    def test_full_returns_none(self):
        mshrs = MSHRFile("m", 2)
        mshrs.allocate(0x0, 0)
        mshrs.allocate(0x80, 0)
        assert mshrs.allocate(0x100, 0) is None
        assert mshrs.stats.counter("full_stalls").value == 1

    def test_merge(self):
        mshrs = MSHRFile("m", 2)
        mshrs.allocate(0x1000, 0)
        woken = []
        assert mshrs.merge(0x1000, lambda: woken.append(1))
        waiters = mshrs.complete(0x1000)
        for waiter in waiters:
            waiter()
        assert woken == [1]

    def test_merge_missing_line_fails(self):
        assert not MSHRFile("m", 2).merge(0x1000, lambda: None)

    def test_complete_frees_entry(self):
        mshrs = MSHRFile("m", 1)
        mshrs.allocate(0x1000, 0)
        mshrs.complete(0x1000)
        assert not mshrs.is_full
        assert mshrs.lookup(0x1000) is None

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            MSHRFile("m", 1).complete(0x1000)

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile("m", 0)


class TestWriteBuffer:
    def test_fifo_order(self):
        buffer = WriteBuffer("wb", 4)
        buffer.push(0x10, 1)
        buffer.push(0x20, 2)
        assert buffer.pop()[0] == 0x10
        assert buffer.pop()[0] == 0x20

    def test_full_rejects(self):
        buffer = WriteBuffer("wb", 1)
        assert buffer.push(0x10, 1)
        assert not buffer.push(0x20, 2)
        assert buffer.stats.counter("full_stalls").value == 1

    def test_peek_does_not_remove(self):
        buffer = WriteBuffer("wb", 2)
        buffer.push(0x10, 1)
        assert buffer.peek()[0] == 0x10
        assert len(buffer) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            WriteBuffer("wb", 1).pop()

    def test_store_to_load_forwarding_youngest(self):
        buffer = WriteBuffer("wb", 4)
        buffer.push(0x10, 1)
        buffer.push(0x10, 2)
        assert buffer.forwards(0x10) == (True, 2)
        assert buffer.forwards(0x20) == (False, None)

    def test_valueless_store_still_forwards(self):
        buffer = WriteBuffer("wb", 4)
        buffer.push(0x10)
        assert buffer.forwards(0x10) == (True, None)

    def test_is_empty(self):
        buffer = WriteBuffer("wb", 2)
        assert buffer.is_empty
        buffer.push(0, 0)
        assert not buffer.is_empty
