"""Shared fixtures: small, fast system configurations for tests."""

import errno
import os

import pytest

from repro.core.config import (
    CpuConfig,
    GpuConfig,
    NetworkConfig,
    SystemConfig,
)
from repro.mem.dram import DramConfig


@pytest.fixture
def tiny_config() -> SystemConfig:
    """A scaled-down Table I machine: fast to simulate, same structure."""
    return SystemConfig(
        cpu=CpuConfig(l1d_size=8 * 1024, l1i_size=8 * 1024,
                      l2_size=64 * 1024, store_buffer_entries=16,
                      max_outstanding_drains=4, num_mshrs=8),
        gpu=GpuConfig(num_sms=4, l1_size=4 * 1024, l2_size=64 * 1024,
                      l2_slices=2, mshrs_per_slice=8),
        dram=DramConfig(size_bytes=64 * 1024 * 1024),
        network=NetworkConfig(),
        track_values=True,
    )


@pytest.fixture
def table1_config() -> SystemConfig:
    """The paper's full Table I configuration."""
    return SystemConfig()


def _fail_replace(monkeypatch, code):
    """Make every ``os.replace`` fail with ``code``; return ``code``."""
    def replace(src, dst, **kwargs):
        raise OSError(code, os.strerror(code), str(dst))

    monkeypatch.setattr(os, "replace", replace)
    return code


@pytest.fixture
def full_disk(monkeypatch):
    """Every ``os.replace`` fails with ENOSPC, as on a full disk.

    Returns the errno the failures carry.
    """
    return _fail_replace(monkeypatch, errno.ENOSPC)


@pytest.fixture
def read_only_disk(monkeypatch):
    """Every ``os.replace`` fails with EROFS, as on a read-only mount.

    Returns the errno the failures carry.
    """
    return _fail_replace(monkeypatch, errno.EROFS)
