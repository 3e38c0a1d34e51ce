"""Tests for JSON result persistence."""

import json

import pytest

from repro.core.protocol_mode import CoherenceMode
from repro.harness.persist import (
    SCHEMA_VERSION,
    comparison_to_dict,
    save_comparisons,
)
from repro.harness.parallel import compare_many


@pytest.fixture(scope="module")
def comparison(request):
    from repro.core.config import (
        CpuConfig,
        GpuConfig,
        SystemConfig,
    )
    from repro.mem.dram import DramConfig
    config = SystemConfig(
        cpu=CpuConfig(l2_size=64 * 1024),
        gpu=GpuConfig(num_sms=4, l2_size=64 * 1024, l2_slices=2),
        dram=DramConfig(size_bytes=64 * 1024 * 1024),
        track_values=False)
    [comparison] = compare_many(["PT"], "small", config, jobs=1)
    return comparison


class TestSerialisation:
    def test_roundtrip(self, tmp_path, comparison):
        path = save_comparisons(tmp_path / "out" / "fig4.json",
                                "fig4-small", [comparison])
        loaded = json.loads(path.read_text())["results"]
        assert len(loaded) == 1
        assert loaded[0]["code"] == "PT"
        assert loaded[0]["speedup"] == pytest.approx(comparison.speedup)
        assert (loaded[0]["ccsm"]["total_ticks"]
                == comparison.ccsm.total_ticks)

    def test_dict_shape(self, comparison):
        record = comparison_to_dict(comparison)
        assert set(record) == {"code", "input_size", "speedup", "ccsm",
                               "direct_store"}
        assert "forwarded_stores" in record["direct_store"]

    def test_label_recorded(self, tmp_path, comparison):
        path = save_comparisons(tmp_path / "r.json", "my-label",
                                [comparison])
        document = json.loads(path.read_text())
        assert document["label"] == "my-label"

    def test_schema_version_checked(self, tmp_path, comparison):
        path = save_comparisons(tmp_path / "r.json", "v", [comparison])
        document = json.loads(path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
