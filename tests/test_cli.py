"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Keep CLI invocations from touching the repo's .repro_cache/."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestTableCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "16 - 32 lanes per SM" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "BP" in out and "delaunay-n15" in out


class TestRunCommands:
    def test_run_single_mode(self, capsys):
        assert main(["run", "PT", "--mode", "ccsm"]) == 0
        out = capsys.readouterr().out
        assert "ccsm" in out and "Total ticks" in out

    def test_run_profile_prints_layers_with_unchanged_ticks(self, capsys):
        assert main(["run", "VA", "--mode", "ccsm"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "VA", "--mode", "ccsm", "--profile"]) == 0
        profiled = capsys.readouterr().out
        ticks_row = next(line for line in plain.splitlines()
                         if line.startswith("ccsm "))
        assert ticks_row in profiled.splitlines()
        assert "host-time profile" in profiled
        header = next(line for line in profiled.splitlines()
                      if line.startswith("layer "))
        assert header.split() == ["layer", "samples", "est", "s", "%"]
        assert "total" in profiled.splitlines()[-1]

    def test_run_unknown_code(self, capsys):
        assert main(["run", "ZZ"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "PT"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_figure4_subset(self, capsys):
        assert main(["figure4", "--codes", "PT"]) == 0
        out = capsys.readouterr().out
        assert "FIG. 4" in out and "geomean" in out
        assert "min speedup" in out

    def test_figure5_subset(self, capsys):
        assert main(["figure5", "--codes", "PT"]) == 0
        out = capsys.readouterr().out
        assert "FIG. 5" in out and "PT" in out
        assert "geomean of non-zero GPU L2 miss rates: CCSM" in out


class TestTranslate:
    def test_translate_to_stdout(self, tmp_path, capsys):
        source = tmp_path / "prog.cu"
        source.write_text(
            "#define N 64\nint *x;\n"
            "x = (int *)malloc(N * sizeof(int));\n"
            "k<<<g, b>>>(x);\n")
        assert main(["translate", str(source)]) == 0
        captured = capsys.readouterr()
        assert "mmap" in captured.out
        assert "0x400000000000" in captured.err

    def test_translate_to_file(self, tmp_path, capsys):
        source = tmp_path / "prog.cu"
        source.write_text(
            "int *x;\nx = (int *)malloc(4096);\nk<<<g, b>>>(x);\n")
        output = tmp_path / "prog_ds.cu"
        assert main(["translate", str(source), "-o", str(output)]) == 0
        assert "mmap" in output.read_text()


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "0" in out

    def test_stats_json(self, capsys):
        import json
        assert main(["cache", "stats", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] == 0
        assert "directory" in document

    def test_compact_after_population(self, capsys):
        assert main(["compare", "PT"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "2" in capsys.readouterr().out  # both modes cached
        assert main(["cache", "compact"]) == 0
        out = capsys.readouterr().out
        assert "0 entries evicted" in out

    def test_evict_requires_bytes(self, capsys):
        assert main(["cache", "evict"]) == 2
        assert "--bytes" in capsys.readouterr().err

    def test_negative_bytes_rejected(self, capsys):
        assert main(["cache", "compact", "--bytes", "-1"]) == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_evict_to_zero_budget(self, capsys):
        assert main(["compare", "PT"]) == 0
        capsys.readouterr()
        assert main(["cache", "evict", "--bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert main(["cache", "stats", "--json"]) == 0

    def test_stats_prints_metric_names(self, capsys):
        """Counter names match /metrics — one naming source, no drift."""
        from repro.metrics import names
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        for name in names.CACHE_FAMILIES:
            assert name in out

    def test_stats_json_metric_names(self, capsys):
        import json
        from repro.metrics import names
        assert main(["cache", "stats", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(names.CACHE_FAMILIES) <= set(document["metrics"])


class TestTopCommand:
    def test_top_renders_against_live_server(self, capsys):
        from repro.harness.resultcache import ResultCache
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread
        import os
        cache_dir = os.environ["REPRO_CACHE_DIR"]
        with ServerThread(cache=ResultCache(cache_dir),
                          jobs=1, use_processes=False) as server:
            client = ServeClient("127.0.0.1", server.port)
            job = client.submit("PT", input_size="small",
                                mode="direct_store")
            client.wait(job["job_id"])
            url = f"http://127.0.0.1:{server.port}"
            assert main(["top", "--url", url, "--iterations", "2",
                         "--interval", "0.1", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "queue" in out and "cache" in out and "latency" in out
        assert out.count("jobs") >= 2  # two frames rendered

    def test_top_unreachable_server(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "0")
        assert main(["top", "--url", "http://127.0.0.1:9",
                     "--iterations", "1"]) == 1
        assert "unreachable" in capsys.readouterr().err


class TestExploreErrors:
    def test_unknown_code(self, capsys):
        assert main(["explore", "ZZ"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_unknown_axis(self, capsys):
        assert main(["explore", "VA", "--axes", "warp_width"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_top_k_over_budget(self, capsys):
        assert main(["explore", "VA", "--top-k", "17"]) == 2
        assert "top_k" in capsys.readouterr().err


class TestArgumentErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_input_size(self):
        with pytest.raises(SystemExit):
            main(["run", "VA", "--input-size", "huge"])
