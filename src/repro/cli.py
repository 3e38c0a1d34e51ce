"""Command-line interface: ``python -m repro <command>``.

Subcommands:

``run``        run one Table II benchmark under one (or every) mode
``compare``    CCSM vs direct store for one benchmark, paper metrics
``figure4``    regenerate Fig. 4 (speedups + geomean) for one input size
``figure5``    regenerate Fig. 5 (GPU L2 miss rates)
``table1``     print the simulated Table I configuration
``table2``     print the benchmark inventory
``translate``  run the §III-C source translator on a .cu file
``sweep``      ablation sweeps (ds-latency, ds-bandwidth, l2-size)
``explore``    analytic design-space explorer (docs/EXPLORER.md)
``cache``      result-cache maintenance (stats / compact / evict)
``serve``      long-running simulation job server (docs/SERVICE.md)
``submit``     submit one job to a running server and await the result
``top``        live terminal dashboard over a server's ``/metrics``
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.core.config import SystemConfig
from repro.core.protocol_mode import CoherenceMode
from repro.harness.experiments import figure4, figure5
from repro.harness.parallel import compare_many
from repro.harness.reporting import (ascii_bar_chart, format_table,
                                     phase_summary_line, timeline_summary,
                                     timeseries_panel)
from repro.harness.runner import run_benchmark
from repro.harness.sweep import sweep_config
from repro.harness.resultcache import default_cache
from repro.telemetry import (TRACER, TelemetrySettings, write_chrome_trace,
                             write_jsonl)
from repro.utils.profiler import SamplingProfiler
from repro.workloads.suite import TABLE2, benchmark_codes

MODES = {mode.value: mode for mode in CoherenceMode}

#: default sampling interval for ``compare`` (ticks); run lengths span
#: roughly 3.5M–300M ticks, so this yields a few to a few hundred samples
COMPARE_SAMPLE_INTERVAL = 1_000_000


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input-size", choices=("small", "big"),
                        default="small")


def _add_execution(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or all cores)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the persistent result cache")
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: REPRO_CACHE_DIR "
             "or .repro_cache)")


def _cache_for(args):
    if args.no_cache:
        return None
    return default_cache(args.cache_dir)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Direct store (DAC 2020) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark")
    run.add_argument("code", help="Table II code, e.g. VA")
    run.add_argument("--mode", choices=sorted(MODES) + ["all"],
                     default="direct_store")
    run.add_argument(
        "--profile", action="store_true",
        help="sample host CPU time per simulator layer "
             "(engine/warp/tlb/cache/protocol/...) and print a table")
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON (open in Perfetto); with "
             "--mode all the mode is suffixed, e.g. trace.ccsm.json")
    run.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="write raw trace events as JSON lines")
    run.add_argument(
        "--sample-interval", type=int, default=0, metavar="TICKS",
        help="record interval time-series every TICKS simulated ticks")
    run.add_argument(
        "--timeline", action="store_true",
        help="print a terminal timeline summary after each run")
    _add_common(run)

    compare = sub.add_parser("compare", help="CCSM vs direct store")
    compare.add_argument("code")
    compare.add_argument(
        "--sample-interval", type=int, default=COMPARE_SAMPLE_INTERVAL,
        metavar="TICKS",
        help="interval time-series granularity in ticks "
             f"(default {COMPARE_SAMPLE_INTERVAL:,}; 0 disables)")
    _add_common(compare)
    _add_execution(compare)

    fig4 = sub.add_parser("figure4", help="regenerate Fig. 4")
    _add_common(fig4)
    _add_execution(fig4)
    fig4.add_argument("--codes", nargs="*", default=None)

    fig5 = sub.add_parser("figure5", help="regenerate Fig. 5")
    _add_common(fig5)
    _add_execution(fig5)
    fig5.add_argument("--codes", nargs="*", default=None)

    sub.add_parser("table1", help="print the system configuration")
    sub.add_parser("table2", help="print the benchmark inventory")

    translate = sub.add_parser("translate",
                               help="source-to-source translate a file")
    translate.add_argument("path")
    translate.add_argument("--output", "-o", default=None,
                           help="write the translated source here")

    sweep = sub.add_parser("sweep", help="ablation sweeps")
    sweep.add_argument("what", choices=("ds-latency", "ds-bandwidth",
                                        "l2-size"))
    sweep.add_argument("code", nargs="?", default="VA")
    _add_common(sweep)
    _add_execution(sweep)

    explore = sub.add_parser(
        "explore", help="analytic design-space explorer")
    explore.add_argument("code", nargs="?", default="VA",
                         help="Table II code to explore (default VA)")
    _add_common(explore)
    _add_execution(explore)
    explore.add_argument(
        "--points", type=int, default=256,
        help="candidates to score analytically (default 256; the full "
             "grid when it is smaller)")
    explore.add_argument("--seed", type=int, default=0,
                         help="candidate-sampling seed (default 0)")
    explore.add_argument(
        "--top-k", type=int, default=8,
        help="frontier points to validate with real simulations "
             "(default 8, max 16)")
    explore.add_argument(
        "--axes", nargs="*", default=None, metavar="AXIS",
        help="subset of the default axes to sweep (sm_count, l1_size, "
             "l2_size, link_width, dram_banks)")
    explore.add_argument(
        "--modes", nargs="*", default=None, choices=sorted(MODES),
        help="coherence modes to include (default: ccsm direct_store)")
    explore.add_argument(
        "--serve-url", default=None, metavar="URL",
        help="fan probes and validations out to a running "
             "'repro serve' instead of simulating in-process")
    explore.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the full report as JSON")
    explore.add_argument(
        "--no-refit", action="store_true",
        help="skip the closed-loop beta refit from validation runs")

    cache_parser = sub.add_parser(
        "cache", help="result-cache maintenance")
    cache_parser.add_argument("action",
                              choices=("stats", "compact", "evict"))
    cache_parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: REPRO_CACHE_DIR "
             "or .repro_cache)")
    cache_parser.add_argument(
        "--bytes", type=int, default=None, metavar="N",
        help="byte budget: compact/evict delete least-recently-used "
             "entries beyond it (evict requires it; compact falls back "
             "to REPRO_CACHE_BYTES)")
    cache_parser.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of a table")

    serve = sub.add_parser(
        "serve", help="run the simulation job server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or all cores)")
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout (default: REPRO_SERVE_TIMEOUT "
             "or none)")
    serve.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the persistent result cache")
    serve.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: REPRO_CACHE_DIR "
             "or .repro_cache)")
    serve.add_argument(
        "--cache-bytes", type=int, default=None, metavar="BYTES",
        help="evict oldest entries beyond this budget (default: "
             "REPRO_CACHE_BYTES or unbounded)")
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs on stderr (same as "
             "REPRO_LOG=json; see docs/OBSERVABILITY.md)")

    top = sub.add_parser(
        "top", help="live dashboard over a running server's /metrics")
    top.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="server base URL (default http://127.0.0.1:8787)")
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2.0)")
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)")
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of repainting (logs, pipes)")

    submit = sub.add_parser(
        "submit", help="submit one job to a running server")
    submit.add_argument("code", help="Table II code, e.g. VA")
    submit.add_argument("--mode", choices=sorted(MODES),
                        default="direct_store")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="server base URL (default http://127.0.0.1:8787)")
    submit.add_argument(
        "--sample-interval", type=int, default=0, metavar="TICKS",
        help="request an interval time-series every TICKS ticks")
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and exit without awaiting the result")
    _add_common(submit)
    return parser


def _mode_path(path: str, mode: CoherenceMode, multi: bool) -> str:
    """Suffix the mode into *path* when several modes share one run."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.{mode.value}"
    return f"{stem}.{mode.value}.{ext}"


def _cmd_run(args) -> int:
    profiler = SamplingProfiler() if args.profile else None
    telemetry = TelemetrySettings(
        trace=bool(args.trace_out or args.trace_jsonl),
        sample_interval=args.sample_interval or 0)
    modes = (list(CoherenceMode) if args.mode == "all"
             else [MODES[args.mode]])
    multi = len(modes) > 1
    rows = []
    summaries = []
    for mode in modes:
        if telemetry.trace:
            TRACER.clear()
        with profiler or contextlib.nullcontext():
            result = run_benchmark(args.code, args.input_size, mode,
                                   telemetry=telemetry)
        rows.append((mode.value, f"{result.total_ticks:,}",
                     f"{result.gpu_l2_miss_rate:.1%}",
                     f"{result.network_messages:,}",
                     f"{result.ds_forwarded_stores:,}"))
        summaries.append(f"[{mode.value}] "
                         + phase_summary_line(result.phases))
        label = f"{args.code.upper()}/{args.input_size} {mode.value}"
        if args.trace_out:
            path = _mode_path(args.trace_out, mode, multi)
            write_chrome_trace(path, TRACER, phases=result.phases,
                               timeseries=result.timeseries, label=label)
            print(f"wrote {path} ({len(TRACER)} events, "
                  f"{TRACER.dropped} dropped)", file=sys.stderr)
        if args.trace_jsonl:
            path = _mode_path(args.trace_jsonl, mode, multi)
            write_jsonl(path, TRACER)
            print(f"wrote {path}", file=sys.stderr)
        if args.timeline:
            print(f"\n-- timeline: {label} --")
            print(timeline_summary(
                tracer=TRACER if telemetry.trace else None,
                phases=result.phases, timeseries=result.timeseries))
    print(format_table(
        ["Mode", "Total ticks", "GPU L2 miss rate", "Coherence msgs",
         "Forwards"], rows))
    for line in summaries:
        print(line)
    if profiler is not None:
        print("\nhost-time profile (all modes combined):")
        print(profiler.report())
    return 0


def _cmd_compare(args) -> int:
    telemetry = (TelemetrySettings(sample_interval=args.sample_interval)
                 if args.sample_interval > 0 else None)
    comparison = compare_many([args.code], args.input_size,
                              jobs=args.jobs, cache=_cache_for(args),
                              telemetry=telemetry)[0]
    print(format_table(
        ["Metric", "CCSM", "Direct store"],
        [("total ticks", f"{comparison.ccsm.total_ticks:,}",
          f"{comparison.direct_store.total_ticks:,}"),
         ("GPU L2 miss rate", f"{comparison.ccsm_miss_rate:.1%}",
          f"{comparison.ds_miss_rate:.1%}"),
         ("GPU L2 first-touch hits",
          f"{comparison.ccsm.gpu_l2.first_touch_hits:,}",
          f"{comparison.direct_store.gpu_l2.first_touch_hits:,}"),
         ("compulsory misses",
          f"{comparison.ccsm.gpu_l2.compulsory_misses:,}",
          f"{comparison.direct_store.gpu_l2.compulsory_misses:,}")]))
    print(f"\nspeedup: {comparison.speedup_percent:+.1f}%")
    for label, result in (("ccsm", comparison.ccsm),
                          ("direct_store", comparison.direct_store)):
        print(f"[{label}] " + phase_summary_line(result.phases))
    if telemetry is not None:
        # cached pre-telemetry entries carry no samples; the panel
        # degrades to "(no samples)" rather than failing
        for label, result in (("ccsm", comparison.ccsm),
                              ("direct_store", comparison.direct_store)):
            print(f"\n-- {label} --")
            print(timeseries_panel(result.timeseries))
    return 0


def _cmd_figure4(args) -> int:
    rows = figure4(args.input_size, codes=args.codes,
                   jobs=args.jobs, cache=_cache_for(args),
                   progress=lambda code: print(f"  finished {code}",
                                               file=sys.stderr))
    print(f"FIG. 4 — speedup, {args.input_size} inputs")
    print(ascii_bar_chart(
        [(row.code, max(0.0, row.speedup_percent)) for row in rows],
        unit="%"))
    from repro.harness.experiments import geomean_nonzero_speedup
    geomean = geomean_nonzero_speedup(rows)
    print(f"geomean of non-zero speedups: {(geomean - 1) * 100:.1f}%")
    # the bars clamp at 0, so a slowdown shows only here
    print(f"min speedup: {min(row.speedup_percent for row in rows):+.1f}%")
    return 0


def _cmd_figure5(args) -> int:
    rows = figure5(args.input_size, codes=args.codes,
                   jobs=args.jobs, cache=_cache_for(args),
                   progress=lambda code: print(f"  finished {code}",
                                               file=sys.stderr))
    print(f"FIG. 5 — GPU L2 miss rate, {args.input_size} inputs")
    print(format_table(
        ["Name", "CCSM", "Direct store"],
        [(row.code, f"{row.ccsm_miss_rate:.1%}",
          f"{row.ds_miss_rate:.1%}") for row in rows]))
    from repro.harness.experiments import geomean_miss_rates
    ccsm, direct_store = geomean_miss_rates(rows)
    print(f"geomean of non-zero GPU L2 miss rates: CCSM {ccsm:.1%} -> "
          f"direct store {direct_store:.1%}")
    return 0


def _cmd_table1(_args) -> int:
    print(SystemConfig().describe())
    return 0


def _cmd_table2(_args) -> int:
    print(format_table(
        ["Name", "Small input", "Big input", "Suite", "Shared"],
        [(row.code, row.small_input, row.big_input, row.suite,
          "Yes" if row.shared else "No") for row in TABLE2]))
    return 0


def _cmd_translate(args) -> int:
    from repro.core.translator import SourceTranslator
    with open(args.path) as handle:
        source = handle.read()
    report = SourceTranslator().translate_source(source, args.path)
    for allocation in report.allocations:
        print(f"{allocation.name}: {allocation.window_address:#x} "
              f"({allocation.size_bytes:,} bytes, "
              f"was {allocation.allocator})", file=sys.stderr)
    if report.unresolved:
        print(f"warning: unresolved kernel arguments: "
              f"{', '.join(report.unresolved)}", file=sys.stderr)
    translated = report.translated_sources[args.path]
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(translated)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(translated)
    return 0


def _cmd_sweep(args) -> int:
    if args.what == "ds-latency":
        values: List[object] = [2, 8, 32, 128]
        apply = lambda cfg, v: setattr(cfg.network, "ds_latency_cycles", v)
    elif args.what == "ds-bandwidth":
        values = [64, 32, 16, 4]
        apply = lambda cfg, v: setattr(cfg.network, "ds_bytes_per_cycle", v)
    else:
        mib = 1024 * 1024
        values = [mib // 4, mib // 2, mib, 2 * mib, 4 * mib]
        apply = lambda cfg, v: setattr(cfg.gpu, "l2_size", v)
    points = sweep_config(args.code, args.input_size, values, apply,
                          label=args.what, jobs=args.jobs,
                          cache=_cache_for(args))
    print(format_table(
        [args.what, "Speedup", "DS miss rate"],
        [(point.value, f"{(point.speedup - 1) * 100:+.1f}%",
          f"{point.comparison.ds_miss_rate:.1%}") for point in points]))
    return 0


def _cmd_explore(args) -> int:
    import json
    from repro.model import DesignSpace, default_axes, explore, \
        format_report
    axes = None
    if args.axes is not None:
        by_name = {axis.name: axis for axis in default_axes()}
        unknown = [name for name in args.axes if name not in by_name]
        if unknown:
            raise ValueError(
                f"unknown axis {unknown[0]!r}; choose from "
                f"{', '.join(by_name)}")
        if not args.axes:
            raise ValueError("--axes needs at least one axis name")
        axes = tuple(by_name[name] for name in args.axes)
    modes = None
    if args.modes is not None:
        if not args.modes:
            raise ValueError("--modes needs at least one mode")
        modes = tuple(MODES[value] for value in args.modes)
    client = None
    if args.serve_url:
        from repro.serve.client import ServeClient
        client = ServeClient.from_url(args.serve_url)
    space = DesignSpace(axes=axes, modes=modes)
    report = explore(
        args.code, args.input_size, points=args.points, seed=args.seed,
        top_k=args.top_k, space=space, jobs=args.jobs,
        cache=None if client is not None else _cache_for(args),
        client=client, refit=not args.no_refit,
        progress=lambda label: print(f"  simulated {label}",
                                     file=sys.stderr))
    print(format_report(report))
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote {args.report_out}", file=sys.stderr)
    return 0


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{value:.1f} {unit}" if unit != "B"
                    else f"{count} B")
        value /= 1024
    return f"{count} B"  # unreachable


def _cmd_cache(args) -> int:
    import json
    from repro.harness.resultcache import ResultCache
    cache = ResultCache(args.cache_dir or None)
    if args.action == "stats":
        from repro.metrics import REGISTRY
        from repro.metrics import names as metric_names
        stats = cache.scan()  # also refreshes the cache gauges
        # same names as GET /metrics — one naming source, no drift
        metrics = {}
        for name in metric_names.CACHE_FAMILIES:
            family = REGISTRY.get(name)
            metrics[name] = family.labels().value if family else 0.0
        if args.json:
            print(json.dumps(dict(stats.to_dict(),
                                  directory=str(cache.directory),
                                  metrics=metrics),
                             indent=2))
        else:
            print(format_table(["Cache", "Value"], [
                ("directory", str(cache.directory)),
                ("entries", f"{stats.entries:,}"),
                ("total size", _format_bytes(stats.total_bytes)),
                ("shard dirs", str(stats.shard_dirs)),
                ("legacy flat entries", str(stats.legacy_entries)),
                ("stale temp files", str(stats.stale_tmp)),
            ] + [(name, f"{value:g}")
                 for name, value in metrics.items()]))
        return 0
    if args.action == "evict" and args.bytes is None:
        raise ValueError("cache evict requires --bytes N")
    before = cache.scan()
    evicted = cache.compact(byte_budget=args.bytes)
    after = cache.scan()
    print(f"{args.action}: {evicted} entr"
          f"{'y' if evicted == 1 else 'ies'} evicted, "
          f"{before.stale_tmp - after.stale_tmp} stale temp file(s) "
          f"swept; {after.entries:,} entries, "
          f"{_format_bytes(after.total_bytes)} remain")
    return 0


def _cmd_serve(args) -> int:
    import os
    from repro.harness.resultcache import ResultCache
    from repro.serve.scheduler import TIMEOUT_ENV
    from repro.serve.server import run_server
    if args.log_json:
        from repro import obslog
        obslog.configure("json")
    if args.no_cache:
        cache = None
    else:
        cache = ResultCache(args.cache_dir or None,
                            byte_budget=args.cache_bytes)
    timeout = args.timeout
    if timeout is None:
        env = os.environ.get(TIMEOUT_ENV, "").strip()
        if env:
            try:
                timeout = float(env)
            except ValueError:
                raise ValueError(f"{TIMEOUT_ENV} must be a number, "
                                 f"got {env!r}") from None
    return run_server(args.host, args.port, cache=cache, jobs=args.jobs,
                      timeout_s=timeout)


def _cmd_submit(args) -> int:
    from repro.serve.client import ServeClient, ServiceError
    client = ServeClient.from_url(args.url)
    telemetry = ({"sample_interval": args.sample_interval}
                 if args.sample_interval > 0 else None)
    try:
        job = client.submit(args.code, args.input_size, args.mode,
                            telemetry=telemetry)
        job_id = job["job_id"]
        print(f"job {job_id} [{job['state']}] "
              f"{job['code']}/{job['input_size']} {job['mode']}",
              file=sys.stderr)
        if args.no_wait:
            print(job_id)
            return 0
        for transition in client.watch(job_id):
            print(f"  {transition['state']}", file=sys.stderr)
        status = client.status(job_id)
        if status["state"] != "done":
            print(f"repro submit: job {status['state']}: "
                  f"{status.get('error') or 'no result'}",
                  file=sys.stderr)
            return 1
        result = client.run_result(job_id)
        print(result.summary())
        print(f"(served from cache: "
              f"{'yes' if status.get('cached') else 'no'})",
              file=sys.stderr)
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    except ConnectionError:
        print(f"repro submit: cannot reach {args.url} — is "
              f"'python -m repro serve' running?", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args) -> int:
    from repro.serve.client import ServeClient, ServiceError
    from repro.serve.top import run_top
    base = ServeClient.from_url(args.url)
    try:
        return run_top(base.host, base.port,
                       interval_s=max(0.1, args.interval),
                       iterations=args.iterations,
                       clear=not args.no_clear)
    except ServiceError as exc:
        print(f"repro top: {exc}", file=sys.stderr)
        return 1
    except ConnectionError:
        print(f"repro top: cannot reach {args.url} — is "
              f"'python -m repro serve' running?", file=sys.stderr)
        return 1


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "translate": _cmd_translate,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "top": _cmd_top,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("run", "compare", "explore"):
        if args.code.upper() not in benchmark_codes():
            print(f"unknown benchmark {args.code!r}; choose from "
                  f"{', '.join(benchmark_codes())}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # e.g. a malformed REPRO_JOBS value
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
