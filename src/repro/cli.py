"""Command-line interface.

``python -m repro run`` drives a single simulation and prints (or
exports) the results; ``python -m repro figure`` regenerates one of the
paper's figures (or all of them). Examples::

    python -m repro run --system hemem+colloid --workload gups \\
        --contention 3 --duration 10 --scale 0.125
    python -m repro run --system memtis --workload cachelib \\
        --csv out.csv
    python -m repro figure fig5 --scale 0.0625 --jobs 4
    python -m repro figure all --jobs 4 --cache
    python -m repro report --out results.md --jobs 2 --cache
    python -m repro run --duration 4 --hotset-shift 2 --trace t.jsonl
    python -m repro diagnose t.jsonl --chrome-trace t.chrome.json
    python -m repro calibrate

``--jobs N`` fans simulation cells out over N worker processes; results
are bit-identical to a serial run. ``--cache`` keeps results in an
on-disk content-addressed cache (``.repro-cache/`` or ``--cache-dir``/
``REPRO_CACHE_DIR``), so repeated invocations skip already-computed
cells; it is also how a killed fleet resumes, since every cell is
stored as it completes.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.options import DEFAULT_AUDIT_PERIOD_QUANTA

FIGURES = ("fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
           "fig9", "fig10", "fig11", "overheads", "sensitivity",
           "colocation", "appendix")

WORKLOADS = ("gups", "gapbs", "silo", "cachelib")

SYSTEMS = ("hemem", "tpp", "memtis", "hemem+colloid", "tpp+colloid",
           "memtis+colloid", "static", "batman", "carrefour",
           "multitier-colloid")


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    """Batch-execution flags shared by ``figure`` and ``report``."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for simulation cells "
                             "(results are identical to --jobs 1)")
    parser.add_argument("--cache", action="store_true",
                        help="cache cell results on disk keyed by their "
                             "content hash")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="cache directory (implies --cache; default "
                             ".repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="drop all cached results first (implies "
                             "--cache)")
    parser.add_argument("--check", action="store_true",
                        help="enforce runtime invariants in every cell; "
                             "violations abort with a structured error")
    parser.add_argument("--no-progress", action="store_true",
                        help="disable the live per-cell progress line "
                             "on stderr")
    parser.add_argument("--no-solver-cache", action="store_true",
                        help="disable equilibrium-solve memoization; "
                             "solves are then always computed fresh")
    parser.add_argument("--diagnose", action="store_true",
                        help="run the run-health detectors over every "
                             "simulated cell and attach a diagnostics "
                             "summary to its result")
    parser.add_argument("--placement-audit", type=int, nargs="?",
                        const=DEFAULT_AUDIT_PERIOD_QUANTA, default=None,
                        metavar="QUANTA",
                        help="record per-quantum placement observability "
                             "(occupancy ledger, migration flows) and "
                             "audit the misplacement gap every QUANTA "
                             "quanta (default 10); attaches a placement "
                             "summary to every cell result")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Tiered Memory Management: Access "
                     "Latency is the Key!' (Colloid, SOSP 2024)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--system", choices=SYSTEMS, default="hemem+colloid")
    run.add_argument("--workload", choices=WORKLOADS, default="gups")
    run.add_argument("--contention", type=int, default=0,
                     help="antagonist intensity (0-3+)")
    run.add_argument("--contention-step", type=str, action="append",
                     default=None, metavar="TIME_S:LEVEL",
                     help="switch the antagonist to LEVEL at simulated "
                          "TIME_S (repeatable) — the Fig. 4c dynamic-"
                          "contention methodology; starts from "
                          "--contention")
    run.add_argument("--duration", type=float, default=10.0,
                     help="simulated seconds")
    run.add_argument("--scale", type=float, default=None,
                     help="geometry scale relative to the paper's 72 GB "
                          "(default: DEFAULT_SCALE or $REPRO_SCALE)")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--object-bytes", type=int, default=64,
                     help="GUPS object size")
    run.add_argument("--csv", type=str, default=None,
                     help="export the time series to this CSV path")
    run.add_argument("--json", type=str, default=None,
                     help="export the time series to this JSON path")
    run.add_argument("--trace", type=str, default=None, metavar="PATH",
                     help="write a JSONL event trace (decision tracing; "
                          "read it back with 'repro report PATH')")
    run.add_argument("--profile", action="store_true",
                     help="profile the loop's phases and print the "
                          "wall-time breakdown")
    run.add_argument("--check", action="store_true",
                     help="enforce runtime invariants (repro.check); "
                          "violations abort the run with a structured "
                          "error")
    run.add_argument("--no-solver-cache", action="store_true",
                     help="disable equilibrium-solve memoization")
    run.add_argument("--hotset-shift", type=float, action="append",
                     default=None, metavar="TIME_S",
                     help="reshuffle the workload's hot set at this "
                          "simulated time (repeatable; gups only) — "
                          "the §5.2 dynamic-workload methodology")
    run.add_argument("--placement-audit", type=int, nargs="?",
                     const=DEFAULT_AUDIT_PERIOD_QUANTA, default=None,
                     metavar="QUANTA",
                     help="record per-quantum placement observability "
                          "(occupancy ledger, migration flows, ping-pong "
                          "churn) into the trace and audit the "
                          "misplacement gap every QUANTA quanta "
                          "(default 10); needs --trace to be readable "
                          "back via 'repro report'/'repro diagnose'")
    run.add_argument("--tenant", type=str, action="append",
                     default=None, metavar="WORKLOAD[:SYSTEM]",
                     help="colocate this tenant on the machine "
                          "(repeatable; two or more turn the run into a "
                          "multi-tenant colocation and --system/"
                          "--workload are ignored); SYSTEM defaults to "
                          "hemem+colloid, tenant working sets are scaled "
                          "to share the machine")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=FIGURES + ("all",))
    figure.add_argument("--scale", type=float, default=None,
                        help="geometry scale (default: DEFAULT_SCALE or "
                             "$REPRO_SCALE)")
    figure.add_argument("--seed", type=int, default=42)
    _add_exec_options(figure)

    sub.add_parser("calibrate",
                   help="report the hardware model's calibration targets")

    report = sub.add_parser(
        "report", help="summarize a recorded JSONL trace, or (without a "
                       "trace argument) run the full evaluation and "
                       "write a markdown report of measured tables"
    )
    report.add_argument("trace", nargs="?", default=None, metavar="TRACE",
                        help="JSONL trace from 'repro run --trace'; when "
                             "given, print its run report instead of "
                             "running the evaluation")
    report.add_argument("--out", type=str, default="results.md")
    report.add_argument("--scale", type=float, default=None,
                        help="geometry scale (default: DEFAULT_SCALE or "
                             "$REPRO_SCALE)")
    report.add_argument("--seed", type=int, default=42)
    report.add_argument("--section", action="append", default=None,
                        help="run only sections whose title starts with "
                             "this (repeatable)")
    _add_exec_options(report)

    diagnose = sub.add_parser(
        "diagnose", help="run-health diagnostics over a recorded JSONL "
                         "trace: convergence, oscillation, watermark "
                         "reset storms, migration thrash; exits 2 on "
                         "critical findings"
    )
    diagnose.add_argument("trace", metavar="TRACE",
                          help="JSONL trace from 'repro run --trace'")
    diagnose.add_argument("--json", action="store_true",
                          help="emit findings + summary as JSON instead "
                               "of text")
    diagnose.add_argument("--out", type=str, default=None, metavar="PATH",
                          help="write the report to PATH instead of "
                               "stdout")
    diagnose.add_argument("--chrome-trace", type=str, default=None,
                          metavar="PATH",
                          help="also export the trace in Chrome Trace "
                               "Event Format (chrome://tracing / "
                               "Perfetto)")
    diagnose.add_argument("--epsilon", type=float, default=None,
                          help="relative latency-imbalance threshold "
                               "for convergence (default 0.10)")
    diagnose.add_argument("--sustain", type=int, default=None,
                          help="consecutive balanced quanta required "
                               "for convergence (default 5)")
    return parser


def _resolved_scale(args) -> float:
    from repro.experiments.common import default_scale

    return args.scale if args.scale is not None else default_scale()


def _build_cache(args):
    """Build the opt-in result cache from the shared exec flags."""
    from repro.exec.cache import ResultCache

    if not (args.cache or args.cache_dir or args.clear_cache):
        return None
    cache = ResultCache(args.cache_dir)
    if args.clear_cache:
        cache.clear()
    return cache


def _build_reporter(args):
    """Live fleet progress on stderr, unless opted out."""
    from repro.exec.progress import FleetProgress

    if getattr(args, "no_progress", False):
        return None
    return FleetProgress()


def _run_options(args):
    """The run's :class:`~repro.options.RunOptions`: the flags given,
    over the ``REPRO_*`` environment defaults."""
    from repro.options import RunOptions

    env = RunOptions.from_env()
    audit = getattr(args, "placement_audit", None)
    return RunOptions(
        check=env.check or getattr(args, "check", False),
        diagnose=env.diagnose or getattr(args, "diagnose", False),
        placement_audit=env.placement_audit if audit is None else audit,
        solver_cache=(env.solver_cache
                      and not getattr(args, "no_solver_cache", False)),
    )


def _build_runner(args):
    """Build the batch Runner from ``figure``/``report`` flags."""
    from repro.exec.runner import Runner

    return Runner(jobs=args.jobs, cache=_build_cache(args),
                  reporter=_build_reporter(args),
                  options=_run_options(args))


def _make_workload(kind: str, scale: float, seed: int,
                   object_bytes: int = 64):
    from repro.workloads.cachelib import CacheLibWorkload
    from repro.workloads.graph import GraphWorkload
    from repro.workloads.gups import GupsWorkload
    from repro.workloads.silo import SiloYcsbWorkload

    if kind == "gups":
        return GupsWorkload(scale=scale, seed=seed,
                            object_bytes=object_bytes)
    if kind == "gapbs":
        return GraphWorkload.synthetic(scale=scale, seed=seed)
    if kind == "silo":
        return SiloYcsbWorkload(scale=scale, seed=seed)
    return CacheLibWorkload(scale=scale, seed=seed)


def _parse_tenants(specs):
    """Parse repeated ``--tenant WORKLOAD[:SYSTEM]`` flags into unique
    (name, workload_kind, system_name) triples."""
    from repro.errors import ConfigurationError

    parsed = []
    counts: dict = {}
    for text in specs:
        kind, __, system = text.partition(":")
        if kind not in WORKLOADS:
            raise ConfigurationError(
                f"--tenant workload must be one of {WORKLOADS}, "
                f"got {kind!r}"
            )
        system = system or "hemem+colloid"
        if system not in SYSTEMS:
            raise ConfigurationError(
                f"--tenant system must be one of {SYSTEMS}, "
                f"got {system!r}"
            )
        counts[kind] = counts.get(kind, 0) + 1
        name = kind if counts[kind] == 1 else f"{kind}{counts[kind]}"
        parsed.append((name, kind, system))
    return parsed


def _build_system(name: str):
    from repro.core.multitier import MultiTierColloidSystem
    from repro.experiments.common import make_system
    from repro.memhw.topology import paper_testbed
    from repro.tiering.batman import BatmanSystem
    from repro.tiering.carrefour import CarrefourSystem
    from repro.tiering.static import StaticPlacementSystem

    if name == "static":
        return StaticPlacementSystem()
    if name == "batman":
        tiers = paper_testbed().tiers
        return BatmanSystem.from_bandwidths(
            tiers[0].theoretical_bandwidth, tiers[1].theoretical_bandwidth
        )
    if name == "carrefour":
        return CarrefourSystem()
    if name == "multitier-colloid":
        return MultiTierColloidSystem()
    return make_system(name)


def _contention_schedule(args):
    """The run's antagonist schedule: the constant ``--contention``
    level, or a step function over it when ``--contention-step`` is
    given (the paper's Fig. 4c dynamic-contention methodology)."""
    if not getattr(args, "contention_step", None):
        return args.contention
    from repro.errors import ConfigurationError

    steps = []
    for spec in args.contention_step:
        try:
            time_text, level_text = spec.split(":", 1)
            steps.append((float(time_text), int(level_text)))
        except ValueError:
            raise ConfigurationError(
                f"--contention-step expects TIME_S:LEVEL, got {spec!r}"
            )
    steps.sort()
    base = int(args.contention)

    def schedule(t: float) -> int:
        level = base
        for step_time, step_level in steps:
            if t >= step_time:
                level = step_level
        return level

    return schedule


def _run_loop(args, build):
    """Build the loop with ``build(tracer, options)``, run it for
    ``--duration`` and emit its ``run_end``; returns ``(loop, metrics,
    tracer)``."""
    from repro.obs.tracer import Tracer

    options = _run_options(args)
    tracer = Tracer(jsonl_path=args.trace) if args.trace else None
    loop = build(tracer, options)
    try:
        metrics = loop.run(duration_s=args.duration)
        loop.emit_run_end()
    finally:
        if tracer is not None:
            tracer.close()
    return loop, metrics, tracer


def _finish_run(args, loop, metrics, tracer, checks: str) -> int:
    """Write the requested exports and print the lines every run ends
    with; ``checks`` names what the checker counted."""
    from repro.runtime.export import to_csv, to_json

    if args.csv:
        print(f"wrote {to_csv(metrics, args.csv)}")
    if args.json:
        print(f"wrote {to_json(metrics, args.json)}")
    if args.trace:
        events = sum(tracer.counts.values())
        print(f"wrote {args.trace} ({events} events)")
    if args.profile:
        print("phase profile :")
        print(loop.profiler.format_summary())
    if args.check:
        print(f"invariants    : {loop.checker.checks_run} {checks} passed")
    return 0


def cmd_run_colocated(args) -> int:
    """Handle ``repro run --tenant ...``: N tenants on one machine."""
    from repro.experiments.common import scaled_machine
    from repro.runtime.colocation import ColocatedLoop, TenantSpec

    scale = _resolved_scale(args)
    parsed = _parse_tenants(args.tenant)
    # Tenants share the machine, so each gets an equal slice of the
    # scale budget; the arbiter then grants capacity per tier.
    tenant_scale = scale / len(parsed)
    tenants = [
        TenantSpec(
            name=name,
            workload=_make_workload(kind, tenant_scale, args.seed + i,
                                    object_bytes=args.object_bytes),
            system=_build_system(system),
        )
        for i, (name, kind, system) in enumerate(parsed)
    ]
    loop, metrics, tracer = _run_loop(
        args, lambda tracer, options: ColocatedLoop(
            machine=scaled_machine(scale),
            tenants=tenants,
            contention=_contention_schedule(args),
            seed=args.seed,
            tracer=tracer,
            profile=args.profile,
            options=options,
        ))
    tail = max(1, len(metrics) // 4)
    latency = metrics.latencies_ns[-tail:].mean(axis=0)
    print("tenants       : " + ", ".join(
        f"{t.name}={t.workload.name}/{t.system.name}" for t in tenants))
    print(f"contention    : {args.contention}x")
    print(f"throughput    : {metrics.steady_state_throughput():.2f} GB/s "
          "(all tenants)")
    print("tier latencies: "
          + "  ".join(f"{x:.0f} ns" for x in latency))
    grants = loop.tenant_grants
    for name, tenant_metrics in loop.tenant_metrics.items():
        t_tail = max(1, len(tenant_metrics) // 4)
        share = tenant_metrics.p_true[-t_tail:].mean()
        grant_gb = " + ".join(f"{g / 1e9:.2f}" for g in grants[name])
        print(f"  {name:<10}: "
              f"{tenant_metrics.steady_state_throughput():.2f} GB/s, "
              f"default share {share:.1%}, grant {grant_gb} GB")
    return _finish_run(args, loop, metrics, tracer, "machine checks")


def cmd_run(args) -> int:
    """Handle ``repro run``: one simulation, printed summary."""
    from repro.experiments.common import scaled_machine
    from repro.runtime.loop import SimulationLoop

    if getattr(args, "tenant", None):
        return cmd_run_colocated(args)
    scale = _resolved_scale(args)
    workload = _make_workload(args.workload, scale, args.seed,
                              object_bytes=args.object_bytes)
    if args.hotset_shift:
        from repro.errors import ConfigurationError
        from repro.workloads.dynamic import HotSetShiftWorkload
        from repro.workloads.gups import GupsWorkload

        if not isinstance(workload, GupsWorkload):
            raise ConfigurationError(
                "--hotset-shift is only defined for the gups workload"
            )
        workload = HotSetShiftWorkload(workload, args.hotset_shift)
    loop, metrics, tracer = _run_loop(
        args, lambda tracer, options: SimulationLoop(
            machine=scaled_machine(scale),
            workload=workload,
            system=_build_system(args.system),
            contention=_contention_schedule(args),
            seed=args.seed,
            tracer=tracer,
            profile=args.profile,
            options=options,
        ))
    tail = max(1, len(metrics) // 4)
    latency = metrics.latencies_ns[-tail:].mean(axis=0)
    print(f"system        : {args.system}")
    print(f"workload      : {workload.name} "
          f"({workload.working_set_bytes / 1e9:.1f} GB working set)")
    if args.contention_step:
        steps = ", ".join(sorted(args.contention_step))
        print(f"contention    : {args.contention}x, then {steps}")
    else:
        print(f"contention    : {args.contention}x")
    print(f"throughput    : {metrics.steady_state_throughput():.2f} GB/s")
    print("tier latencies: "
          + "  ".join(f"{x:.0f} ns" for x in latency))
    print(f"default share : {metrics.p_true[-tail:].mean():.1%}")
    return _finish_run(args, loop, metrics, tracer, "checks")


def cmd_figure(args) -> int:
    """Handle ``repro figure``: regenerate one paper figure (or all)."""
    from repro.experiments.common import ExperimentConfig

    config = ExperimentConfig(scale=_resolved_scale(args), seed=args.seed)
    runner = _build_runner(args)
    names = FIGURES if args.name == "all" else (args.name,)
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        if len(names) > 1:
            print(f"== {name} ==")
        if name == "fig4":
            print(module.format_rows(module.run()))
        else:
            print(module.format_rows(module.run(config, runner=runner)))
        if len(names) > 1:
            print()
    print(runner.stats.summary())
    return 0


def cmd_calibrate() -> int:
    """Handle ``repro calibrate``: print model-vs-paper anchors."""
    from repro.memhw.calibration import calibration_report

    report = calibration_report()
    for group, entries in report.items():
        print(group)
        if isinstance(entries, dict) and "achieved" in entries:
            print(f"  achieved={entries['achieved']} "
                  f"target={entries['target']}")
            continue
        for key, entry in entries.items():
            print(f"  {key}: achieved={entry['achieved']:.3f} "
                  f"target={entry['target']:.3f}")
    return 0


def cmd_report(args) -> int:
    """Handle ``repro report``: summarize a trace, or run the evaluation
    and write the markdown report."""
    if args.trace is not None:
        from repro.obs.report import report_from_file

        print(report_from_file(args.trace))
        return 0

    from repro.experiments.common import ExperimentConfig
    from repro.experiments.report import write

    config = ExperimentConfig(
        scale=_resolved_scale(args), seed=args.seed,
        migration_limit_bytes=8 * 1024 * 1024,
        duration_caps={"hemem": 12.0, "memtis": 20.0, "tpp": 45.0},
    )
    runner = _build_runner(args)
    path = write(args.out, config, sections=args.section,
                 progress=lambda title: print(f"running: {title}"),
                 runner=runner)
    print(runner.stats.summary())
    print(f"wrote {path}")
    return 0


def cmd_diagnose(args) -> int:
    """Handle ``repro diagnose``: judge a recorded trace's run health.

    Exit codes: 0 = no critical findings, 2 = at least one critical
    finding (1 is reserved for errors, as everywhere else).
    """
    from pathlib import Path

    import json as json_module

    from repro.obs.chrometrace import export_chrome_trace
    from repro.obs.diagnose import (
        DEFAULT_CONFIG,
        diagnose_timeline,
        format_diagnostics,
        with_overrides,
    )
    from repro.obs.report import tenant_names_of, tenant_view
    from repro.obs.timeline import build_timeline
    from repro.obs.tracer import load_events

    config = with_overrides(DEFAULT_CONFIG, epsilon=args.epsilon,
                            sustain_quanta=args.sustain)
    events = load_events(args.trace)
    timeline = build_timeline(events)
    tenants = tenant_names_of(events)
    if tenants:
        # Colocated trace: each tenant's controller is judged on its own
        # view (its labeled events plus the shared machine context);
        # criticals in any tenant make the run critical.
        sections = {}
        timelines = {}
        for tenant in tenants:
            tenant_timeline = build_timeline(tenant_view(events, tenant))
            timelines[tenant] = tenant_timeline
            sections[tenant] = diagnose_timeline(tenant_timeline, config)
        has_critical = any(d.has_critical for d in sections.values())
        if args.json:
            payload = {"tenants": {name: diag.to_dict()
                                   for name, diag in sections.items()}}
            text = json_module.dumps(payload, indent=2) + "\n"
        else:
            parts = []
            for name, diag in sections.items():
                parts.append(f"== tenant: {name} ==")
                parts.append(format_diagnostics(
                    diag, timeline=timelines[name]))
            text = "\n".join(parts) + "\n"
    else:
        diagnostics = diagnose_timeline(timeline, config)
        has_critical = diagnostics.has_critical
        if args.json:
            text = diagnostics.to_json() + "\n"
        else:
            text = format_diagnostics(diagnostics,
                                      timeline=timeline) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    if args.chrome_trace:
        export_chrome_trace(events, args.chrome_trace, timeline=timeline)
        print(f"wrote {args.chrome_trace}")
    return 2 if has_critical else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "figure":
            return cmd_figure(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "diagnose":
            return cmd_diagnose(args)
        return cmd_calibrate()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
