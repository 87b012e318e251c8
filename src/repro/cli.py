"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the library's workflows:

- ``figures``   reproduce the paper's figures (tables + ASCII plots + CSV);
- ``scenario``  render a random fault scenario (blocks or MCCs);
- ``route``     route one packet and show the path on the mesh;
- ``trace``     hop-by-hop decision log: which safe condition / extension
  justified the route, and the rule behind every forwarding step;
- ``stats``     aggregate observability metrics (routes, protocol messages,
  timing spans) for one scenario, as a table, JSON, or Prometheus text
  (``--prom``), optionally with profiling (``--profile``);
- ``protocols`` run the distributed information protocols and report cost;
- ``chaos``     torment the hardened protocols with message loss and
  crash/revive schedules, then verify re-convergence against the batch
  oracles (non-zero exit on divergence); ``--record`` flight-records the
  run to a replayable log;
- ``replay``    re-execute a flight-recorder log and assert bit-identical
  event streams; ``--at`` time-travels to any tick, ``--lineage`` prints
  an event's causal ancestry, ``--bisect`` finds the first divergent
  event between two logs;
- ``top``       the same chaos workload under a live ANSI dashboard:
  per-tick sparklines of queue depth and channel counters with an alert
  banner (``--once`` prints a single final frame for scripts);
- ``serve-metrics``  run the chaos workload with a live HTTP exporter:
  ``/metrics`` (Prometheus text), ``/series.json``, ``/healthz``,
  ``/readyz``; ``--linger`` keeps serving after the run so scrapers can
  poll (SIGTERM/SIGINT during the linger flips ``/readyz`` to 503,
  drains within ``--grace``, and exits 0),
  ``--push``/``--series-out`` atomically write the final state to files;
- ``serve``     routability queries as a service: an asyncio HTTP front
  end answering "is (s,d) minimally routable, and by which strategy?"
  against a live incremental fault engine, with admission control,
  per-request deadlines, fault ingestion that publishes each event's
  snapshot before the next query, and a degraded-answer circuit
  breaker (``/query``, ``/fault``, ``/healthz``, ``/readyz``,
  ``/metrics``); SIGTERM/SIGINT drain gracefully and exit 0;
- ``memory``    per-node state each information model keeps;
- ``sweep``     the mesh-size invariance sweep.

Exit codes follow one convention everywhere: 0 success, 1 the run itself
went wrong (divergence, routing failure, ``--fail-on-alerts`` firing, an
output file that cannot be written), 2 bad usage (invalid arguments,
missing inputs).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Sequence

import numpy as np


def _parse_coord(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return (int(x), int(y))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Extended minimal routing in 2-D meshes with faulty blocks "
        "(Wu & Jiang, ICDCS 2002) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce the paper's figures")
    figures.add_argument(
        "which",
        nargs="*",
        default=["all"],
        choices=["all", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
        help="figures to run (default: all)",
    )
    figures.add_argument("--full", action="store_true", help="paper scale (200x200)")
    figures.add_argument("--plot", action="store_true", help="include ASCII plots")
    figures.add_argument("--csv", type=pathlib.Path, help="directory for CSV dumps")

    scenario = sub.add_parser("scenario", help="render a random fault scenario")
    _common_scenario_args(scenario)
    scenario.add_argument("--mcc", action="store_true", help="show type-one MCCs")

    route = sub.add_parser("route", help="route one packet and draw the path")
    _common_scenario_args(route)
    route.add_argument("--source", type=_parse_coord, help="x,y (default: centre)")
    route.add_argument("--dest", type=_parse_coord, required=True, help="x,y")
    route.add_argument(
        "--router",
        choices=["wu", "greedy", "detour", "oracle"],
        default="wu",
        help="routing policy (default: wu)",
    )

    trace = sub.add_parser(
        "trace", help="hop-by-hop routing decision log (safe conditions + rules)"
    )
    trace.add_argument("source", type=_parse_coord, help="x,y")
    trace.add_argument("dest", type=_parse_coord, help="x,y")
    _common_scenario_args(trace)
    trace.add_argument(
        "--jsonl", type=pathlib.Path, help="also dump the raw trace events as JSONL"
    )
    trace.add_argument(
        "--kind", action="append", metavar="KIND",
        help="only show events of this kind (repeatable; see EVENT_KINDS)",
    )
    trace.add_argument(
        "--node", type=_parse_coord, action="append", metavar="X,Y",
        help="only show events touching this node (repeatable)",
    )

    stats = sub.add_parser(
        "stats", help="aggregate routing/protocol metrics for one scenario"
    )
    _common_scenario_args(stats)
    stats.add_argument(
        "--routes", type=int, default=50, help="random routes to drive (default 50)"
    )
    stats.add_argument("--json", action="store_true", help="emit the snapshot as JSON")
    stats.add_argument(
        "--prom", action="store_true",
        help="emit the snapshot in Prometheus text exposition format",
    )
    stats.add_argument(
        "--out", type=pathlib.Path, metavar="PATH",
        help="with --prom: atomically write the exposition to PATH instead "
        "of stdout (exit 2 without --prom, exit 1 if PATH is unwritable)",
    )
    stats.add_argument(
        "--profile", action="store_true",
        help="profile the run under cProfile (adds the top functions by "
        "cumulative time)",
    )
    stats.add_argument(
        "--jsonl", type=pathlib.Path, help="also dump the raw trace events as JSONL"
    )
    stats.add_argument(
        "--chaos", type=float, metavar="LOSS", default=None,
        help="run the protocols hardened under this per-hop loss rate "
        "(the chaos.* hot counters then appear in the output)",
    )

    chaos = sub.add_parser(
        "chaos", help="chaos-test the hardened protocols and verify convergence"
    )
    _common_scenario_args(chaos)
    _chaos_workload_args(chaos)
    chaos.add_argument(
        "--record", type=pathlib.Path, metavar="LOG",
        help="flight-record the run to this JSONL log (plus a seekable "
        ".idx sidecar); a diverging report then includes a record/replay "
        "bisection to the first divergent event",
    )

    replay = sub.add_parser(
        "replay", help="replay, inspect, or bisect a flight-recorder log"
    )
    replay.add_argument(
        "log", type=pathlib.Path, help="a recording made with 'chaos --record'"
    )
    replay.add_argument(
        "--at", type=float, metavar="TICK",
        help="time-travel: reconstruct the network state at this simulated tick",
    )
    replay.add_argument(
        "--lineage", type=int, metavar="EVENT_ID",
        help="print the causal ancestry tree of one event",
    )
    replay.add_argument(
        "--bisect", type=pathlib.Path, metavar="OTHER",
        help="binary-search this log against OTHER for the first divergent event",
    )
    replay.add_argument(
        "--print", action="store_true", dest="print_events",
        help="dump the recorded events instead of replaying",
    )
    replay.add_argument(
        "--kind", action="append", metavar="KIND",
        help="with --print: only show events of this kind (repeatable)",
    )
    replay.add_argument(
        "--node", type=_parse_coord, action="append", metavar="X,Y",
        help="with --print: only show events touching this node (repeatable)",
    )

    top = sub.add_parser(
        "top", help="chaos workload under a live ANSI dashboard (sparklines + alerts)"
    )
    _common_scenario_args(top)
    _chaos_workload_args(top)
    top.add_argument(
        "--refresh", type=int, default=16,
        help="redraw every N sampled ticks (default 16)",
    )
    top.add_argument(
        "--delay", type=float, default=0.0, metavar="SECONDS",
        help="sleep after each redraw so the live view is watchable "
        "(default 0: run at full speed)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single final frame instead of live redraws",
    )
    top.add_argument(
        "--no-color", action="store_true",
        help="plain text: no ANSI colors or cursor control",
    )
    top.add_argument(
        "--width", type=int, default=48, help="sparkline width (default 48)"
    )

    serve = sub.add_parser(
        "serve-metrics",
        help="run the chaos workload behind a live /metrics scrape endpoint",
    )
    _common_scenario_args(serve)
    _chaos_workload_args(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="port to serve on (default 0: pick a free ephemeral port)",
    )
    serve.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep serving this long after the run completes so scrapers "
        "can poll the final state (default 0)",
    )
    serve.add_argument(
        "--push", type=pathlib.Path, metavar="PATH",
        help="atomically write the final /metrics exposition to PATH",
    )
    serve.add_argument(
        "--series-out", type=pathlib.Path, metavar="PATH",
        help="atomically write the final /series.json body to PATH",
    )
    serve.add_argument(
        "--fail-on-alerts", action="store_true",
        help="exit 1 if any alert rule fired during the run",
    )
    serve.add_argument(
        "--grace", type=float, default=2.0, metavar="SECONDS",
        help="drain grace period for in-flight scrapes on shutdown (default 2)",
    )

    serve_live = sub.add_parser(
        "serve",
        help="answer routability queries over HTTP against live fault state",
    )
    _common_scenario_args(serve_live)
    serve_live.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_live.add_argument(
        "--port", type=int, default=0,
        help="port to serve on (default 0: pick a free ephemeral port)",
    )
    serve_live.add_argument(
        "--queue-limit", type=int, default=256,
        help="admission queue bound; beyond it requests shed with "
        "'overloaded' (default 256)",
    )
    serve_live.add_argument(
        "--workers", type=int, default=4,
        help="async query workers draining the queue (default 4)",
    )
    serve_live.add_argument(
        "--deadline-ms", type=float, default=50.0,
        help="per-request deadline budget in milliseconds (default 50)",
    )
    serve_live.add_argument(
        "--no-mcc", action="store_true",
        help="block model only: skip MCC tracking and the mcc query model",
    )
    serve_live.add_argument(
        "--events", type=int, default=0,
        help="background chaos events injected while serving (default 0: none)",
    )
    serve_live.add_argument(
        "--event-interval", type=float, default=0.5, metavar="SECONDS",
        help="delay between background chaos events (default 0.5)",
    )
    serve_live.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the background chaos schedule (default 0)",
    )
    serve_live.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="shut down gracefully after SECONDS (default: serve until signalled)",
    )
    serve_live.add_argument(
        "--grace", type=float, default=5.0, metavar="SECONDS",
        help="drain grace period for queued queries on shutdown (default 5)",
    )
    serve_live.add_argument(
        "--notice", type=float, default=0.0, metavar="SECONDS",
        help="hold /readyz at 503 this long before draining, so load "
        "balancers observe the flip (default 0)",
    )

    protocols = sub.add_parser("protocols", help="distributed info-formation costs")
    _common_scenario_args(protocols)

    memory = sub.add_parser("memory", help="per-node state for each information model")
    _common_scenario_args(memory)

    sweep = sub.add_parser("sweep", help="mesh-size invariance sweep")
    sweep.add_argument(
        "--sides", type=int, nargs="+", default=[40, 60, 80], help="mesh sides to sweep"
    )
    sweep.add_argument("--patterns", type=int, default=6, help="patterns per side")
    return parser


def _common_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--side", type=int, default=24, help="mesh side (default 24)")
    parser.add_argument("--faults", type=int, default=20, help="fault count (default 20)")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")


def _chaos_workload_args(parser: argparse.ArgumentParser) -> None:
    """The knobs shared by every verb that drives a chaos run."""
    parser.add_argument(
        "--loss", type=float, default=0.05, help="per-hop drop probability (default 0.05)"
    )
    parser.add_argument(
        "--dup", type=float, default=0.0, help="per-hop duplication probability"
    )
    parser.add_argument(
        "--corrupt", type=float, default=0.0, help="per-hop corruption probability"
    )
    parser.add_argument(
        "--jitter", type=int, default=0, help="max extra delivery latency in ticks"
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the channel fault plan (default 0)",
    )
    parser.add_argument(
        "--events", type=int, default=10,
        help="crash/revive events in the schedule (default 10; 0 disables)",
    )
    parser.add_argument(
        "--pulses", type=int, default=2,
        help="stabilization pulses after the schedule (default 2)",
    )


# ----------------------------------------------------------------------


def _cmd_figures(args, out: Callable[[str], None]) -> int:
    from repro.experiments import (
        ExperimentConfig,
        fig7_affected_rows,
        fig8_disabled_nodes,
        fig9_extension1,
        fig10_extension2,
        fig11_extension3,
        fig12_strategies,
    )

    runners = {
        "fig7": fig7_affected_rows,
        "fig8": fig8_disabled_nodes,
        "fig9": fig9_extension1,
        "fig10": fig10_extension2,
        "fig11": fig11_extension3,
        "fig12": fig12_strategies,
    }
    wanted = list(runners) if "all" in args.which else list(dict.fromkeys(args.which))
    config = ExperimentConfig.paper() if args.full else ExperimentConfig.quick()
    out(config.describe())
    for name in wanted:
        series = runners[name](config, progress=lambda msg: out(f"  {msg}"))
        out(series.render(with_plot=args.plot))
        if args.csv:
            args.csv.mkdir(parents=True, exist_ok=True)
            (args.csv / f"{name}.csv").write_text(series.to_csv())
            out(f"wrote {args.csv / f'{name}.csv'}")
    return 0


def _check_scenario(args, out: Callable[[str], None]) -> bool:
    """Whether ``--side`` and ``--faults`` make a scenario (the centre
    stays fault-free); prints the error if not."""
    if args.side < 1:
        out(f"error: --side must be >= 1, got {args.side}")
        return False
    if not 0 <= args.faults < args.side * args.side:
        out(
            f"error: --faults must be in [0, {args.side * args.side - 1}] "
            f"on a {args.side}x{args.side} mesh, got {args.faults}"
        )
        return False
    return True


class _ScenarioError(Exception):
    """Arguments that pass :func:`_check_scenario` yet draw no scenario."""


def _build_scenario(args):
    from repro.faults.injection import generate_scenario
    from repro.mesh.topology import Mesh2D

    mesh = Mesh2D(args.side, args.side)
    rng = np.random.default_rng(args.seed)
    try:
        return generate_scenario(mesh, args.faults, rng), rng
    except RuntimeError as error:  # every draw buried the centre in a block
        raise _ScenarioError(f"{error}; try fewer --faults") from None


def _cmd_scenario(args, out: Callable[[str], None]) -> int:
    from repro.faults.mcc import MCCType, NodeStatus
    from repro.viz.ascii_art import render_mesh, render_scenario

    scenario, _ = _build_scenario(args)
    out(
        f"{scenario.mesh}: {scenario.num_faults} faults -> "
        f"{len(scenario.blocks)} blocks ({scenario.blocks.num_disabled} disabled)"
    )
    if args.mcc:
        mccs = scenario.mccs(MCCType.TYPE_ONE)
        marks = {
            coord: {"u": "u", "c": "c"}[
                "u" if mccs.status_at(coord) is NodeStatus.USELESS else "c"
            ]
            for coord in scenario.mesh.nodes()
            if mccs.status_at(coord) in (NodeStatus.USELESS, NodeStatus.CANT_REACH)
        }
        out(render_mesh(scenario.mesh, faulty=mccs.faulty, marks=marks))
        out("legend: # faulty, u useless, c can't-reach, . free")
    else:
        out(render_scenario(scenario))
        out("legend: # faulty, x disabled, . free")
    return 0


def _cmd_route(args, out: Callable[[str], None]) -> int:
    from repro.core.routing import WuRouter
    from repro.core.safety import compute_safety_levels
    from repro.core.conditions import is_safe
    from repro.routing.detour import DetourRouter
    from repro.routing.oracle import MonotoneOracleRouter
    from repro.routing.router import GreedyAdaptiveRouter, RoutingError
    from repro.viz.ascii_art import render_scenario

    scenario, _ = _build_scenario(args)
    mesh, blocks = scenario.mesh, scenario.blocks
    source = args.source if args.source is not None else mesh.center
    dest = args.dest
    for endpoint, name in ((source, "source"), (dest, "destination")):
        if not mesh.in_bounds(endpoint):
            out(f"error: {name} {endpoint} is outside the mesh")
            return 2
        if blocks.is_unusable(endpoint):
            out(f"error: {name} {endpoint} lies inside a faulty block")
            return 2

    levels = compute_safety_levels(mesh, blocks.unusable)
    out(f"safe condition (Definition 3): {is_safe(levels, source, dest)}")
    routers = {
        "wu": lambda: WuRouter(mesh, blocks),
        "greedy": lambda: GreedyAdaptiveRouter(mesh, blocks.unusable),
        "detour": lambda: DetourRouter(mesh, blocks),
        "oracle": lambda: MonotoneOracleRouter(mesh, blocks.unusable),
    }
    try:
        path = routers[args.router]().route(source, dest)
    except RoutingError as error:
        out(f"{args.router} routing failed: {error}")
        return 1
    kind = "minimal" if path.is_minimal else f"{path.detours}-detour"
    out(f"{args.router} delivered in {path.hops} hops ({kind})")
    out(render_scenario(scenario, path=path.nodes, source=source, dest=dest))
    return 0


def _format_trace_event(event) -> str | None:
    """One pretty line per replayed trace event (None: not user-facing).

    Timing spans are deliberately omitted so the trace output is
    deterministic under a fixed seed.
    """
    from repro.mesh.geometry import Direction

    data = event.data
    if event.kind == "extension_fired":
        via = f", helper {data['via']}" if data["via"] is not None else ""
        return f"route plan: {data['decision']}{via} (+{data['overhead']} hops allowed)"
    if event.kind == "route_start":
        return f"leg: {data['source']} -> {data['dest']} [{data['router']}, D={data['distance']}]"
    if event.kind == "hop":
        direction = Direction.between(tuple(data["at"]), tuple(data["to"])).name
        bits = []
        if "rule" in data:
            bits.append(data["rule"])
        if "candidates" in data:
            bits.append(f"{data['candidates']} choice(s)")
        if "forbidden" in data:
            bits.append("forbidden " + "/".join(data["forbidden"]))
        note = f"  [{', '.join(bits)}]" if bits else ""
        return f"  hop {data['index'] + 1:>3}: {data['at']} -> {data['to']} {direction}{note}"
    if event.kind == "detour":
        return "        ^ detour: this hop moves away from the destination"
    if event.kind == "block_hit":
        return (
            f"  block: preferred {data['direction']} neighbour {data['blocked']} "
            f"of {data['at']} is unusable"
        )
    if event.kind == "route_end":
        quality = "minimal" if data["minimal"] else f"{data['detours']} detour(s)"
        return f"leg delivered: {data['hops']} hops ({quality})"
    if event.kind == "route_failed":
        return f"leg failed at {data['at']}: {data['reason']}"
    return None


#: Payload fields that can hold a node coordinate (``--node`` filtering).
_COORD_FIELDS = ("at", "to", "src", "dst", "source", "dest", "blocked", "via")


def _event_touches_node(event, nodes) -> bool:
    """True if any coordinate-valued payload field names one of ``nodes``."""
    for key in _COORD_FIELDS:
        value = event.data.get(key)
        if value is None:
            continue
        try:
            coord = (int(value[0]), int(value[1]))
        except (TypeError, ValueError, IndexError, KeyError):
            continue
        if coord in nodes:
            return True
    return False


def _check_kind_filter(kinds, out: Callable[[str], None]) -> int:
    """Validate ``--kind`` values against the event vocabulary (0 = ok)."""
    from repro.obs import EVENT_KINDS

    unknown = [kind for kind in kinds or () if kind not in EVENT_KINDS]
    if unknown:
        out(
            f"error: unknown event kind(s) {', '.join(unknown)}; "
            f"valid kinds: {', '.join(sorted(EVENT_KINDS))}"
        )
        return 2
    return 0


def _cmd_trace(args, out: Callable[[str], None]) -> int:
    from repro.core.conditions import DecisionKind
    from repro.core.extensions import decision_cascade
    from repro.core.routing import WuRouter, route_with_decision
    from repro.core.safety import UNBOUNDED, compute_safety_levels
    from repro.mesh.geometry import manhattan_distance
    from repro.obs import JsonlSink, MetricsSink, RingBufferSink, Tracer, use_tracer
    from repro.routing.detour import DetourRouter
    from repro.routing.router import RoutingError

    if _check_kind_filter(args.kind, out):
        return 2
    scenario, _ = _build_scenario(args)
    mesh, blocks = scenario.mesh, scenario.blocks
    source, dest = args.source, args.dest
    for endpoint, name in ((source, "source"), (dest, "destination")):
        if not mesh.in_bounds(endpoint):
            out(f"error: {name} {endpoint} is outside the mesh")
            return 2
        if blocks.is_unusable(endpoint):
            out(f"error: {name} {endpoint} lies inside a faulty block")
            return 2

    blocked = blocks.unusable
    levels = compute_safety_levels(mesh, blocked)
    out(
        f"{mesh}: {scenario.num_faults} faults -> {len(blocks)} blocks; "
        f"routing {source} -> {dest} (D = {manhattan_distance(source, dest)})"
    )
    esl = ", ".join(
        "clear" if level >= UNBOUNDED else str(level) for level in levels.esl(source)
    )
    out(f"source ESL (E, S, W, N): ({esl})")

    decision = None
    for label, candidate in decision_cascade(mesh, levels, blocked, source, dest):
        if candidate.kind is DecisionKind.UNSAFE:
            out(f"  {label}: does not apply")
        else:
            via = f" via {candidate.via}" if candidate.via is not None else ""
            out(f"  {label}: fires ({candidate.kind.value}{via})")
            decision = candidate
            break

    ring = RingBufferSink(capacity=8192)
    metrics = MetricsSink()
    sinks: list = [ring, metrics]
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    tracer = Tracer(*sinks)
    status = 0
    path = None
    error_partial: list = []
    try:
        with use_tracer(tracer):
            if decision is not None:
                path = route_with_decision(
                    WuRouter(mesh, blocks), decision, blocked=blocked
                )
            else:
                out("  no safe condition applies -- falling back to XY-detour routing")
                path = DetourRouter(mesh, blocks).route(source, dest)
    except RoutingError as error:
        status = 1
        error_partial = error.partial
    finally:
        tracer.close()

    out("")
    kinds = set(args.kind) if args.kind else None
    nodes = set(args.node) if args.node else None
    filtered = kinds is not None or nodes is not None
    for event in ring:
        if kinds is not None and event.kind not in kinds:
            continue
        if nodes is not None and not _event_touches_node(event, nodes):
            continue
        line = _format_trace_event(event)
        if line is None and filtered:
            # Under an explicit filter, kinds without a pretty form (e.g.
            # protocol_msg) are still wanted: show the raw event.
            line = str(event)
        if line is not None:
            out(line)

    out("")
    if path is not None:
        extra = path.hops - manhattan_distance(source, dest)
        quality = "minimal" if extra == 0 else f"sub-minimal, +{extra}"
        out(
            f"delivered in {path.hops} hops ({quality}); events: "
            f"{metrics.event_counts.get('hop', 0)} hop, "
            f"{metrics.event_counts.get('detour', 0)} detour, "
            f"{metrics.event_counts.get('block_hit', 0)} block_hit"
        )
    else:
        out(f"routing failed; partial trace: {' -> '.join(str(c) for c in error_partial)}")
    if args.jsonl:
        out(f"wrote {sinks[-1].events_written} events to {args.jsonl}")
    return status


def _top_functions(profile) -> list[dict]:
    """The 10 hottest frames of a cProfile run, by cumulative time."""
    import pstats

    rows = [
        {"function": f"{filename}:{line}({func})", "calls": ncalls,
         "tottime_s": tottime, "cumtime_s": cumtime}
        for (filename, line, func), (_, ncalls, tottime, cumtime, _)
        in pstats.Stats(profile).stats.items()  # type: ignore[attr-defined]
    ]
    rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
    return rows[:10]


def _cmd_stats(args, out: Callable[[str], None]) -> int:
    import contextlib
    import cProfile
    import json

    from repro.core.conditions import DecisionKind
    from repro.core.extensions import extension1_decision
    from repro.core.routing import WuRouter, route_with_decision
    from repro.core.safety import compute_safety_levels
    from repro.obs import JsonlSink, MetricsSink, Tracer, render_prometheus, use_tracer
    from repro.routing.detour import DetourRouter
    from repro.routing.router import RoutingError
    from repro.simulator.protocols import (
        run_block_formation,
        run_boundary_distribution,
        run_safety_propagation,
    )

    if args.out is not None and not args.prom:
        out("error: --out only applies to the Prometheus exposition; add --prom")
        return 2
    if args.routes < 0:
        out(f"error: --routes must be >= 0, got {args.routes}")
        return 2
    scenario, rng = _build_scenario(args)
    mesh, blocks = scenario.mesh, scenario.blocks
    blocked = blocks.unusable
    chaos_plan = None
    if args.chaos is not None:
        from repro.chaos import ChannelFaultPlan

        chaos_plan = ChannelFaultPlan(drop=args.chaos, seed=args.seed)
    metrics = MetricsSink()
    sinks: list = [metrics]
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    tracer = Tracer(*sinks)
    profile = cProfile.Profile() if args.profile else contextlib.nullcontext()
    free = [coord for coord in mesh.nodes() if not blocked[coord]]
    try:
        with use_tracer(tracer), profile:
            with tracer.span("stats.esl"):
                levels = compute_safety_levels(mesh, blocked)
            with tracer.span("stats.protocols"):
                run_block_formation(mesh, scenario.faults, chaos=chaos_plan)
                run_safety_propagation(mesh, blocked, chaos=chaos_plan)
                run_boundary_distribution(
                    mesh, blocks.rects(), blocked, chaos=chaos_plan
                )
            with tracer.span("stats.incremental"):
                # Replay the scenario's faults one arrival at a time through
                # the delta-maintenance engine so the incr.* hot counters
                # (events, affected cells, fallback rebuilds) land in the
                # snapshot alongside the batch numbers.
                from repro.faults.incremental import IncrementalFaultEngine

                fault_engine = IncrementalFaultEngine(mesh)
                for fault in scenario.faults:
                    fault_engine.inject(fault)
            router = WuRouter(mesh, blocks)
            fallback = DetourRouter(mesh, blocks)
            with tracer.span("stats.routing"):
                for _ in range(args.routes):
                    src = free[int(rng.integers(len(free)))]
                    dst = free[int(rng.integers(len(free)))]
                    if src == dst:
                        continue
                    decision = extension1_decision(mesh, levels, blocked, src, dst)
                    try:
                        if decision.kind is DecisionKind.UNSAFE:
                            fallback.route(src, dst)
                        else:
                            route_with_decision(router, decision, blocked=blocked)
                    except RoutingError:
                        pass  # recorded by the tracer as a route_failed event
    finally:
        tracer.close()

    hot = dict(sorted(tracer.hot.items()))
    top = _top_functions(profile) if args.profile else []
    if args.prom:
        text = render_prometheus([metrics.families, tracer.families])
        if args.out is not None:
            from repro.obs import atomic_write_text

            try:
                atomic_write_text(args.out, text)
            except OSError as error:
                out(f"error: cannot write {args.out}: {error}")
                return 1
            out(f"wrote {args.out}")
        else:
            out(text.rstrip("\n"))
    elif args.json:
        snapshot = metrics.snapshot()
        snapshot["hot_counters"] = hot
        if args.profile:
            snapshot["top_functions"] = top
        out(json.dumps(snapshot, indent=2))
    else:
        out(
            f"{mesh}: {scenario.num_faults} faults, {len(blocks)} blocks, "
            f"{args.routes} routes"
        )
        out(metrics.to_table())
        if hot:
            out("hot counters")
            width = max(map(len, hot))
            for name, value in hot.items():
                out(f"  {name:<{width}}  {value}")
        if top:
            out(f"top functions (cumulative, top {len(top)})")
            for row in top:
                out(f"  {row['cumtime_s'] * 1e3:8.2f}ms  x{row['calls']:<7} "
                    f"{row['function']}")
    if args.jsonl:
        out(f"wrote {sinks[-1].events_written} events to {args.jsonl}")
    return 0


def _chaos_ingredients(args, out: Callable[[str], None]):
    """(mesh, faults, plan, schedule) for a chaos-style verb, or None on
    invalid arguments (the caller returns exit code 2)."""
    from repro.chaos import ChannelFaultPlan, ChaosSchedule
    from repro.faults.injection import uniform_faults
    from repro.mesh.topology import Mesh2D

    for name, value in (("loss", args.loss), ("dup", args.dup), ("corrupt", args.corrupt)):
        if not 0.0 <= value <= 1.0:
            out(f"error: --{name} must be a probability in [0, 1], got {value}")
            return None
    for name, value in (("jitter", args.jitter), ("pulses", args.pulses), ("events", args.events)):
        if value < 0:
            out(f"error: --{name} must be >= 0, got {value}")
            return None
    mesh = Mesh2D(args.side, args.side)
    rng = np.random.default_rng(args.seed)
    faults = uniform_faults(mesh, args.faults, rng)
    plan = ChannelFaultPlan(
        drop=args.loss, duplicate=args.dup, corrupt=args.corrupt,
        jitter=args.jitter, seed=args.chaos_seed,
    )
    schedule = None
    if args.events > 0:
        schedule = ChaosSchedule.random(
            mesh, rng, events=args.events, forbidden=set(faults)
        )
    out(
        f"{mesh}: {len(faults)} initial faults; plan: {plan.describe()}; "
        f"schedule: {args.events} events; {args.pulses} stabilization pulse(s)"
    )
    return mesh, faults, plan, schedule


def _cmd_chaos(args, out: Callable[[str], None]) -> int:
    from repro.chaos import verify_convergence

    ingredients = _chaos_ingredients(args, out)
    if ingredients is None:
        return 2
    mesh, faults, plan, schedule = ingredients
    recorder = None
    if args.record is not None:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(args.record)
    try:
        report = verify_convergence(
            mesh, faults, plan, schedule,
            stabilize_rounds=args.pulses, seed=args.chaos_seed,
            recorder=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()
    if recorder is not None:
        out(
            f"recorded {len(recorder.events)} events to {args.record} "
            f"(index: {args.record.name}.idx)"
        )
    out(report.summary())
    if not report.ok:
        for coord in report.block_mismatches[:10]:
            out(f"  block mismatch at {coord}")
        for coord, direction, got, want in report.esl_mismatches[:10]:
            out(f"  ESL mismatch at {coord} {direction}: distributed {got}, oracle {want}")
        for source, dest in report.safety_mismatches[:10]:
            out(f"  safety verdict mismatch for {source} -> {dest}")
        if report.bisection is not None:
            out(report.bisection.render())
        return 1
    return 0


def _cmd_top(args, out: Callable[[str], None]) -> int:
    import time

    from repro.chaos import verify_convergence
    from repro.obs import Dashboard, Observatory

    if args.refresh < 1:
        out(f"error: --refresh must be >= 1, got {args.refresh}")
        return 2
    if args.width < 1:
        out(f"error: --width must be >= 1, got {args.width}")
        return 2
    if args.delay < 0:
        out(f"error: --delay must be >= 0, got {args.delay}")
        return 2
    ingredients = _chaos_ingredients(args, out)
    if ingredients is None:
        return 2
    mesh, faults, plan, schedule = ingredients

    observatory = Observatory()
    dashboard = Dashboard(observatory, width=args.width, color=not args.no_color)
    if not args.once:
        samples = [0]

        def redraw(tick: float) -> None:
            samples[0] += 1
            if samples[0] % args.refresh:
                return
            out(dashboard.frame())
            if args.delay > 0:
                time.sleep(args.delay)

        observatory.on_sample = redraw

    report = verify_convergence(
        mesh, faults, plan, schedule,
        stabilize_rounds=args.pulses, seed=args.chaos_seed,
        observatory=observatory,
    )
    out(dashboard.frame())
    out(report.summary())
    return 0 if report.ok else 1


def _cmd_serve_metrics(args, out: Callable[[str], None]) -> int:
    import asyncio
    import json

    from repro.chaos import verify_convergence
    from repro.obs import (
        MetricsSink, Observatory, TelemetryApp, Tracer, atomic_write_text, run_app,
        use_tracer,
    )

    if args.linger < 0:
        out(f"error: --linger must be >= 0, got {args.linger}")
        return 2
    if args.grace < 0:
        out(f"error: --grace must be >= 0, got {args.grace}")
        return 2
    ingredients = _chaos_ingredients(args, out)
    if ingredients is None:
        return 2
    mesh, faults, plan, schedule = ingredients

    # The metrics sink doubles as a tracer sink (protocol message
    # families on /metrics) and the sampler's per-kind message source.
    metrics = MetricsSink()
    observatory = Observatory(metrics=metrics)
    tracer = Tracer(metrics)
    app = TelemetryApp(
        observatory=observatory, metrics=metrics, tracer=tracer,
        host=args.host, port=args.port, grace_s=args.grace,
    )
    status = 0

    def _verify():
        try:
            with use_tracer(tracer):
                return verify_convergence(
                    mesh, faults, plan, schedule,
                    stabilize_rounds=args.pulses, seed=args.chaos_seed,
                    observatory=observatory,
                )
        finally:
            tracer.close()

    # The run goes to a worker thread so the loop keeps answering
    # scrapes.  SIGTERM/SIGINT set ``stop``: they end the linger early,
    # and run_app then flips /readyz to 503 and drains within --grace;
    # the verb still exits 0 (an operator stop is not a failure).
    async def _work(stop: asyncio.Event) -> None:
        nonlocal status
        out(f"serving {app.url('/metrics')} (also /series.json, /healthz, /readyz)")
        report = await asyncio.to_thread(_verify)
        out(report.summary())
        if not report.ok:
            status = 1
        if args.fail_on_alerts and report.alerts:
            fired = ", ".join(sorted({alert.rule for alert in report.alerts}))
            out(f"FAIL: {len(report.alerts)} alert(s) fired: {fired}")
            status = 1
        if args.linger > 0 and not stop.is_set():
            out(f"lingering {args.linger:g}s for scrapers")
            try:
                await asyncio.wait_for(stop.wait(), args.linger)
            except asyncio.TimeoutError:
                pass
        if stop.is_set():
            out("shutdown requested: /readyz now 503, draining")
        if args.push is not None:
            atomic_write_text(args.push, app.render_metrics())
            out(f"wrote {args.push}")
        if args.series_out is not None:
            body = json.dumps(app.series_json(), indent=2, sort_keys=True) + "\n"
            atomic_write_text(args.series_out, body)
            out(f"wrote {args.series_out}")

    try:
        drained = asyncio.run(run_app(app, work=_work))
    except OSError as error:
        out(f"error: {error}")
        return 1
    if not drained:
        out(f"drain grace ({args.grace:g}s) expired with scrapes in flight")
    return status


def _cmd_serve(args, out: Callable[[str], None]) -> int:
    import asyncio

    from repro.chaos.schedule import ChaosSchedule
    from repro.faults.injection import uniform_faults
    from repro.mesh.topology import Mesh2D
    from repro.serve import QueryPipeline, RoutingService, ServeApp, run_app

    for name, value, minimum in (
        ("--queue-limit", args.queue_limit, 1),
        ("--workers", args.workers, 1),
        ("--grace", args.grace, 0),
        ("--notice", args.notice, 0),
        ("--events", args.events, 0),
    ):
        if value < minimum:
            out(f"error: {name} must be >= {minimum}, got {value}")
            return 2
    if args.deadline_ms <= 0:
        out(f"error: --deadline-ms must be > 0, got {args.deadline_ms}")
        return 2
    if args.ttl is not None and args.ttl <= 0:
        out(f"error: --ttl must be > 0, got {args.ttl}")
        return 2

    mesh = Mesh2D(args.side, args.side)
    rng = np.random.default_rng(args.seed)
    faults = uniform_faults(mesh, args.faults, rng, forbidden={mesh.center})
    service = RoutingService(mesh, faults, mcc_model=not args.no_mcc)
    pipeline = QueryPipeline(
        service,
        queue_limit=args.queue_limit,
        workers=args.workers,
        deadline_s=args.deadline_ms / 1e3,
    )
    app = ServeApp(
        service, pipeline,
        host=args.host, port=args.port,
        grace_s=args.grace, notice_s=args.notice,
    )

    schedule = None
    if args.events > 0:
        schedule = ChaosSchedule.random(
            mesh, np.random.default_rng(args.chaos_seed),
            events=args.events, horizon=max(2.0, float(args.events)),
            forbidden=set(faults) | {mesh.center},
        )

    # Background churn stops with the service: SIGTERM/SIGINT set
    # ``stop``, and --ttl cancels this coroutine.
    async def _serve(stop: asyncio.Event) -> None:
        out(
            f"serving {app.url('/query')} "
            "(also /fault, /healthz, /readyz, /metrics)"
        )
        out(
            f"{mesh}: {len(faults)} faults at generation 0; "
            f"queue={args.queue_limit} workers={args.workers} "
            f"deadline={args.deadline_ms:g}ms"
        )
        if schedule is not None:
            out(
                f"background churn: {len(schedule)} chaos events every "
                f"{args.event_interval:g}s"
            )
        for event in schedule or ():
            try:
                await asyncio.wait_for(stop.wait(), args.event_interval)
                return
            except asyncio.TimeoutError:
                pass
            try:
                pipeline.ingest_fault(event.action, event.coord)
            except ValueError:
                pass  # absorbed by block formation already
        await stop.wait()

    try:
        asyncio.run(run_app(app, ttl_s=args.ttl, work=_serve))
    except OSError as error:
        out(f"error: {error}")
        return 1
    counters = pipeline.stats()["counters"]
    out(
        f"drained: {counters.get('served', 0)} served, "
        f"{counters.get('shed_overload', 0) + counters.get('shed_deadline', 0)} shed, "
        f"{counters.get('degraded', 0)} degraded, "
        f"{counters.get('faults_ingested', 0)} fault events, "
        f"generation {service.generation}"
    )
    return 0


def _cmd_replay(args, out: Callable[[str], None]) -> int:
    from repro.obs.recorder import read_recording, render_lineage
    from repro.obs.replay import bisect_logs, replay_events, state_at
    from repro.obs.sinks import JsonlDecodeError

    if _check_kind_filter(args.kind, out):
        return 2
    if not args.log.exists():
        out(f"error: recording {args.log} does not exist")
        return 2
    try:
        events = read_recording(args.log)
    except JsonlDecodeError as error:
        out(f"error: {error}")
        return 2

    if args.bisect is not None:
        if not args.bisect.exists():
            out(f"error: recording {args.bisect} does not exist")
            return 2
        report = bisect_logs(args.log, args.bisect)
        out(f"{args.log} vs {args.bisect} ({report.probes} index probes):")
        out(report.render())
        return 0 if report.identical else 1

    if args.lineage is not None:
        try:
            out(render_lineage(events, args.lineage))
        except KeyError:
            out(
                f"error: event {args.lineage} is not in this recording "
                f"(ids 0..{len(events) - 1})"
            )
            return 2
        return 0

    if args.at is not None:
        try:
            snapshot = state_at(events, args.at)
        except ValueError as error:
            out(f"error: {error}")
            return 2
        out(snapshot.summary())
        if snapshot.faults:
            out("faults: " + ", ".join(str(c) for c in snapshot.faults))
        disabled = [c for c in snapshot.unusable if c not in set(snapshot.faults)]
        if disabled:
            out("block-disabled: " + ", ".join(str(c) for c in disabled))
        return 0

    kinds = set(args.kind) if args.kind else None
    nodes = set(args.node) if args.node else None
    if args.print_events:
        shown = 0
        for event in events:
            if kinds is not None and event.kind not in kinds:
                continue
            if nodes is not None and not _event_touches_node(event, nodes):
                continue
            out(str(event))
            shown += 1
        out(f"({shown} of {len(events)} events)")
        return 0

    try:
        result = replay_events(events)
    except ValueError as error:
        out(f"error: {error}")
        return 2
    out(result.summary())
    if not result.identical:
        out(result.divergence.render())
        return 1
    return 0


def _cmd_protocols(args, out: Callable[[str], None]) -> int:
    from repro.core.pivots import recursive_center_pivots
    from repro.core.safety import compute_safety_levels
    from repro.faults.mcc import MCCType
    from repro.mesh.geometry import Rect
    from repro.simulator.protocols import (
        run_block_formation,
        run_boundary_distribution,
        run_mcc_formation,
        run_pivot_broadcast,
        run_region_exchange,
        run_safety_propagation,
    )

    scenario, _ = _build_scenario(args)
    mesh, blocks = scenario.mesh, scenario.blocks
    levels = compute_safety_levels(mesh, blocks.unusable)
    center = mesh.center
    pivots = recursive_center_pivots(
        Rect(center[0], mesh.n - 1, center[1], mesh.m - 1), 3
    )
    runs = [
        ("block formation", run_block_formation(mesh, scenario.faults).stats),
        ("MCC labelling", run_mcc_formation(mesh, scenario.faults, MCCType.TYPE_ONE).stats),
        ("ESL formation", run_safety_propagation(mesh, blocks.unusable).stats),
        ("boundary lines", run_boundary_distribution(mesh, blocks.rects(), blocks.unusable).stats),
        ("region exchange", run_region_exchange(mesh, blocks.unusable, levels).stats),
        (f"pivot broadcast x{len(pivots)}", run_pivot_broadcast(mesh, blocks.unusable, levels, pivots).stats),
    ]
    out(f"{scenario.mesh}: {scenario.num_faults} faults, {len(blocks)} blocks")
    out(f"{'protocol':<24} {'messages':>9} {'converged':>10}")
    for name, stats in runs:
        out(f"{name:<24} {stats.messages:>9} {stats.converged_at:>9.0f}t")
    return 0


def _cmd_memory(args, out: Callable[[str], None]) -> int:
    from repro.experiments.memory_model import measure_memory

    scenario, _ = _build_scenario(args)
    out(
        f"{scenario.mesh}: {scenario.num_faults} faults, "
        f"{len(scenario.blocks)} blocks"
    )
    out(measure_memory(scenario.blocks).to_table())
    return 0


def _cmd_sweep(args, out: Callable[[str], None]) -> int:
    from repro.experiments.config import MIN_SIDE
    from repro.experiments.sweeps import mesh_size_sweep

    if min(args.sides) < MIN_SIDE:
        out(f"error: --sides must all be >= {MIN_SIDE}, got {min(args.sides)}")
        return 2
    if args.patterns < 1:
        out(f"error: --patterns must be >= 1, got {args.patterns}")
        return 2
    series = mesh_size_sweep(sides=tuple(args.sides), patterns_per_side=args.patterns)
    out(series.to_table())
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "scenario": _cmd_scenario,
    "route": _cmd_route,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "chaos": _cmd_chaos,
    "replay": _cmd_replay,
    "top": _cmd_top,
    "serve-metrics": _cmd_serve_metrics,
    "serve": _cmd_serve,
    "protocols": _cmd_protocols,
    "memory": _cmd_memory,
    "sweep": _cmd_sweep,
}


def main(argv: Sequence[str] | None = None, out: Callable[[str], None] = print) -> int:
    args = build_parser().parse_args(argv)
    # Every verb built on _common_scenario_args draws a scenario.
    if hasattr(args, "side") and not _check_scenario(args, out):
        return 2
    try:
        return _COMMANDS[args.command](args, out)
    except _ScenarioError as error:
        out(f"error: {error}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
