"""Command-line interface: ``rnb`` / ``python -m repro``.

Subcommands
-----------
``rnb list``
    List available experiments.
``rnb run fig08 [--scale 0.1] [--seed 2013] [--n-requests 1200]``
    Run one experiment (or ``all``) and print its figure tables.
    ``rnb run hotspot`` is the overload soak (docs/OVERLOAD.md): a
    Zipf-skewed workload plus one straggler, with and without the
    backpressure / breaker / hedging stack.  ``rnb run write_chaos``
    is the replicated-write-path convergence proof
    (docs/CONSISTENCY.md): quorum writes with servers killed
    mid-burst, then read-repair and anti-entropy scrub back to zero
    divergent keys, deterministically by seed.
``rnb calibrate``
    Run the in-process micro-benchmark and print the fitted cost model.
``rnb loadtest [--users 5000] [--curve flash] [--out REPORT.json]``
    Open-loop load test against a real in-process async server fleet
    (docs/SERVING.md): one coroutine per simulated user, arrival times
    from a seeded rate curve, RnB bundling over pipelined connections.
    ``--min-goodput`` / ``--max-failed`` turn it into a CI gate.
``rnb stats [ADDR ...] [--boot-demo] [--require [FAMILY ...]]``
    Scrape ``stats metrics`` telemetry from a live fleet and merge it
    into Prometheus-style samples (docs/OBSERVABILITY.md).
    ``--boot-demo`` starts a loopback fleet with traffic applied;
    ``--require`` gates on metric-family presence (CI's live-smoke job).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro._version import __version__
from repro.experiments.registry import EXPERIMENTS, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnb",
        description="Replicate and Bundle (RnB) reproduction harness",
    )
    parser.add_argument("--version", action="version", version=f"rnb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run an experiment and print its tables")
    run_p.add_argument(
        "experiment",
        help="experiment name (see 'rnb list') or 'all'",
    )
    run_p.add_argument("--scale", type=float, default=None, help="graph scale (0-1]")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--n-requests", type=int, default=None, dest="n_requests")
    run_p.add_argument(
        "--nemesis",
        type=int,
        default=None,
        dest="nemesis_seed",
        metavar="SEED",
        help="run under a seeded link-blackout nemesis schedule "
        "(experiments that accept nemesis_seed only)",
    )
    run_p.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format for the figure data",
    )
    run_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write one <figure>.<format> file per result into DIR",
    )

    sub.add_parser("calibrate", help="fit a cost model from the in-process server")

    load_p = sub.add_parser(
        "loadtest",
        help="open-loop load test against a real async server fleet",
    )
    load_p.add_argument("--users", type=int, default=1000)
    load_p.add_argument(
        "--duration", type=float, default=2.0, help="arrival-schedule span, seconds"
    )
    load_p.add_argument(
        "--curve", choices=("constant", "diurnal", "flash"), default="constant"
    )
    load_p.add_argument(
        "--scheduler", choices=("poisson", "deterministic"), default="poisson"
    )
    load_p.add_argument("--servers", type=int, default=4, dest="n_servers")
    load_p.add_argument("--replication", type=int, default=2)
    load_p.add_argument("--items", type=int, default=2000, dest="n_items")
    load_p.add_argument("--request-size", type=int, default=8, dest="request_size")
    load_p.add_argument("--zipf", type=float, default=0.8, dest="zipf_exponent")
    load_p.add_argument("--seed", type=int, default=0)
    load_p.add_argument(
        "--pool-size", type=int, default=4, help="pipelined sockets per server"
    )
    load_p.add_argument(
        "--deadline",
        type=float,
        default=5.0,
        help="per-request budget, seconds; 0 disables (degrade, never fail)",
    )
    load_p.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="per-server admission bound; sheds BUSY above it",
    )
    load_p.add_argument(
        "--nemesis",
        type=int,
        default=None,
        dest="nemesis_seed",
        metavar="SEED",
        help="cut one server's link during seeded blackout windows "
        "(the fleet refuses connections; default: no partition)",
    )
    load_p.add_argument(
        "--out", default=None, metavar="FILE", help="write the report JSON to FILE"
    )
    load_p.add_argument(
        "--min-goodput",
        type=float,
        default=None,
        help="exit 1 if goodput (items/s) falls below this floor",
    )
    load_p.add_argument(
        "--max-failed",
        type=int,
        default=None,
        help="exit 1 if more than this many requests fail outright",
    )

    stats_p = sub.add_parser(
        "stats",
        help="scrape `stats metrics` telemetry from a live fleet",
    )
    stats_p.add_argument(
        "addresses",
        nargs="*",
        metavar="HOST:PORT",
        help="servers to scrape (omit with --boot-demo)",
    )
    stats_p.add_argument(
        "--boot-demo",
        action="store_true",
        help="boot a loopback demo fleet with traffic and scrape it",
    )
    stats_p.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="prom: one `sample value` line each; json: merged object",
    )
    stats_p.add_argument(
        "--per-server",
        action="store_true",
        help="print each server's samples separately instead of merging",
    )
    stats_p.add_argument(
        "--require",
        nargs="*",
        default=None,
        metavar="FAMILY",
        help="exit 1 unless these metric families are present after the "
        "merge (no argument: the core request catalog)",
    )
    stats_p.add_argument(
        "--timeout", type=float, default=2.0, help="per-server scrape budget, seconds"
    )
    return parser


def _run_one(name: str, args) -> None:
    kwargs = {}
    fn = EXPERIMENTS[name]
    import inspect

    accepted = inspect.signature(fn).parameters
    for attr in ("scale", "seed", "n_requests", "nemesis_seed"):
        value = getattr(args, attr, None)
        if value is not None and attr in accepted:
            kwargs[attr] = value
    start = time.perf_counter()
    results = run_experiment(name, **kwargs)
    elapsed = time.perf_counter() - start

    fmt = getattr(args, "format", "table")
    render = {
        "table": lambda r: r.table(),
        "json": lambda r: r.to_json(),
        "csv": lambda r: r.to_csv(),
    }[fmt]
    for res in results:
        print(render(res))
        print()

    out_dir = getattr(args, "out", None)
    if out_dir is not None:
        from pathlib import Path

        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        suffix = {"table": "txt", "json": "json", "csv": "csv"}[fmt]
        for res in results:
            (path / f"{res.name}.{suffix}").write_text(render(res) + "\n")
    print(f"[{name}: {elapsed:.1f}s]")


def _run_stats(args) -> int:
    """``rnb stats``: scrape a fleet's telemetry (docs/OBSERVABILITY.md)."""
    import json

    from repro.errors import ProtocolError
    from repro.obs.export import CORE_REQUEST_FAMILIES
    from repro.obs.metrics import format_value
    from repro.obs.scrape import (
        boot_demo_fleet,
        merged_fleet_samples,
        missing_families,
        scrape_fleet,
    )

    demo_servers: list = []
    addresses = list(args.addresses)
    try:
        if args.boot_demo:
            demo_addresses, demo_servers, _registry = boot_demo_fleet()
            addresses = addresses + demo_addresses
        if not addresses:
            print("no addresses given (pass HOST:PORT or --boot-demo)", file=sys.stderr)
            return 2
        try:
            per_server = scrape_fleet(addresses, timeout=args.timeout)
        except (ProtocolError, ConnectionError, OSError) as exc:
            print(f"scrape failed: {exc}", file=sys.stderr)
            return 1
        merged = merged_fleet_samples(per_server)
        if args.format == "json":
            doc = per_server if args.per_server else merged
            print(json.dumps(doc, indent=2, sort_keys=True))
        elif args.per_server:
            for address in addresses:
                print(f"# server {address}")
                for name, value in sorted(per_server[address].items()):
                    print(f"{name} {format_value(value)}")
        else:
            for name, value in sorted(merged.items()):
                print(f"{name} {format_value(value)}")
        if args.require is not None:
            required = tuple(args.require) or CORE_REQUEST_FAMILIES
            absent = missing_families(merged, required)
            if absent:
                print(f"GATE: missing metric families: {absent}", file=sys.stderr)
                return 1
            print(f"[all {len(required)} required families present]", file=sys.stderr)
        return 0
    finally:
        for server in demo_servers:
            server.shutdown()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            doc = (sys.modules[EXPERIMENTS[name].__module__].__doc__ or "").strip()
            headline = doc.splitlines()[0] if doc else ""
            print(f"{name:12s} {headline}")
        return 0

    if args.command == "run":
        names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for name in names:
            if name not in EXPERIMENTS:
                print(
                    f"unknown experiment {name!r}; try 'rnb list'", file=sys.stderr
                )
                return 2
            _run_one(name, args)
        return 0

    if args.command == "calibrate":
        from repro.analysis.calibration import fit_cost_model
        from repro.protocol.microbench import measure_items_per_second

        points = measure_items_per_second([1, 2, 5, 10, 20, 50])
        model = fit_cost_model(
            [p.txn_size for p in points], [p.items_per_s for p in points]
        )
        print("txn_size  txns/s      items/s")
        for p in points:
            print(f"{p.txn_size:8d}  {p.transactions_per_s:10.0f}  {p.items_per_s:10.0f}")
        print(
            f"fitted: t_txn={model.t_txn:.3g}s  t_item={model.t_item:.3g}s  "
            f"cap={model.bandwidth_items_per_s}"
        )
        return 0

    if args.command == "loadtest":
        from pathlib import Path

        from repro.loadgen import LoadTestConfig, run_loadtest

        config = LoadTestConfig(
            users=args.users,
            duration=args.duration,
            curve=args.curve,
            scheduler=args.scheduler,
            n_servers=args.n_servers,
            replication=args.replication,
            n_items=args.n_items,
            request_size=args.request_size,
            zipf_exponent=args.zipf_exponent,
            seed=args.seed,
            pool_size=args.pool_size,
            deadline=args.deadline if args.deadline > 0 else None,
            queue_limit=args.queue_limit,
            nemesis_seed=args.nemesis_seed,
        )
        report = run_loadtest(config)
        print(report.summary())
        if args.out is not None:
            Path(args.out).write_text(report.to_json() + "\n")
            print(f"[wrote {args.out}]")
        status = 0
        if args.max_failed is not None and report.measured["failed"] > args.max_failed:
            print(
                f"GATE: {report.measured['failed']} failed requests "
                f"(allowed {args.max_failed})",
                file=sys.stderr,
            )
            status = 1
        if (
            args.min_goodput is not None
            and report.measured["goodput_items_per_s"] < args.min_goodput
        ):
            print(
                f"GATE: goodput {report.measured['goodput_items_per_s']:.0f} items/s "
                f"below floor {args.min_goodput:.0f}",
                file=sys.stderr,
            )
            status = 1
        return status

    if args.command == "stats":
        return _run_stats(args)

    return 2  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
