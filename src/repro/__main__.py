"""Command-line entry point: experiments and the serving layer.

Usage::

    python -m repro --list                 # show the experiment registry
    python -m repro E3 E4                  # run selected experiments
    python -m repro all                    # run everything (minutes)
    python -m repro E3 --records 20000     # override the workload scale

    python -m repro serve --shards 2 --port 7711   # sharded KV server
    python -m repro.service.client --port 7711 put greeting hello
    python -m repro stats --port 7711              # live metrics report

    python -m repro sim --seed 7                   # one seeded chaos run
    python -m repro sim --seed 0 --batch 20        # sweep seeds 0..19
"""

from __future__ import annotations

import argparse
import asyncio
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="UniKV (ICDE 2020) reproduction: run evaluation experiments "
                    "on the simulated device and print the paper-style tables, "
                    "or serve a sharded store over TCP ('serve' subcommand).")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids (e.g. E3 E7), or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--records", type=int, default=None,
                        help="override num_records for experiments that take it")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a range-sharded UniKV deployment over TCP "
                    "(length-prefixed binary protocol; see repro.service).")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of independent UniKV shards (default 2)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7711,
                        help="listening port (default 7711; 0 = ephemeral)")
    parser.add_argument("--boundaries", default=None,
                        help="comma-separated shard boundary keys (UTF-8); "
                             "defaults to even single-byte split points")
    parser.add_argument("--background-threads", type=int, default=0,
                        help="background maintenance lanes per shard "
                             "(enables write-stall backpressure; default 0)")
    parser.add_argument("--admission", choices=["delay", "shed"],
                        default="delay",
                        help="write admission policy under backpressure "
                             "(default: delay)")
    parser.add_argument("--stats-interval", type=float, default=0.0,
                        help="print a compact metrics line every N seconds "
                             "(default 0 = off)")
    return parser


def serve_main(argv: list[str]) -> int:
    from repro.core.config import UniKVConfig
    from repro.service.server import run_server

    args = build_serve_parser().parse_args(argv)
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.background_threads < 0:
        print("--background-threads must be >= 0", file=sys.stderr)
        return 2
    boundaries = None
    if args.boundaries:
        boundaries = [b.encode("utf-8") for b in args.boundaries.split(",")]
        if len(boundaries) != args.shards - 1:
            print(f"--boundaries needs exactly {args.shards - 1} keys for "
                  f"{args.shards} shards", file=sys.stderr)
            return 2
        if sorted(boundaries) != boundaries or len(set(boundaries)) != len(boundaries):
            print("--boundaries must be strictly increasing", file=sys.stderr)
            return 2
    config = UniKVConfig(background_threads=args.background_threads)
    try:
        asyncio.run(run_server(args.shards, args.host, args.port,
                               boundaries=boundaries, config=config,
                               admission=args.admission,
                               stats_interval=args.stats_interval))
    except KeyboardInterrupt:
        pass
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Fetch a running server's STATS and render the live "
                    "observability report (per-op latency quantiles, "
                    "stall-cause attribution, cache hit rates).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7711)
    parser.add_argument("--timeout", type=float, default=5.0)
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="print the raw STATS payload as JSON")
    output.add_argument("--prometheus", action="store_true",
                        help="print the shard-merged store metrics in the "
                             "Prometheus text exposition format")
    return parser


def stats_main(argv: list[str]) -> int:
    import json

    from repro.obs import snapshot_to_prometheus
    from repro.obs.render import render_stats
    from repro.service.client import KVClient, TransientError

    args = build_stats_parser().parse_args(argv)
    client = KVClient(args.host, args.port, timeout=args.timeout)
    try:
        payload = client.stats()
    except (ConnectionError, OSError, TimeoutError, TransientError) as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.prometheus:
        obs = payload.get("obs", {})
        sys.stdout.write(snapshot_to_prometheus(obs.get("stores", {})))
        sys.stdout.write(snapshot_to_prometheus(obs.get("server", {})))
    else:
        print(render_stats(payload))
    return 0


def build_sim_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sim",
        description="Deterministic full-stack chaos simulation: seeded "
                    "network faults + shard power failures with torn "
                    "writes, validated by a consistency oracle "
                    "(see repro.sim).  Exit status 1 on any violation.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the first run (default 0)")
    parser.add_argument("--batch", type=int, default=1,
                        help="number of consecutive seeds to run (default 1)")
    parser.add_argument("--steps", type=int, default=600,
                        help="main-phase ticks per run (default 600)")
    parser.add_argument("--shards", type=int, default=3,
                        help="UniKV shards behind the router (default 3)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop clients (default 4)")
    parser.add_argument("--crashes", type=int, default=2,
                        help="shard power failures per run (default 2)")
    parser.add_argument("--trace", action="store_true",
                        help="print the full event trace of each run")
    return parser


def sim_main(argv: list[str]) -> int:
    from repro.sim import SimConfig, run_sim

    args = build_sim_parser().parse_args(argv)
    if args.batch < 1 or args.steps < 1 or args.shards < 1 or args.clients < 1:
        print("--batch/--steps/--shards/--clients must be >= 1",
              file=sys.stderr)
        return 2
    config = SimConfig(steps=args.steps, num_shards=args.shards,
                       num_clients=args.clients, num_crashes=args.crashes)
    failed = []
    for seed in range(args.seed, args.seed + args.batch):
        result = run_sim(seed, config)
        print(result.summary(), flush=True)
        if args.trace:
            for line in result.trace:
                print(f"  {line}")
        if not result.ok:
            failed.append(seed)
    if failed:
        print(f"FAILED seeds: {failed} — reproduce with "
              f"`python -m repro sim --seed <seed>`", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "sim":
        return sim_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])

    from repro.bench.experiments import ALL_EXPERIMENTS

    args = build_parser().parse_args(argv)
    if args.records is not None and args.records <= 0:
        print(f"--records must be a positive integer (got {args.records})",
              file=sys.stderr)
        return 2
    if args.list or not args.experiments:
        print("Available experiments:")
        for exp_id, fn in ALL_EXPERIMENTS.items():
            summary = (fn.__doc__ or "").strip().splitlines()
            print(f"  {exp_id:5s} {summary[0] if summary else ''}")
        return 0
    wanted = (list(ALL_EXPERIMENTS) if args.experiments == ["all"]
              else args.experiments)
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(try --list)", file=sys.stderr)
        return 2
    for exp_id in wanted:
        fn = ALL_EXPERIMENTS[exp_id]
        kwargs = {}
        if args.records is not None and "num_records" in fn.__code__.co_varnames:
            kwargs["num_records"] = args.records
        result = fn(**kwargs)
        print(result.text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
