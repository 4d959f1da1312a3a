"""CLI for the sharded snapshot service: ``python -m repro.shard``.

Subcommands::

    # Open-loop workload run; report as JSON (stdout or --out DIR).
    python -m repro.shard run --shards 4 --ops 500 --workers 2 --out /tmp/s

    # Differential oracle (identity / projection / composition checks).
    python -m repro.shard oracle --shards 2 --ops 150 --gscan-ratio 0.2

    # Whole-shard crash campaign.
    python -m repro.shard chaos --shards 4 --ops 200 --cells 4 --out /tmp/c

Exit status: 0 = clean, 1 = a check failed (oracle failure, chaos cell
failure, or a run with unexpected aborts), 2 = usage error.

Reports contain only simulated quantities, so any ``--workers N`` (and
any host) produces byte-identical files — the CI ``shard-smoke`` job
diffs a serial tree against a ``--workers 2`` tree literally.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.shard.chaos import shard_crash_campaign
from repro.shard.oracle import run_oracle
from repro.shard.service import ShardConfig, ShardedSnapshotService
from repro.shard.workload import WorkloadSpec


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--nodes", type=int, default=3, help="nodes per shard")
    p.add_argument("--f", type=int, default=1, help="fault threshold per shard")
    p.add_argument("--algo", default="eq_aso")
    p.add_argument("--ops", type=int, default=500)
    p.add_argument("--keys", type=int, default=256)
    p.add_argument("--rate", type=float, default=2.0, help="arrivals per D (ON)")
    p.add_argument("--off-rate", type=float, default=0.0)
    p.add_argument("--mean-on", type=float, default=50.0)
    p.add_argument("--mean-off", type=float, default=0.0)
    p.add_argument("--read-ratio", type=float, default=0.2)
    p.add_argument("--gscan-ratio", type=float, default=0.0)
    p.add_argument("--zipf", type=float, default=1.1, help="Zipf exponent")
    p.add_argument("--clients", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=Path, default=None, help="report directory")


def _config(args: argparse.Namespace) -> ShardConfig:
    return ShardConfig(
        shards=args.shards, nodes_per_shard=args.nodes, f=args.f, algo=args.algo
    )


def _spec(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        ops=args.ops,
        keys=args.keys,
        zipf_theta=args.zipf,
        read_ratio=args.read_ratio,
        global_scan_ratio=args.gscan_ratio,
        clients=args.clients,
        rate=args.rate,
        off_rate=args.off_rate,
        mean_on=args.mean_on,
        mean_off=args.mean_off,
    )


def _emit(payload: dict, out: Path | None, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
        print(f"wrote {out / name}")


def _cmd_run(args: argparse.Namespace) -> int:
    report = ShardedSnapshotService(_config(args)).run(
        _spec(args),
        args.seed,
        workers=args.workers,
        check=not args.no_check,
        crash_shard=args.crash_shard,
        crash_time=args.crash_time,
    )
    _emit(report.as_dict(), args.out, "report.json")
    clean = report.order_ok is not False and (
        args.crash_shard is not None or report.aborted == 0
    )
    return 0 if clean else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    verdict = run_oracle(_config(args), _spec(args), args.seed)
    payload = {
        "identity_ok": verdict.identity_ok,
        "projection_ok": verdict.projection_ok,
        "composition_ok": verdict.composition_ok,
        "order_ok": verdict.order_ok,
        "failures": verdict.failures,
        "ok": verdict.ok,
    }
    _emit(payload, args.out, "oracle.json")
    return 0 if verdict.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    report = shard_crash_campaign(
        _config(args),
        _spec(args),
        args.seed,
        cells=args.cells,
        workers=args.workers,
    )
    _emit(report, args.out, "shard_chaos.json")
    return 0 if report["all_ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="keyspace-sharded snapshot service runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one open-loop workload")
    _add_common(p_run)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--no-check", action="store_true")
    p_run.add_argument("--crash-shard", type=int, default=None)
    p_run.add_argument("--crash-time", type=float, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="differential composition checks")
    _add_common(p_oracle)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_chaos = sub.add_parser("chaos", help="whole-shard crash campaign")
    _add_common(p_chaos)
    p_chaos.add_argument("--cells", type=int, default=8)
    p_chaos.add_argument("--workers", type=int, default=1)
    p_chaos.set_defaults(fn=_cmd_chaos)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # registry lookups raise KeyError with a choices message;
        # args[0] because str(KeyError) quotes the message
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
