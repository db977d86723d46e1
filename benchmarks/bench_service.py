"""Benchmark the admission service end to end; emit ``BENCH_service.json``.

Runs ``repro serve`` in-process (real sockets on an ephemeral port) and
drives the deterministic load generator through three scenarios:

- ``steady``   -- the default SAE-style stream,
- ``bursty``   -- tighter inter-arrivals (more coalescing pressure),
- ``churn``    -- 30% of accepted requests released again.

Each scenario reports client-side latency percentiles, throughput and
the acceptance ratio next to the server's own counters (batches, mean
batch size, reconcile runs).  The run *fails* (exit 1) if any service
invariant breaks: a dropped response, a protocol error, or an
incremental-vs-recomputed reconciliation divergence.

A second section sweeps ``repro serve --shards N``: the same steady
stream driven once per shard count (1 = the plain in-process service,
>= 2 = the distrib router in front of shard processes), recording
requests/sec and the speedup over the single-shard baseline.  The
sweep runs at high client concurrency on purpose -- the router's win
is admit-batch amortization, which only shows when many admits share
a tick.  A point whose accepted count differs from the baseline's did
different work, so its ``speedup`` is ``null`` and it carries
``verdicts_match: false``.

The ``ledger`` section times ``SlackLedger`` alone: the 8000-request
admit-backlog stream (~75 live tasks per channel) replayed through
fresh ledgers in arrival order, with no sockets.  It reports
microseconds per admit (best of ``LEDGER_REPEATS``), the SHA-256 of
every ``AdmitOutcome`` field, and the machine.  ``--before-src DIR``
replays the same stream on another source tree (e.g. a ``git
archive`` of the parent commit) in a subprocess and records it as
``before``; differing outcome digests fail the run.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--requests 1000] [--workload bbw] [--shards 1 2] \
        [--before-src DIR] [--out BENCH_service.json]
    PYTHONPATH=src python benchmarks/bench_service.py --ledger-only
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

from repro.service.config import SERVICE_WORKLOADS, load_service_setup
from repro.service.ledger import SlackLedger
from repro.service.loadgen import LoadgenSpec, generate_requests, run_loadgen
from repro.service.server import AdmissionService

#: The admit-backlog stream: pinned by
#: ``tests/service/test_ledger_margin.py`` with the same digest.
LEDGER_SPEC = LoadgenSpec(requests=8000, seed=501,
                          mean_interarrival_ticks=4.0, deadline_ticks=1000,
                          execution_min=1, execution_max=12,
                          release_fraction=0.3)
LEDGER_REPEATS = 3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_ledger() -> Dict[str, object]:
    """Replay LEDGER_SPEC through fresh ledgers in arrival order.

    Uses only the ledger's public admit/advance/release/reconcile, so
    ``--before-src`` can run it on older source trees too.
    """
    setup = load_service_setup("bbw")
    stream = generate_requests(LEDGER_SPEC)
    timings = []
    for __ in range(LEDGER_REPEATS):
        ledgers = {channel: SlackLedger(tasks, channel=channel)
                   for channel, tasks in sorted(setup.channel_tasks.items())}
        rows = []
        start = time.perf_counter()
        for item in stream:
            ledger = ledgers[item.channel]
            ledger.advance(item.arrival)
            outcome = ledger.admit(item.name, item.arrival, item.execution,
                                   item.deadline)
            rows.append([outcome.admitted, outcome.reason, outcome.arrival,
                         outcome.deadline, outcome.window_slack])
            if outcome.admitted and item.release_after:
                ledger.release(item.name)
        timings.append(time.perf_counter() - start)
    divergences = sum(len(ledger.reconcile().divergences)
                      for ledger in ledgers.values())
    return {
        "stream": dataclasses.asdict(LEDGER_SPEC),
        "repeats": LEDGER_REPEATS,
        "us_per_admit": round(min(timings) / len(stream) * 1e6, 2),
        "accepted": sum(row[0] for row in rows),
        "outcome_digest": hashlib.sha256(json.dumps(
            rows, separators=(",", ":")).encode()).hexdigest(),
        "reconcile_divergence": divergences,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run_ledger_elsewhere(src: str) -> Dict[str, object]:
    """``run_ledger`` on the source tree ``src`` (``--ledger-only``)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--ledger-only"],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(completed.stdout)


def scenarios(requests: int) -> Dict[str, LoadgenSpec]:
    return {
        "steady": LoadgenSpec(requests=requests, seed=7),
        "bursty": LoadgenSpec(requests=requests, seed=11,
                              mean_interarrival_ticks=2.0),
        "churn": LoadgenSpec(requests=requests, seed=13,
                             release_fraction=0.3),
    }


async def run_scenario(setup, spec: LoadgenSpec,
                       concurrency: int, connections: int):
    service = AdmissionService(setup, reconcile_every=32)
    host, port = await service.start(port=0)
    report = await run_loadgen(host, port, spec,
                               concurrency=concurrency,
                               connections=connections)
    await service.stop()
    return service, report


async def run_shard_point(workload: str, shards: int, spec: LoadgenSpec,
                          concurrency: int, connections: int):
    """One sweep point: loadgen against ``shards`` service processes.

    Returns ``(report, counters)`` where counters are the router's for
    sharded points and the service's for the in-process baseline.
    """
    if shards == 1:
        setup = load_service_setup(workload)
        service = AdmissionService(setup)
        host, port = await service.start(port=0)
        report = await run_loadgen(host, port, spec,
                                   concurrency=concurrency,
                                   connections=connections)
        await service.stop()
        return report, dict(service.counters)
    from repro.distrib.router import ShardRouter

    setup_kwargs = dict(workload=workload)
    setup = load_service_setup(**setup_kwargs)
    router = ShardRouter(setup, setup_kwargs, shards,
                         health_interval_s=2.0)
    host, port = await router.start(port=0)
    report = await run_loadgen(host, port, spec,
                               concurrency=concurrency,
                               connections=connections)
    await router.stop()
    return report, dict(router.counters)


def run_shard_sweep(workload: str, shard_counts: List[int],
                    requests: int, concurrency: int,
                    connections: int) -> Dict[str, object]:
    spec = LoadgenSpec(requests=requests, seed=7)
    points: Dict[str, Dict[str, object]] = {}
    baseline_rps = baseline_accepted = None
    for shards in shard_counts:
        report, counters = asyncio.run(run_shard_point(
            workload, shards, spec, concurrency, connections))
        rps = report.throughput_rps
        if shards == 1:
            baseline_rps, baseline_accepted = rps, report.accepted
        # A point that accepted a different number of requests did
        # different work (rejects are the cheap path): no ratio.
        verdicts_match = (baseline_accepted is None
                          or report.accepted == baseline_accepted)
        speedup = (round(rps / baseline_rps, 3)
                   if baseline_rps and verdicts_match else None)
        points[str(shards)] = {
            "throughput_rps": rps,
            "p50_ms": report.latency_ms.get("p50", 0.0),
            "p99_ms": report.latency_ms.get("p99", 0.0),
            "accepted": report.accepted,
            "errors": report.errors,
            "dropped": report.dropped,
            "speedup": speedup,
            "router_batches": counters.get("router.batches", 0),
            "router_batched_admits": counters.get(
                "router.batched_admits", 0),
        }
        if not verdicts_match:
            points[str(shards)]["verdicts_match"] = False
        print(f"  shards={shards}: {rps:>8.1f} rps  "
              f"speedup {speedup if speedup is not None else '-'}",
              file=sys.stderr)
    return {
        "requests": requests,
        "concurrency": concurrency,
        "connections": connections,
        "cpu_count": os.cpu_count(),
        "counts": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Admission-service end-to-end benchmark")
    parser.add_argument("--requests", type=int, default=1000,
                        help="requests per scenario (default 1000)")
    parser.add_argument("--workload", default="bbw",
                        choices=SERVICE_WORKLOADS)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2],
                        help="shard counts to sweep (default: 1 2; "
                             "pass --shards 1 to skip the router)")
    parser.add_argument("--shard-requests", type=int, default=5000,
                        help="requests per sweep point (default 5000)")
    parser.add_argument("--shard-concurrency", type=int, default=512,
                        help="loadgen concurrency for the sweep "
                             "(default 512: batching needs pressure)")
    parser.add_argument("--shard-connections", type=int, default=8)
    parser.add_argument("--ledger-only", action="store_true",
                        help="print the ledger section as JSON and exit")
    parser.add_argument("--before-src", default=None,
                        help="source tree (its src/ directory) to time "
                             "the ledger section on as 'before'")
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    if args.ledger_only:
        json.dump(run_ledger(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    setup = load_service_setup(args.workload)
    results: Dict[str, Dict[str, object]] = {}
    failures = []
    for name, spec in scenarios(args.requests).items():
        service, report = asyncio.run(run_scenario(
            setup, spec, args.concurrency, args.connections))
        counters = service.counters
        batches = counters.get("service.batches", 0)
        batched = counters.get("service.batch.requests", 0)
        row = dict(report.to_row())
        row.update({
            "batches": batches,
            "mean_batch_size": round(batched / batches, 3) if batches
            else 0.0,
            "reconcile_runs": counters.get("service.reconcile.runs", 0),
            "reconcile_divergence": counters.get(
                "service.reconcile.divergence", 0),
            "protocol_errors": counters.get("service.protocol_errors", 0),
        })
        results[name] = row
        print(f"{name:>8s}: {row['throughput_rps']:>8.1f} rps  "
              f"p50 {row['p50_ms']:.2f} ms  p99 {row['p99_ms']:.2f} ms  "
              f"accept {row['acceptance_ratio']:.3f}  "
              f"batch {row['mean_batch_size']:.2f}",
              file=sys.stderr)
        if report.dropped:
            failures.append(f"{name}: {report.dropped} dropped responses")
        if row["protocol_errors"]:
            failures.append(f"{name}: {row['protocol_errors']} protocol "
                            f"errors")
        if row["reconcile_divergence"]:
            failures.append(f"{name}: reconcile divergence "
                            f"{row['reconcile_divergence']}")
        if report.acceptance_ratio <= 0.0:
            failures.append(f"{name}: zero acceptance ratio")

    print("sharding sweep:", file=sys.stderr)
    sharding = run_shard_sweep(
        args.workload, args.shards, args.shard_requests,
        args.shard_concurrency, args.shard_connections)
    for shards, point in sharding["counts"].items():
        if point["errors"] or point["dropped"]:
            failures.append(
                f"shards={shards}: {point['errors']} errors, "
                f"{point['dropped']} dropped")

    print("ledger (admit-backlog stream, no sockets):", file=sys.stderr)
    ledger = run_ledger()
    print(f"  {ledger['us_per_admit']:.1f} us/admit, "
          f"{ledger['accepted']} accepted, "
          f"digest {ledger['outcome_digest'][:12]}", file=sys.stderr)
    if ledger["reconcile_divergence"]:
        failures.append(f"ledger: reconcile divergence "
                        f"{ledger['reconcile_divergence']}")
    if args.before_src:
        before = run_ledger_elsewhere(args.before_src)
        ledger["before"] = {key: before[key]
                            for key in ("us_per_admit", "outcome_digest")}
        ledger["speedup"] = round(
            before["us_per_admit"] / ledger["us_per_admit"], 2)
        print(f"  before: {before['us_per_admit']:.1f} us/admit, "
              f"speedup {ledger['speedup']}x", file=sys.stderr)
        if before["outcome_digest"] != ledger["outcome_digest"]:
            failures.append("ledger: outcome digest differs from before")

    payload = {
        "benchmark": "service",
        "workload": args.workload,
        "requests_per_scenario": args.requests,
        "concurrency": args.concurrency,
        "connections": args.connections,
        "python": platform.python_version(),
        "scenarios": results,
        "sharding": sharding,
        "ledger": ledger,
        "failures": failures,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    for failure in failures:
        print(f"INVARIANT VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
