"""End-to-end benchmark of campaigns and the admission service.

Run from the repository root::

    python3 perfbench/run.py --workload dense-trace --seed 1 --seconds 15 --trace 0

Workloads: ``dense-trace`` and ``bbw-campaign`` (serial campaign seeds,
simulated and ingested into a results store), ``admit-backlog`` and
``admit-short`` (an in-process admission service under a two-connection
closed loop).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import service as svc  # noqa: E402
import simulation as sim  # noqa: E402
from timing import (  # noqa: E402
    Clock,
    UnitTime,
    UnitTimer,
    calibration_report,
    fingerprint,
    median,
    normalise,
    percentile,
)
from tracer import Tracer  # noqa: E402

WORKLOADS = tuple(sim.WORKLOADS) + tuple(svc.WORKLOADS)

#: Cold launches per run for ``setup_s`` (median reported).
SETUP_LAUNCHES = 7
#: Calibration samples a cold launch takes at its start and at ready.
LAUNCH_CAL_SAMPLES = 3
#: Timed units a run completes however short ``--seconds`` is: one
#: traced and one untraced in a traced run.
MIN_UNITS = 2
#: Admits per latency group.  The latency metrics are medians over
#: groups of each group's percentile, so one bad stretch of host time
#: moves one group, not the run; 1000 leaves 10 samples beyond p99.
LATENCY_GROUP = 1000
#: Failed seeds, with none timed yet, after which a run gives up.
MAX_FAILED_SEEDS = 3
#: A cold launch that is not ready after this long fails the run.
LAUNCH_TIMEOUT_S = 60.0


def log(text: str = "") -> None:
    print(text, flush=True)


def seed_for(base: int, index: int) -> int:
    """The ``index``-th campaign seed of a run seeded ``base``."""
    return base * 1000 + index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe_unit(label: str, unit: UnitTime) -> str:
    return (f"  {label}: raw {unit.raw_s:.6f} s, cal {unit.cal_s * 1e3:.4f} ms"
            f" ({unit.samples} samples) -> normalised {unit.norm_s:.6f} s")


def summarise(label: str, units: List[UnitTime]) -> None:
    """Print raw, calibration and normalised medians of a unit list."""
    report = calibration_report(units)
    log(f"{label}: {len(units)} units; median raw "
        f"{median([u.raw_s for u in units]):.6f} s, median cal "
        f"{report['cal_median_ms']:.4f} ms (min {report['cal_min_ms']:.4f},"
        f" max {report['cal_max_ms']:.4f}, spread "
        f"{report['cal_spread']:.3f}), median normalised "
        f"{median([u.norm_s for u in units]):.6f} s")
    if not report["trusted"]:
        log(f"{label}: WARNING calibration spread "
            f"{report['cal_spread']:.3f} is too wide; normalised times "
            f"of this run cannot be trusted")


# ----------------------------------------------------------------------
# Set-up time: fresh interpreters, launch to ready
# ----------------------------------------------------------------------

def setup_probe(workload: str) -> int:
    """Child side of one cold launch: set up, say ready, tear down.

    The child calibrates itself, on whichever CPU it runs: a few loops
    before set-up and a few just before it reports ready, the samples
    on the ``ready`` line.
    """
    clock = Clock()
    for __ in range(LAUNCH_CAL_SAMPLES):
        clock.calibrate()

    def ready() -> None:
        for __ in range(LAUNCH_CAL_SAMPLES):
            clock.calibrate()
        print("ready " + " ".join(repr(s) for s in clock.samples), flush=True)

    if workload in sim.WORKLOADS:
        import repro.experiments.runner  # noqa: F401  (first seed needs it)

        OUT.mkdir(exist_ok=True)
        session = sim.open_session(
            workload, str(OUT / f"setup-{os.getpid()}.db"))
        ready()
        session.close()
        return 0

    async def serve() -> None:
        import repro.service.client  # noqa: F401  (first request needs it)
        from repro.service.server import AdmissionService

        service = AdmissionService(svc.load_setup())
        await service.start()
        ready()
        await service.stop()

    asyncio.run(serve())
    return 0


def measure_setup(workload: str,
                  launches: int = SETUP_LAUNCHES) -> List[UnitTime]:
    """Time ``launches`` cold launches, launch to ready.

    The raw time excludes the child's own calibration loops; their mean
    is the launch's calibration time.  Children keep their bytecode in
    ``OUT/pycache`` whatever the caller's environment says, and a first,
    untimed launch fills it, so every timed launch starts from the same
    warm bytecode cache, as an installed program does.
    """
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    units = []
    for index in range(launches + 1):
        begin = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - begin
            child.wait(timeout=LAUNCH_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        words = line.split()
        if not words or words[0] != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up launch of {workload} failed "
                               f"(exit {child.returncode})")
        if index == 0:
            continue
        samples = [float(word) for word in words[1:]]
        units.append(UnitTime(raw_s=ready - sum(samples),
                              cal_s=sum(samples) / len(samples),
                              samples=len(samples)))
    return units


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------

def _sim_layer_values(delta: Dict[str, Tuple[int, float]],
                      counts: Dict[str, float], unit: UnitTime,
                      rows: int) -> Dict[str, float]:
    """Per-layer numbers of one traced seed (times normalised)."""
    scale = unit.scale

    def calls(name: str) -> int:
        return delta.get(name, (0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(delta.get(name, (0, 0.0))[1] for name in names) * scale

    cycles = counts.get("sim.engine.cycles", 0)
    values = {
        "packing.calls": calls("packing.pack"),
        "packing.pack_s": self_s("packing.pack"),
        "timeline.calls": calls("timeline.compile"),
        "timeline.compile_s": self_s("timeline.compile"),
        "sim.engine.cycles": cycles,
        "sim.engine.self_us_per_cycle": (
            self_s("sim.engine") / cycles * 1e6 if cycles else 0.0),
        "protocol.arrivals.calls": calls("protocol.arrivals"),
        "protocol.arrivals.self_s": self_s("protocol.arrivals"),
        "core.slack.try_promise.calls": calls("core.slack.try_promise"),
        "core.slack.try_promise.self_s": self_s("core.slack.try_promise"),
        "core.slack.supply_between.calls": calls(
            "core.slack.supply_between"),
        "core.slack.supply_between.self_s": self_s(
            "core.slack.supply_between"),
        "core.slack.idle_slot_windows.calls": calls(
            "core.slack.idle_slot_windows"),
        "faults.draws": counts.get("faults.draws", 0),
        "faults.corruptions": counts.get("faults.corruptions", 0),
        "faults.self_s": self_s("faults"),
        "sim.trace.records": counts.get("sim.trace.records", 0),
        "sim.trace.self_s": self_s("sim.trace"),
        "sim.metrics.self_s": self_s("sim.metrics"),
        "results.digest_s": self_s("results.digest"),
        "results.ingest_s": self_s("results.ingest"),
        "results.rows": rows,
    }
    for hook in layers.POLICY_HOOKS:
        values[f"core.policy.{hook}.calls"] = calls(f"core.policy.{hook}")
        values[f"core.policy.{hook}.self_s"] = self_s(f"core.policy.{hook}")
    total = unit.norm_s
    shares = {
        "packing": ("packing.pack",),
        "timeline": ("timeline.compile",),
        "sim.engine": ("sim.engine",),
        "protocol.arrivals": ("protocol.arrivals",),
        "core.policy": tuple(f"core.policy.{h}" for h in layers.POLICY_HOOKS),
        "core.slack": ("core.slack.try_promise",
                       "core.slack.supply_between"),
        "faults": ("faults",),
        "sim.trace": ("sim.trace",),
        "sim.metrics": ("sim.metrics",),
        "results.digest": ("results.digest",),
        "results.ingest": ("results.ingest",),
    }
    for layer, names in shares.items():
        values[f"{layer}.share_pct"] = self_s(*names) / total * 100.0
    return values


def run_simulation(workload: str, base_seed: int, seconds: float,
                   trace: bool, launches: int = SETUP_LAUNCHES):
    """Serial seeds until ``seconds`` of timed units have passed."""
    clock = Clock()
    setup_units: List[UnitTime] = []
    if not trace:
        setup_units = measure_setup(workload, launches)
        for index, unit in enumerate(setup_units):
            log(describe_unit(f"set-up launch {index}", unit))
    tracer = Tracer(clock)
    if trace:
        layers.install_simulation_layers(tracer)
        tracer.set_unit("setup")
        tracer.install()
    OUT.mkdir(exist_ok=True)
    timer = UnitTimer(clock)
    timer.begin()
    session = sim.open_session(workload, str(OUT / f"{workload}.db"))
    setup_unit = timer.end()
    gate = tracer.totals("verify.gate")
    tracer.uninstall()

    attempted = failed = 0
    problems: List[str] = []
    units: List[UnitTime] = []
    traced: List[UnitTime] = []
    untraced: List[UnitTime] = []
    per_seed: List[Dict[str, float]] = []
    checked: List[Tuple[int, str, str]] = []  # (seed, run_id, engine)
    engine = None
    index = 0
    started = None
    try:
        while (started is None or len(units) < MIN_UNITS
               or time.perf_counter() - started < seconds):
            seed = seed_for(base_seed, index)
            warmup = started is None
            traced_unit = trace and not warmup and index % 2 == 0
            attempted += 1
            rows_before = session.store.counts() if traced_unit else None
            if traced_unit:
                tracer.set_unit(f"seed:{seed}")
                before = tracer.snapshot()
                tracer.install()
            timer.begin()
            try:
                run_id, result = sim.run_seed(session, seed)
            except Exception:  # a failed seed is counted, not fatal
                timer.end()
                tracer.uninstall()
                failed += 1
                log(f"  seed {seed}: FAILED\n{traceback.format_exc()}")
                if failed >= MAX_FAILED_SEEDS and not units:
                    raise RuntimeError("every seed so far failed")
                index += 1
                continue
            unit = timer.end()
            tracer.uninstall()
            engine = result.engine_mode
            if warmup:
                started = time.perf_counter()
                log(describe_unit(f"seed {seed} (warm-up, untimed)", unit))
            else:
                units.append(unit)
                checked.append((seed, run_id, result.engine_mode))
                log(describe_unit(f"seed {seed}"
                                  + (" (traced)" if traced_unit else ""),
                                  unit))
                if traced_unit:
                    rows_after = session.store.counts()
                    rows = sum(rows_after.values()) - sum(rows_before.values())
                    per_seed.append(_sim_layer_values(
                        tracer.delta(before), tracer.count_delta(before),
                        unit, rows))
                    traced.append(unit)
                elif trace:
                    untraced.append(unit)
            del result
            index += 1
        if not units:
            raise RuntimeError("no timed seed completed")

        sample = checked[:1] + (
            checked[-1:] if session.workload.digest_checks > 1
            and len(checked) > 1 else [])
        for seed, run_id, mode in sample:
            same, stored, oracle = sim.check_digest(session, seed, run_id,
                                                    mode)
            log(f"  digest seed {seed}: {mode} {str(stored)[:16]} vs "
                f"interpreter {oracle[:16]} -> "
                f"{'match' if same else 'MISMATCH'}")
            if stored is None:
                problems.append(f"seed {seed}: no trace digest ingested")
            elif not same:
                failed += 1
    finally:
        session.close()

    log(f"engine: {engine}")
    summarise("seeds", units)
    if not trace:
        summarise("set-up launches", setup_units)
        seed_ms = [u.norm_s * 1e3 for u in units]
        metrics = {
            "setup_s": median([u.norm_s for u in setup_units]),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": 1.0 / median([u.norm_s for u in units]),
            "latency_p50_ms": percentile(seed_ms, 50),
            "latency_p99_ms": percentile(seed_ms, 99),
        }
        log(f"seeds per second: raw "
            f"{1.0 / median([u.raw_s for u in units]):.4f}, normalised "
            f"{metrics['throughput_per_s']:.4f}; per-seed p50 "
            f"{metrics['latency_p50_ms']:.2f} ms, p99 "
            f"{metrics['latency_p99_ms']:.2f} ms (normalised, "
            f"{len(seed_ms)} samples)")
        return attempted, failed, metrics, problems

    values = {name: median([seed[name] for seed in per_seed])
              for name in per_seed[0]} if per_seed else {}
    values["verify.calls"] = gate[0]
    values["verify.gate_s"] = gate[1] * setup_unit.scale
    values.update(_overhead(traced, untraced))
    _write_spans(tracer, workload)
    return attempted, failed, values, problems


def _overhead(traced: List[UnitTime],
              untraced: List[UnitTime]) -> Dict[str, float]:
    if not traced or not untraced:
        return {"trace.overhead_s": 0.0, "trace.overhead_pct": 0.0}
    on = median([u.norm_s for u in traced])
    off = median([u.norm_s for u in untraced])
    log(f"tracing overhead: traced {on:.6f} s vs untraced {off:.6f} s "
        f"per unit (normalised), {on - off:+.6f} s, "
        f"{(on - off) / off * 100.0:+.2f}%")
    return {"trace.overhead_s": on - off,
            "trace.overhead_pct": (on - off) / off * 100.0}


def _write_spans(tracer: Tracer, workload: str) -> None:
    path = OUT / f"spans-{workload}.npz"
    kept = tracer.write(str(path))
    log(f"spans: {kept} written to {os.path.relpath(path, ROOT)}, "
        f"{tracer.dropped} beyond the cap kept as aggregates only")


# ----------------------------------------------------------------------
# Admission workloads
# ----------------------------------------------------------------------

class _ServiceLayers:
    """Totals of the traced windows of one admission run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.window_s = 0.0
        self.admits = 0
        self.queue_wait_s: List[float] = []
        self.lives: List[float] = []

    def add(self, delta, counts, unit: UnitTime, admits: int) -> None:
        for name, (calls, self_s) in delta.items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + self_s * unit.scale)
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.window_s += unit.norm_s
        self.admits += admits

    def values(self) -> Dict[str, float]:
        admits = max(self.admits, 1)
        out: Dict[str, float] = {}
        groups = {"service.protocol": ("parse", "encode"),
                  "service.ledger": ("admit", "release", "advance",
                                     "reconcile")}
        for group, members in groups.items():
            for member in members:
                name = f"{group}.{member}"
                calls = self.calls.get(name, 0)
                out[f"{name}.calls"] = calls / admits
                out[f"{name}.self_us"] = (
                    self.self_s.get(name, 0.0) / calls * 1e6 if calls else 0.0)
            spent = sum(self.self_s.get(f"{group}.{m}", 0.0) for m in members)
            out[f"{group}.share_pct"] = (
                spent / self.window_s * 100.0 if self.window_s else 0.0)
        verdicts = {name: value for name, value in self.counts.items()
                    if name.startswith("service.ledger.verdict.")}
        for name, value in sorted(verdicts.items()):
            out[f"{name}_pct"] = value / admits * 100.0
        rejects = sum(value for name, value in verdicts.items()
                      if not name.endswith("within-guaranteed-slack"))
        out["service.ledger.reject_pct"] = rejects / admits * 100.0
        out["service.ledger.live_mean"] = (
            sum(self.lives) / len(self.lives) if self.lives else 0.0)
        out["service.queue_wait_us"] = (
            median(self.queue_wait_s) * 1e6 if self.queue_wait_s else 0.0)
        return out


async def _drive_service(workload: svc.AdmitWorkload, setup, stream, oracle,
                         seconds: float, trace: bool, tracer: Tracer,
                         clock: Clock):
    timer = UnitTimer(clock)
    units: List[Tuple[UnitTime, int]] = []  # (window, admits)
    latencies_ms: List[List[float]] = []  # per pass
    traced: List[UnitTime] = []    # per admit, for the overhead
    untraced: List[UnitTime] = []
    layer_totals = _ServiceLayers()
    attempted = failed = 0
    problems: List[str] = []
    batches = requests = 0
    batch_sizes: List[float] = []
    windows = math.ceil(len(stream) / workload.window)
    planned = workload.passes_for(seconds)
    started = False
    passes = 0
    while passes < planned or len(units) < MIN_UNITS:
        service_pass = svc.ServicePass(setup)
        await service_pass.start()
        pass_latencies: List[float] = []
        latencies_ms.append(pass_latencies)
        try:
            statuses: Dict[int, str] = {}
            releases_sent = releases_failed = 0
            for window in range(windows):
                first = window * workload.window
                indices = range(first,
                                min(len(stream), first + workload.window))
                label = f"pass {passes} window {window}"
                if not started:
                    result = await service_pass.window(stream, indices, clock)
                    started = True
                    log(f"  {label}: warm-up, untimed")
                else:
                    timed_index = len(units)
                    traced_window = trace and timed_index % 2 == 1
                    if traced_window:
                        tracer.set_unit(f"pass{passes}:window{window}")
                        tracer.request_time.clear()
                        before = tracer.snapshot()
                        tracer.install()
                    timer.begin()
                    result = await service_pass.window(stream, indices, clock)
                    unit = timer.end()
                    tracer.uninstall()
                    admits = len(indices)
                    units.append((unit, admits))
                    scale = unit.scale
                    pass_latencies.extend(
                        normalise(lat, clock.cal_around(mid)) * 1e3
                        for lat, mid in zip(result.latencies,
                                            result.midpoints))
                    per_admit = UnitTime(unit.raw_s / admits, unit.cal_s,
                                         unit.samples)
                    if traced_window:
                        traced.append(per_admit)
                        layer_totals.add(tracer.delta(before),
                                         tracer.count_delta(before), unit,
                                         admits)
                        for name, lat in zip(result.names, result.latencies):
                            server = tracer.request_time.get(name, 0.0)
                            layer_totals.queue_wait_s.append(
                                (lat - server) * scale)
                        live = svc.live_mean(await service_pass.stats())
                        if live is not None:
                            layer_totals.lives.append(live)
                    elif trace:
                        untraced.append(per_admit)
                    if window % 5 == 0:
                        log(describe_unit(label + (" (traced)" if traced_window
                                                   else ""), unit))
                statuses.update(result.statuses)
                releases_sent += result.releases_sent
                releases_failed += result.releases_failed
            stats = await service_pass.stats()
        finally:
            await service_pass.stop()
        batches += int(stats["batches"])
        requests += int(stats["counters"].get("service.requests", 0))
        batch_sizes.append(float(stats["mean_batch_size"]))
        counters = stats["counters"]
        divergence = int(counters.get("service.reconcile.divergence", 0))
        decided = sum(1 for status in statuses.values()
                      if status in ("accepted", "rejected"))
        booked = (int(counters.get("service.admits", 0))
                  + int(counters.get("service.rejects", 0)))
        pass_failed = (svc.verdict_failures(statuses, oracle)
                       + releases_failed)
        attempted += len(statuses) + releases_sent
        failed += pass_failed
        log(f"  pass {passes}: {len(statuses)} admits, {releases_sent} "
            f"releases, {pass_failed} failed (verdicts off the "
            f"arrival-order oracle, dropped, error or overload), "
            f"reconcile divergence {divergence}, engine "
            f"{stats['engine_mode']}")
        if divergence:
            problems.append(f"pass {passes}: ledger diverged from its "
                            f"recompute {divergence} times")
        if booked != decided:
            problems.append(f"pass {passes}: service booked {booked} "
                            f"verdicts, clients saw {decided}")
        passes += 1
    extra = {
        "service.server.batches": batches / max(requests, 1),
        "service.server.mean_batch_size": median(batch_sizes),
    }
    return (attempted, failed, problems, units, latencies_ms, traced,
            untraced, layer_totals, extra)


def latency_groups(latencies: List[float],
                   size: int = LATENCY_GROUP) -> List[List[float]]:
    """Consecutive groups of ``size`` latencies; a short tail joins the
    group before it, and a pass shorter than ``size`` is one group."""
    groups = [latencies[i:i + size] for i in range(0, len(latencies), size)]
    if len(groups) > 1 and len(groups[-1]) < size:
        groups[-2].extend(groups.pop())
    return groups


def run_service(workload_name: str, base_seed: int, seconds: float,
                trace: bool, launches: int = SETUP_LAUNCHES):
    workload = svc.WORKLOADS[workload_name]
    clock = Clock()
    setup_units: List[UnitTime] = []
    if not trace:
        setup_units = measure_setup(workload_name, launches)
        for index, unit in enumerate(setup_units):
            log(describe_unit(f"set-up launch {index}", unit))
    tracer = Tracer(clock)
    if trace:
        layers.install_service_layers(tracer)
        tracer.set_unit("setup")
        tracer.install()
    timer = UnitTimer(clock)
    timer.begin()
    setup = svc.load_setup()
    setup_unit = timer.end()
    gate = tracer.totals("verify.gate")
    tracer.uninstall()
    log(f"engine: {setup.engine_mode}")
    stream = svc.make_stream(workload, base_seed)
    oracle = svc.oracle_verdicts(setup, stream)
    log(f"stream: {len(stream)} admits per pass, "
        f"{workload.passes_for(seconds)} passes, {workload.window} per "
        f"window, {svc.CONNECTIONS} connections x 1 in flight; oracle "
        f"rejects {oracle.count(False)}")

    (attempted, failed, problems, units, latencies_ms, traced, untraced,
     layer_totals, extra) = asyncio.run(_drive_service(
         workload, setup, stream, oracle, seconds, trace, tracer, clock))
    if not units:
        raise RuntimeError("no timed window completed")
    window_units = [unit for unit, __ in units]
    summarise("windows", window_units)
    rates = [admits / unit.norm_s for unit, admits in units]
    raw_rates = [admits / unit.raw_s for unit, admits in units]
    groups = [group for lats in latencies_ms
              for group in latency_groups(lats)]
    p50s = [percentile(group, 50) for group in groups]
    p99s = [percentile(group, 99) for group in groups]
    log(f"admit latency (normalised) over {len(groups)} groups of "
        f"{min(len(g) for g in groups)}-{max(len(g) for g in groups)} "
        f"admits: p50 {min(p50s):.4f}-{max(p50s):.4f} ms, p99 "
        f"{min(p99s):.4f}-{max(p99s):.4f} ms")
    if not trace:
        summarise("set-up launches", setup_units)
        metrics = {
            "setup_s": median([u.norm_s for u in setup_units]),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": median(rates),
            "latency_p50_ms": median(p50s),
            "latency_p99_ms": median(p99s),
        }
        log(f"admits per second: raw {median(raw_rates):.2f}, normalised "
            f"{metrics['throughput_per_s']:.2f} over {len(rates)} windows; "
            f"admit p50 {metrics['latency_p50_ms']:.4f} ms, p99 "
            f"{metrics['latency_p99_ms']:.4f} ms (medians over "
            f"{len(groups)} groups)")
        return attempted, failed, metrics, problems

    values = layer_totals.values()
    values.update(extra)
    values["verify.calls"] = gate[0]
    values["verify.gate_s"] = gate[1] * setup_unit.scale
    values.update(_overhead(traced, untraced))
    _write_spans(tracer, workload_name)
    return attempted, failed, values, problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def declared_metrics(trace: bool) -> List[Dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        bench = json.load(stream)
    return bench["per_layer" if trace else "end_to_end"]


def result_line(attempted: int, failed: int, values: Dict[str, float],
                trace: bool, correct: bool = True) -> str:
    """The closing JSON object: every declared metric, by name and unit."""
    metrics = {}
    for metric in declared_metrics(trace):
        name = metric["name"]
        if name in values:
            value = float(values[name])
        elif trace:
            value = 0.0  # a layer this workload never calls
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload)

    info = fingerprint()
    log(f"machine: {info['cpu']}; nproc {info['nproc']}; python "
        f"{info['python']} ({info['implementation']}); calibration "
        f"{info['cal_iterations']} iterations, reference "
        f"{info['cal_ref_s'] * 1e3:.3f} ms")
    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}")
    trace = bool(args.trace)
    runner = run_simulation if args.workload in sim.WORKLOADS else run_service
    attempted, failed, values, problems = runner(args.workload, args.seed,
                                                 args.seconds, trace)
    log(f"operations: {failed} failed / {attempted} attempted")
    for problem in problems:
        log(f"INCORRECT: {problem}")
    for name in sorted(values):
        log(f"  {name} = {values[name]:.6g}")
    print(result_line(attempted, failed, values, trace, not problems),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
