"""Which public functions of :mod:`repro` the traced run wraps, per layer.

Every name here is a function or method the program already exposes;
the wrappers are registered on a :class:`tracer.Tracer` and only take
effect while it is installed.  Module-level functions are patched where
their caller looks them up (``repro.experiments.runner.pack_signals``,
not ``repro.packing.frame_packing.pack_signals``).
"""

from __future__ import annotations

from tracer import Tracer

#: Policy hooks timed one metric each (``core.policy.<hook>``).
POLICY_HOOKS = ("on_arrival", "static_frame_for", "dynamic_frame_for",
                "on_outcome")


def _count_records(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.bump("sim.trace.records")


def _count_record_batch(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.bump("sim.trace.records", len(args[1]))


def _count_draw(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.bump("faults.draws")
    if result:
        tracer.bump("faults.corruptions")


def _count_draw_batch(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.bump("faults.draws", len(result))
    tracer.bump("faults.corruptions", sum(1 for hit in result if hit))


def _count_cycles(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.bump("sim.engine.cycles", int(result))


def install_simulation_layers(tracer: Tracer) -> None:
    """Register the simulation-side wrappers (see the README table)."""
    import repro.core.queueing
    import repro.experiments.runner
    import repro.sim.trace
    import repro.verify
    from repro.baselines.static_only import StaticOnlyPolicy
    from repro.core.coefficient import CoEfficientPolicy
    from repro.core.selective_slack import SelectiveSlackPlanner
    from repro.faults.injector import TransientFaultInjector
    from repro.protocol.arrivals import ArrivalMultiplexer
    from repro.protocol.cluster import Cluster
    from repro.results.store import ResultStore
    from repro.sim.trace import TraceRecorder
    from repro.timeline.compiler import CompiledRound

    tracer.patch_wrapped(repro.verify, "verify_experiment", "verify.gate")
    tracer.patch_wrapped(repro.experiments.runner, "pack_signals",
                         "packing.pack")
    tracer.patch_wrapped(repro.core.queueing, "compile_round",
                         "timeline.compile")
    tracer.patch_wrapped(Cluster, "run_for_ms", "sim.engine",
                         after=_count_cycles)
    tracer.patch_wrapped(Cluster, "run_until_complete", "sim.engine",
                         after=_count_cycles)
    tracer.patch_wrapped(Cluster, "metrics", "sim.metrics")
    tracer.patch_wrapped(ArrivalMultiplexer, "pop_until", "protocol.arrivals")
    for policy in (CoEfficientPolicy, StaticOnlyPolicy):
        for hook in POLICY_HOOKS:
            tracer.patch_wrapped(policy, hook, f"core.policy.{hook}")
    tracer.patch_wrapped(SelectiveSlackPlanner, "try_promise",
                         "core.slack.try_promise")
    tracer.patch_wrapped(SelectiveSlackPlanner, "supply_between",
                         "core.slack.supply_between")
    tracer.patch(CompiledRound, "idle_slot_windows",
                 tracer.counting("core.slack.idle_slot_windows",
                                 CompiledRound.idle_slot_windows))
    tracer.patch_wrapped(TransientFaultInjector, "__call__", "faults",
                         after=_count_draw)
    tracer.patch_wrapped(TransientFaultInjector, "batch", "faults",
                         after=_count_draw_batch)
    tracer.patch_wrapped(TraceRecorder, "record", "sim.trace",
                         after=_count_records)
    tracer.patch_wrapped(TraceRecorder, "record_batch", "sim.trace",
                         after=_count_record_batch)
    tracer.patch_wrapped(TraceRecorder, "note_instance", "sim.trace")
    tracer.patch_wrapped(repro.sim.trace, "trace_digest", "results.digest")
    tracer.patch_wrapped(ResultStore, "record_run", "results.ingest")


def _reason_slug(reason: str) -> str:
    if "already guaranteed" in reason:
        return "name-already-guaranteed"
    return "-".join(reason.split())


def _count_verdict(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.bump("service.ledger.verdict." + _reason_slug(result.reason))


def _parsed_name(args: tuple, result: object):
    name = result.fields.get("name") if result.op == "admit" else None
    return None if name is None else str(name)


def _admit_name(args: tuple, result: object):
    return str(args[1])


def _encoded_name(args: tuple, result: object):
    response = args[0]
    if response.get("status") in ("accepted", "rejected"):
        name = response.get("name")
        return None if name is None else str(name)
    return None


def install_service_layers(tracer: Tracer) -> None:
    """Register the admission-service wrappers (see the README table)."""
    import repro.service.config
    import repro.service.server
    from repro.service.ledger import SlackLedger

    tracer.patch_wrapped(repro.service.config, "verify_experiment",
                         "verify.gate")
    tracer.patch_wrapped(repro.service.server, "parse_request",
                         "service.protocol.parse", key=_parsed_name)
    tracer.patch_wrapped(repro.service.server, "encode_response",
                         "service.protocol.encode", key=_encoded_name)
    tracer.patch_wrapped(SlackLedger, "admit", "service.ledger.admit",
                         after=_count_verdict, key=_admit_name)
    for method in ("release", "advance", "reconcile"):
        tracer.patch_wrapped(SlackLedger, method, f"service.ledger.{method}")
