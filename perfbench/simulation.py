"""The two campaign workloads: serial seeds, each simulated and ingested.

A seed is one unit of work: ``run_experiment`` (simulate and reduce the
trace to metrics) followed by ``ResultStore.record_run`` (trace digest
and ingest), the per-seed half of ``repro campaign --store``.  Anything
not set here uses the program's defaults, the engine included.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Messages in the dense-trace scenario, as in benchmarks/bench_engine.py.
DENSE_MESSAGES = 40


def dense_trace_config() -> Tuple[str, Dict[str, object]]:
    """Static-only, 40 cycle-aligned messages every other cycle, BER 1e-3.

    About 51k trace records per seed over the 2000 ms horizon: record
    production, fault draws, metric reduction and digesting dominate,
    and the policy does no slack work.
    """
    from repro.flexray.params import paper_dynamic_preset
    from repro.protocol.signal import Signal, SignalSet

    params = paper_dynamic_preset(100)
    period_ms = 2 * params.cycle_ms
    signals = SignalSet(
        [Signal(name=f"dense-{i:02d}", ecu=i % 10, period_ms=period_ms,
                offset_ms=0.0, deadline_ms=period_ms, size_bits=144)
         for i in range(DENSE_MESSAGES)],
        name="dense",
    )
    return "static-only", dict(params=params, periodic=signals, ber=1e-3,
                               duration_ms=2000.0)


def bbw_campaign_config() -> Tuple[str, Dict[str, object]]:
    """The paper's brake-by-wire running-time experiment under CoEfficient."""
    from repro.experiments.figures import case_study_params
    from repro.workloads.bbw import bbw_signals

    return "coefficient", dict(params=case_study_params("bbw"),
                               periodic=bbw_signals(), ber=1e-7,
                               duration_ms=None, instance_limit=200)


@dataclass(frozen=True)
class SimWorkload:
    #: Returns ``(scheduler, run_experiment keyword arguments)``.
    config: object
    #: Whether set-up runs the verify gate, as ``repro campaign
    #: --validate`` does.  dense-trace cannot: static-only misses rho at
    #: BER 1e-3, so the gate rejects it (ANA204, MDL404).
    gate: bool
    #: Seeds whose digest is checked against the interpreter per run:
    #: the first timed seed, and the last one too when this is 2.
    digest_checks: int


WORKLOADS = {
    "dense-trace": SimWorkload(dense_trace_config, gate=False,
                               digest_checks=1),
    "bbw-campaign": SimWorkload(bbw_campaign_config, gate=True,
                                digest_checks=2),
}

#: The keyword arguments the campaign gate forwards to verify_experiment.
_GATE_KWARGS = ("params", "periodic", "aperiodic", "ber",
                "reliability_goal", "time_unit_ms")


@dataclass
class SimSession:
    """A workload ready for its first seed: configuration and open store."""

    workload: SimWorkload
    scheduler: str
    kwargs: Dict[str, object]
    store: object
    store_path: str

    def close(self) -> None:
        self.store.close()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.store_path + suffix)
            except FileNotFoundError:
                pass


def open_session(name: str, store_path: str) -> SimSession:
    """Set-up: build the configuration, run the gate, open the store."""
    import repro.verify
    from repro.results.store import ResultStore

    workload = WORKLOADS[name]
    scheduler, kwargs = workload.config()
    if workload.gate:
        report = repro.verify.verify_experiment(
            **{key: kwargs[key] for key in _GATE_KWARGS if key in kwargs})
        if report.has_errors:
            raise repro.verify.ConfigurationError(report)
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(store_path + suffix):
            os.remove(store_path + suffix)
    store = ResultStore(store_path)
    return SimSession(workload, scheduler, kwargs, store, store_path)


def run_seed(session: SimSession, seed: int) -> Tuple[str, object]:
    """One unit: simulate, reduce, digest and ingest one seed."""
    from repro.experiments.runner import run_experiment

    result = run_experiment(scheduler=session.scheduler, seed=seed,
                            **session.kwargs)
    run_id = session.store.record_run(result, seed, session.kwargs)
    return run_id, result


def stored_digest(session: SimSession, run_id: str,
                  engine_mode: str) -> Optional[str]:
    rows, __ = session.store.digests(run_id=run_id, engine_mode=engine_mode)
    return str(rows[0]["digest"]) if rows else None


def check_digest(session: SimSession, seed: int, run_id: str,
                 engine_mode: str) -> Tuple[bool, Optional[str], str]:
    """Compare the ingested digest of ``run_id`` with the interpreter's.

    Returns ``(match, stored, oracle)``.
    """
    stored = stored_digest(session, run_id, engine_mode)
    oracle = interpreter_digest(session, seed)
    return stored == oracle, stored, oracle


def interpreter_digest(session: SimSession, seed: int) -> str:
    """The oracle: the same seed under the pure event-list interpreter."""
    from repro.experiments.runner import run_experiment
    from repro.sim.trace import trace_digest

    result = run_experiment(scheduler=session.scheduler, seed=seed,
                            engine_mode="interpreter", **session.kwargs)
    return trace_digest(result.cluster.trace)
