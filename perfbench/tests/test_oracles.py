"""Each output oracle catches an injected mismatch."""

import dataclasses

import service as svc
import simulation as sim


def tiny_dense_config():
    scheduler, kwargs = sim.dense_trace_config()
    return scheduler, dict(kwargs, duration_ms=40.0)


def test_digest_oracle_catches_a_wrong_digest(tmp_path):
    workload = dataclasses.replace(sim.WORKLOADS["dense-trace"],
                                   config=tiny_dense_config)
    sim.WORKLOADS["tiny"] = workload
    try:
        session = sim.open_session("tiny", str(tmp_path / "store.db"))
        try:
            run_id, result = sim.run_seed(session, 5)
            same, stored, oracle = sim.check_digest(
                session, 5, run_id, result.engine_mode)
            assert same and stored == oracle
            # Seed 6's interpreter trace against seed 5's ingested digest:
            # the stored digest is wrong for it.
            same, stored, oracle = sim.check_digest(
                session, 6, run_id, result.engine_mode)
            assert not same
        finally:
            session.close()
    finally:
        del sim.WORKLOADS["tiny"]
    assert not (tmp_path / "store.db").exists()


def test_verdict_oracle_catches_a_flipped_verdict():
    setup = svc.load_setup()
    workload = dataclasses.replace(svc.WORKLOADS["admit-backlog"],
                                   pass_requests=400)
    stream = svc.make_stream(workload, seed=3)
    oracle = svc.oracle_verdicts(setup, stream)
    assert not all(oracle), "the backlog stream should reject some requests"
    statuses = {index: "accepted" if admitted else "rejected"
                for index, admitted in enumerate(oracle)}
    assert svc.verdict_failures(statuses, oracle) == 0

    flipped = dict(statuses)
    flipped[10] = "rejected" if oracle[10] else "accepted"
    assert svc.verdict_failures(flipped, oracle) == 1

    for status in ("overload", "error", "dropped"):
        broken = dict(statuses)
        broken[20] = status
        assert svc.verdict_failures(broken, oracle) == 1
