"""Each workload completes at a tiny size, traced and untraced."""

import dataclasses
import json

import pytest

import run
import service as svc
import simulation as sim


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    def dense():
        scheduler, kwargs = sim.dense_trace_config()
        return scheduler, dict(kwargs, duration_ms=40.0)

    def bbw():
        scheduler, kwargs = sim.bbw_campaign_config()
        return scheduler, dict(kwargs, instance_limit=3)

    monkeypatch.setitem(sim.WORKLOADS, "dense-trace", dataclasses.replace(
        sim.WORKLOADS["dense-trace"], config=dense))
    monkeypatch.setitem(sim.WORKLOADS, "bbw-campaign", dataclasses.replace(
        sim.WORKLOADS["bbw-campaign"], config=bbw))
    for name in svc.WORKLOADS:
        monkeypatch.setitem(svc.WORKLOADS, name, dataclasses.replace(
            svc.WORKLOADS[name], pass_requests=60, window=20))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _run(workload, trace):
    runner = (run.run_simulation if workload in sim.WORKLOADS
              else run.run_service)
    attempted, failed, values, problems = runner(workload, 1, 0.0, trace,
                                                 launches=1)
    assert problems == []
    line = json.loads(run.result_line(attempted, failed, values, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert set(line["metrics"]) == {m["name"] for m in declared}
    return line, values


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tiny, workload):
    line, values = _run(workload, trace=False)
    for metric in line["metrics"].values():
        assert metric["value"] > 0
    if workload != "admit-backlog":
        assert line["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_layers_and_writes_spans(tiny, workload):
    line, values = _run(workload, trace=True)
    assert "trace.overhead_pct" in values
    assert (tiny / f"spans-{workload}.npz").exists()
    if workload == "dense-trace":
        assert values["core.slack.try_promise.calls"] == 0
        assert values["core.slack.idle_slot_windows.calls"] == 0
        assert values["sim.trace.records"] > 0
        assert values["verify.calls"] == 0
    elif workload == "bbw-campaign":
        assert values["core.slack.try_promise.calls"] > 0
        assert values["core.slack.supply_between.calls"] > 0
        assert values["verify.calls"] == 1
    else:
        assert values["service.ledger.admit.calls"] == pytest.approx(1.0)
        assert values["service.protocol.parse.calls"] >= 1.0
        assert values["verify.calls"] == 1


def test_every_declared_layer_metric_is_measured_by_some_workload(tiny):
    measured = set()
    for workload in ("bbw-campaign", "admit-backlog"):
        __, values = _run(workload, trace=True)
        measured |= set(values)
    declared = {m["name"] for m in run.declared_metrics(trace=True)}
    assert declared <= measured


def test_admission_passes_follow_seconds_only():
    for workload in svc.WORKLOADS.values():
        assert workload.passes_for(0.0) == 1
        assert workload.passes_for(workload.pass_seconds) == 1
        assert workload.passes_for(workload.pass_seconds * 2.5) == 3


def test_admission_counts_repeat_for_a_seed(tiny):
    counts = set()
    for __ in range(2):
        attempted, failed, __, problems = run.run_service(
            "admit-backlog", 1, 0.0, False, launches=1)
        assert problems == []
        counts.add((attempted, failed))
    assert len(counts) == 1
