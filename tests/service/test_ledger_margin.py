"""The ledger's one-pass demand-criterion sweep against brute force.

``SlackLedger._demand_criterion`` computes, in one sweep over the live
set, the admission margin

    min over a <= arrival, d >= deadline of
        F(d) - F(a) - execution - demand(a, d)

and the window demand ``demand(arrival, deadline)``.  The references
here enumerate every ``(a, d)`` pair straight from the definition in
the ledger's module docstring, with ``demand`` re-summed per pair.

- a hypothesis search over admit/advance/release sequences with mixed
  relative deadlines (so both sweep orientations run), on a table that
  extrapolates past its horizon, one that saturates, and
  ``CapacityProfile.unconstrained`` (profiles ``dev``/``ci`` via
  ``REPRO_HYPOTHESIS_PROFILE``);
- directed cases pinning each orientation (more starts than ends and
  the mirror image);
- after every accepted admit, the whole live set must still satisfy
  the criterion over *all* pairs;
- a pinned SHA-256 of every ``AdmitOutcome`` field for an 8000-request
  backlog stream replayed through fresh ledgers in arrival order.
"""

import hashlib
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tasks import PeriodicTask, TaskSet
from repro.service.config import load_service_setup
from repro.service.ledger import SlackLedger
from repro.service.loadgen import LoadgenSpec, generate_requests

settings.register_profile("dev", max_examples=40, deadline=None,
                          derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("ci", max_examples=150, deadline=None,
                          derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))

#: Upper bound on the live set so the brute force stays fast.
MAX_LIVE = 40


def task_set(*specs):
    return TaskSet([
        PeriodicTask(name=name, execution=c, period=t, deadline=d)
        for name, c, t, d in specs
    ])


def make_ledger(kind):
    if kind == "extrapolating":
        # Default horizon max_offset + 2H = 40 holds one steady-state
        # pattern; the streams below run well past it.
        return SlackLedger(task_set(("hi", 1, 4, 4), ("lo", 2, 10, 10)))
    if kind == "saturating":
        # A horizon shorter than one pattern: F saturates past it.
        return SlackLedger(task_set(("hi", 1, 4, 4), ("lo", 2, 10, 10)),
                           horizon=30)
    assert kind == "unconstrained"
    return SlackLedger(TaskSet([]), horizon=50)


def demand(live, a, d):
    """Execution of live tasks whose window lies inside ``[a, d]``."""
    return sum(execution for __, arrival, deadline, execution in live
               if arrival >= a and deadline <= d)


def reference_margin(ledger, arrival, deadline, execution):
    """Brute-force margin and window demand over every candidate pair."""
    live = ledger.live_tasks()
    starts = {arrival} | {t[1] for t in live if t[1] <= arrival}
    ends = {deadline} | {t[2] for t in live if t[2] >= deadline}
    candidate = [("candidate", arrival, deadline, execution)]
    margin = min(ledger.capacity(d) - ledger.capacity(a)
                 - demand(live + candidate, a, d)
                 for a in starts for d in ends)
    return margin, demand(live, arrival, deadline)


def criterion_holds_everywhere(ledger):
    """Whether every pair a < d of live arrivals/deadlines has room."""
    live = ledger.live_tasks()
    return all(demand(live, a, d) <= ledger.capacity(d) - ledger.capacity(a)
               for a in {t[1] for t in live} for d in {t[2] for t in live}
               if a < d)


def sweep_axes(ledger, arrival, deadline):
    """``(starts, ends)`` counts the sweep sees for a candidate."""
    live = ledger.live_tasks()
    starts = {arrival} | {t[1] for t in live if t[1] < arrival}
    ends = {deadline} | {t[2] for t in live if t[2] > deadline}
    return len(starts), len(ends)


def check_admit(ledger, name, arrival, execution, deadline):
    """Admit through the ledger, checking every number on the way."""
    effective = max(arrival, ledger.now)
    absolute = arrival + deadline
    expected = None
    if absolute > effective:
        expected = reference_margin(ledger, effective, absolute, execution)
        assert ledger._demand_criterion(effective, absolute,
                                        execution) == expected
    outcome = ledger.admit(name, arrival, execution, deadline)
    if expected is None:
        assert not outcome.admitted
        return outcome
    margin, window_demand = expected
    window = ledger.capacity(absolute) - ledger.capacity(effective)
    if outcome.admitted:
        assert margin >= 0
        assert outcome.window_slack == window - window_demand - execution
        assert criterion_holds_everywhere(ledger)
    elif outcome.reason == "committed demand exceeds window slack":
        assert margin < 0 <= window - execution
        assert outcome.window_slack == margin
    elif outcome.reason == "insufficient structural slack in window":
        assert window < execution
        assert outcome.window_slack == window - window_demand
    else:
        assert absolute > ledger.horizon and not ledger.extrapolates
    return outcome


operations = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "admit", "admit", "advance",
                         "release"]),
        st.integers(0, 3),                         # clock step
        st.integers(-3, 8),                        # arrival jitter
        st.integers(1, 5),                         # execution
        st.sampled_from([5, 8, 15, 30, 60, 110, 200]),  # deadline
    ),
    min_size=60, max_size=120)


@given(kind=st.sampled_from(["extrapolating", "saturating",
                             "unconstrained"]),
       ops=operations)
def test_sweep_matches_brute_force(kind, ops):
    ledger = make_ledger(kind)
    clock = 0
    for index, (op, step, jitter, execution, deadline) in enumerate(ops):
        clock += step
        if op == "advance":
            ledger.advance(clock)
        elif op == "release":
            names = ledger.live_names
            if names:
                ledger.release(names[index % len(names)])
        elif len(ledger.live_names) < MAX_LIVE:
            check_admit(ledger, f"t{index}", max(0, clock + jitter),
                        execution, deadline)
    assert ledger.reconcile().clean


class TestOrientations:
    def test_more_starts_than_ends(self):
        # Staggered arrivals, one common relative deadline: every live
        # deadline precedes the candidate's, so the sweep walks starts.
        ledger = make_ledger("unconstrained")
        for index in range(12):
            check_admit(ledger, f"t{index}", index * 2, 2, 40)
        starts, ends = sweep_axes(ledger, 24, 64)
        assert starts > ends == 1
        check_admit(ledger, "late", 24, 3, 40)

    def test_ends_outnumber_starts(self):
        # Long-deadline tasks arrive together; a short-deadline
        # candidate then sees many later ends and few earlier starts.
        ledger = make_ledger("extrapolating")
        for index in range(10):
            check_admit(ledger, f"long{index}", 0, 1, 60 + 7 * index)
        starts, ends = sweep_axes(ledger, 3, 13)
        assert ends > starts
        outcome = check_admit(ledger, "short", 3, 2, 10)
        assert outcome.admitted

    def test_margin_reject_walking_starts(self):
        ledger = make_ledger("extrapolating")
        for index in range(10):
            check_admit(ledger, f"t{index}", 2 * index, 3, 30)
        assert sweep_axes(ledger, 21, 61) == (9, 1)
        outcome = check_admit(ledger, "big", 21, 12, 40)
        assert outcome.reason == "committed demand exceeds window slack"

    def test_margin_reject_walking_ends(self):
        ledger = make_ledger("extrapolating")
        for index in range(10):
            assert check_admit(ledger, f"t{index}", 0, 4,
                               45 + 5 * index).admitted
        assert sweep_axes(ledger, 21, 44) == (2, 11)
        outcome = check_admit(ledger, "big", 21, 10, 23)
        assert outcome.reason == "committed demand exceeds window slack"
        assert ledger.reconcile().clean


# ----------------------------------------------------------------------
# Pinned outcomes on the admit-backlog stream
# ----------------------------------------------------------------------

BACKLOG_SPEC = LoadgenSpec(requests=8000, seed=501,
                           mean_interarrival_ticks=4.0,
                           deadline_ticks=1000, execution_min=1,
                           execution_max=12, release_fraction=0.3)

#: SHA-256 over compact JSON rows ``[admitted, reason, arrival,
#: deadline, window_slack]`` of BACKLOG_SPEC replayed through fresh
#: ledgers in arrival order -- the ``outcome_digest`` that the
#: ``ledger`` section of ``benchmarks/bench_service.py`` reports.
BACKLOG_OUTCOME_DIGEST = (
    "acbc0c880210ef3940f80158abd0314269b7e2b55e38d7f2e1280981907ee4b1")


def test_backlog_outcome_digest_is_pinned():
    setup = load_service_setup("bbw")
    ledgers = {channel: SlackLedger(tasks, channel=channel)
               for channel, tasks in sorted(setup.channel_tasks.items())}
    rows = []
    for item in generate_requests(BACKLOG_SPEC):
        ledger = ledgers[item.channel]
        ledger.advance(item.arrival)
        outcome = ledger.admit(item.name, item.arrival, item.execution,
                               item.deadline)
        rows.append([outcome.admitted, outcome.reason, outcome.arrival,
                     outcome.deadline, outcome.window_slack])
        if outcome.admitted and item.release_after:
            ledger.release(item.name)
    digest = hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert sum(row[0] for row in rows) == 7165
    assert digest == BACKLOG_OUTCOME_DIGEST
    assert all(ledger.reconcile().clean for ledger in ledgers.values())
