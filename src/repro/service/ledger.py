"""Incremental slack accounting for online admission control.

The offline :class:`~repro.core.acceptance.AcceptanceTest` answers one
admission question with a trial run of the exact slack-stealing
schedule -- O(horizon) per request.  A service answering thousands of
requests needs the paper's "fast and accurate slack computation"
instead: precompute the guaranteed aperiodic capacity once, then keep
the committed demand *incrementally* as requests are admitted, released
and expired.

The capacity function comes straight from the slack stealer's
aperiodic-free tables:

    F(t) = min_i A_i(t)

the processing guaranteed to be available for top-priority aperiodic
service in ``[0, t]`` no matter how the periodic jobs interleave (idle
at every level is necessary for top-priority aperiodic service).  F is
nondecreasing, so an admitted set served earliest-deadline-first over
this capacity is feasible **iff** the processor-demand criterion holds
on the variable-capacity resource:

    for every arrival a and deadline d with a < d:
        demand(a, d) <= F(d) - F(a)

where ``demand(a, d)`` sums the execution of admitted tasks whose
window ``[arrival, absolute deadline]`` is contained in ``[a, d]``.
Admitting a candidate only creates pairs that *contain* the candidate's
window, so the incremental check is restricted to arrivals <= the
candidate's arrival and deadlines >= the candidate's deadline -- the
state invariant ("the live set satisfies the criterion") carries the
rest.

The ledger maintains three incremental aggregates next to the
authoritative live-set map -- total committed demand, per-deadline
demand, per-arrival demand -- and :meth:`reconcile` rebuilds all of
them from scratch, asserting agreement (and self-healing plus counting
any divergence, which tests and the service's periodic reconciliation
pass require to be zero).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.slack_stealing import CapacityProfile, SlackStealer
from repro.core.tasks import TaskSet
from repro.obs import NULL_OBS, ObsLike

__all__ = ["AdmitOutcome", "LedgerStats", "ReconcileResult", "SlackLedger"]


@dataclass(frozen=True)
class AdmitOutcome:
    """Result of one ledger admission attempt."""

    admitted: bool
    reason: str
    #: Effective (clamped-to-now) arrival the test used.
    arrival: int = 0
    #: Absolute deadline the test used.
    deadline: int = 0
    #: F(deadline) - F(arrival) - demand in the window after the
    #: decision: the guaranteed slack still unclaimed in the window.
    window_slack: int = 0


@dataclass(frozen=True)
class LedgerStats:
    """Point-in-time summary of one channel's ledger."""

    live: int
    committed: int
    admitted_total: int
    rejected_total: int
    released_total: int
    expired_total: int
    now: int
    horizon: int
    capacity_total: int
    capacity_remaining: int


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of one full-recompute reconciliation pass."""

    divergences: Tuple[str, ...]
    live: int
    committed: int

    @property
    def clean(self) -> bool:
        """Whether incremental and recomputed state agreed exactly."""
        return not self.divergences


@dataclass(frozen=True)
class _Admitted:
    """One live (admitted, not yet released/expired) task."""

    name: str
    arrival: int
    deadline: int  # absolute
    execution: int


@dataclass
class _Aggregates:
    """The incrementally maintained bookkeeping (reconciliation target)."""

    committed: int = 0
    demand_by_deadline: Dict[int, int] = field(default_factory=dict)
    demand_by_arrival: Dict[int, int] = field(default_factory=dict)

    def add(self, task: _Admitted) -> None:
        self.committed += task.execution
        self.demand_by_deadline[task.deadline] = (
            self.demand_by_deadline.get(task.deadline, 0) + task.execution)
        self.demand_by_arrival[task.arrival] = (
            self.demand_by_arrival.get(task.arrival, 0) + task.execution)

    def remove(self, task: _Admitted) -> None:
        self.committed -= task.execution
        for table, key in ((self.demand_by_deadline, task.deadline),
                           (self.demand_by_arrival, task.arrival)):
            remaining = table[key] - task.execution
            if remaining:
                table[key] = remaining
            else:
                del table[key]


_ARRIVAL = attrgetter("arrival")
_DEADLINE = attrgetter("deadline")


class SlackLedger:
    """Per-channel incremental slack accountant.

    Args:
        tasks: The channel's hard periodic task set (priority order).
            May be empty, in which case every tick is capacity and
            ``horizon`` is required.
        horizon: Analysis horizon in ticks; defaults to the task set's.
        obs: Observability context for admission counters.
        channel: Label used in counters (``service.<channel>...``).
    """

    def __init__(self, tasks: TaskSet, horizon: Optional[int] = None,
                 obs: ObsLike = NULL_OBS, channel: str = "A") -> None:
        self._obs = obs
        self._channel = channel
        if len(tasks) == 0:
            if horizon is None or horizon <= 0:
                raise ValueError(
                    "an empty task set needs an explicit positive horizon")
            # No periodics: every tick everywhere is capacity.
            self._profile = CapacityProfile.unconstrained(horizon)
        else:
            # The stealer compiles F once; the ledger only reads the
            # profile (the default horizon max_offset + 2H always
            # contains one steady-state pattern, so the profile
            # extrapolates; a custom horizon that does not saturates
            # and far-future admissions are rejected).
            self._profile = SlackStealer(
                tasks, horizon=horizon).capacity_profile()
        self._horizon = self._profile.horizon
        self._now = 0
        self._live: Dict[str, _Admitted] = {}
        # (deadline, arrival, name) kept sorted for window scans.
        self._order: List[Tuple[int, int, str]] = []
        self._agg = _Aggregates()
        self._admitted_total = 0
        self._rejected_total = 0
        self._released_total = 0
        self._expired_total = 0

    # -- properties ----------------------------------------------------

    @property
    def horizon(self) -> int:
        """Last tick the capacity table covers."""
        return self._horizon

    @property
    def now(self) -> int:
        """Current logical time (ticks)."""
        return self._now

    @property
    def live_names(self) -> List[str]:
        """Names of currently guaranteed tasks (sorted)."""
        return sorted(self._live)

    def live_tasks(self) -> List[Tuple[str, int, int, int]]:
        """Live tasks as ``(name, arrival, absolute_deadline, execution)``.

        Sorted by (deadline, arrival, name): the order the capacity is
        consumed under EDF service.
        """
        return [(name, self._live[name].arrival, deadline,
                 self._live[name].execution)
                for deadline, __, name in self._order]

    @property
    def profile(self) -> CapacityProfile:
        """The compiled capacity function the ledger accounts against."""
        return self._profile

    @property
    def extrapolates(self) -> bool:
        """Whether capacity extends past the table (steady-state slope)."""
        return self._profile.extrapolates

    def capacity(self, t: int) -> int:
        """F(t): guaranteed aperiodic capacity in ``[0, t]``.

        Inside the analysis horizon this is the precomputed table; past
        it, the steady-state pattern repeats every hyperperiod, so the
        table's last full pattern is tiled with its per-pattern gain
        (exact for the cyclic aperiodic-free schedule).
        """
        return self._profile.capacity(t)

    # -- clock ---------------------------------------------------------

    def advance(self, now: int) -> List[str]:
        """Advance the logical clock (monotone) and expire the past.

        A task whose absolute deadline is ``<= now`` is over -- either
        it was served in time (its slot consumption is behind us) or it
        is unsalvageable; either way its window no longer constrains
        new admissions, so its demand is reclaimed.  Exact-boundary
        semantics match :meth:`AcceptanceTest.expire`: ``deadline ==
        now`` expires.

        Returns:
            Names of expired tasks (deadline order).
        """
        if now > self._now:
            self._now = now
        # Every (deadline, ...) entry with deadline <= now sorts first.
        cut = bisect.bisect_left(self._order, (self._now + 1,))
        expired = [name for __, __, name in self._order[:cut]]
        del self._order[:cut]
        for name in expired:
            self._agg.remove(self._live.pop(name))
        if expired:
            self._expired_total += len(expired)
            if self._obs.enabled:
                self._obs.inc(f"service.{self._channel}.expired",
                              len(expired))
        return expired

    # -- admission -----------------------------------------------------

    def admit(self, name: str, arrival: int, execution: int,
              deadline: int) -> AdmitOutcome:
        """Admission-test one hard aperiodic request.

        Args:
            name: Unique name among live tasks.
            arrival: Requested arrival tick (clamped up to ``now``).
            execution: Processing demand in ticks (>= 1).
            deadline: *Relative* hard deadline in ticks.

        Returns:
            An :class:`AdmitOutcome`; on admission the task joins the
            live set and its demand the incremental aggregates.
        """
        if execution < 1:
            return self._reject("execution must be >= 1", 0, 0)
        if deadline < execution:
            return self._reject("deadline below execution", 0, 0)
        effective = max(arrival, self._now)
        absolute = arrival + deadline
        if absolute <= effective:
            return self._reject("deadline already passed", effective,
                                absolute)
        if name in self._live:
            return self._reject(f"name {name!r} already guaranteed",
                                effective, absolute)
        if absolute > self._horizon and not self.extrapolates:
            return self._reject("deadline beyond analysis horizon",
                                effective, absolute)

        window = self.capacity(absolute) - self.capacity(effective)
        if window < execution:
            # The paper's quick-reject: even an empty system lacks the
            # structural slack.
            if self._obs.enabled:
                self._obs.inc(f"service.{self._channel}.quick_rejects")
            return self._reject("insufficient structural slack in window",
                                effective, absolute,
                                window - self._window_demand(
                                    effective, absolute))

        margin, window_demand = self._demand_criterion(effective, absolute,
                                                       execution)
        if margin < 0:
            return self._reject("committed demand exceeds window slack",
                                effective, absolute, margin)

        task = _Admitted(name=name, arrival=effective, deadline=absolute,
                         execution=execution)
        self._live[name] = task
        bisect.insort(self._order, (absolute, effective, name))
        self._agg.add(task)
        self._admitted_total += 1
        if self._obs.enabled:
            self._obs.inc(f"service.{self._channel}.admitted")
        return AdmitOutcome(
            admitted=True, reason="window demand within guaranteed slack",
            arrival=effective, deadline=absolute,
            window_slack=window - window_demand - execution)

    def _reject(self, reason: str, arrival: int, deadline: int,
                window_slack: int = 0) -> AdmitOutcome:
        self._rejected_total += 1
        if self._obs.enabled:
            self._obs.inc(f"service.{self._channel}.rejected")
        return AdmitOutcome(admitted=False, reason=reason, arrival=arrival,
                            deadline=deadline, window_slack=window_slack)

    def _window_demand(self, start: int, end: int) -> int:
        """Committed demand of live tasks contained in ``[start, end]``."""
        return sum(t.execution for t in self._live.values()
                   if t.arrival >= start and t.deadline <= end)

    def _demand_criterion(self, arrival: int, deadline: int,
                          execution: int) -> Tuple[int, int]:
        """Admission margin and window demand in one sweep of the live set.

        Only pairs ``(a, d)`` with ``a <= arrival`` and ``d >= deadline``
        gain the candidate's demand; all other pairs held before and are
        untouched.  The margin is ``min (F(d) - F(a) - execution -
        demand(a, d))`` over those pairs -- the admission is safe iff it
        is >= 0 -- and the window demand is ``demand(arrival,
        deadline)`` without the candidate.

        The candidate's starts ``a`` are ``arrival`` and the earlier live
        arrivals, its ends ``d`` are ``deadline`` and the later live
        deadlines.  The sweep walks the longer axis once, covering live
        tasks as it goes, and keeps one running slack per point of the
        shorter axis:

        - more starts: ``a`` descends; a task with ``arrival >= a``
          counts towards every end ``d >= task.deadline``;
        - otherwise ``d`` ascends; a task with ``deadline <= d`` counts
          towards every start ``a <= task.arrival``.

        That is ``S + E`` capacity lookups and ``O((S + E + L) *
        min(S, E))`` steps for ``L`` live tasks, instead of a demand
        re-scan per ``(a, d)`` pair.

        Returns:
            ``(margin, window_demand)``.
        """
        capacity = self._profile.capacity
        live = self._live.values()
        starts = {t.arrival for t in live if t.arrival < arrival}
        starts.add(arrival)
        ends = {t.deadline for t in live if t.deadline > deadline}
        ends.add(deadline)
        # Demand every point of the shorter axis shares: tasks inside
        # the candidate's own bound on that axis.  Only the others need
        # a per-point update.
        shared = window_demand = index = 0
        margins: List[int] = []
        if len(starts) > len(ends):
            points = sorted(ends)
            slack = [capacity(d) - execution for d in points]
            tasks = sorted(live, key=_ARRIVAL, reverse=True)
            for a in sorted(starts, reverse=True):
                while index < len(tasks) and tasks[index].arrival >= a:
                    task = tasks[index]
                    index += 1
                    if task.deadline <= deadline:
                        shared += task.execution
                        continue
                    for j in range(bisect.bisect_left(points, task.deadline),
                                   len(points)):
                        slack[j] -= task.execution
                if not margins:  # a == arrival: the candidate's window
                    window_demand = shared
                margins.append(min(slack) - shared - capacity(a))
        else:
            points = sorted(starts)
            slack = [-capacity(a) - execution for a in points]
            tasks = sorted(live, key=_DEADLINE)
            for d in sorted(ends):
                while index < len(tasks) and tasks[index].deadline <= d:
                    task = tasks[index]
                    index += 1
                    if task.arrival >= arrival:
                        shared += task.execution
                        continue
                    for i in range(bisect.bisect_right(points, task.arrival)):
                        slack[i] -= task.execution
                if not margins:  # d == deadline: the candidate's window
                    window_demand = shared
                margins.append(capacity(d) + min(slack) - shared)
        return min(margins), window_demand

    # -- releases ------------------------------------------------------

    def release(self, name: str) -> bool:
        """Reclaim a live task's demand (e.g. it completed early).

        Returns:
            ``True`` if the task was live and is now released.
        """
        task = self._live.pop(name, None)
        if task is None:
            return False
        key = (task.deadline, task.arrival, name)
        index = bisect.bisect_left(self._order, key)
        if self._order[index:index + 1] != [key]:
            raise ValueError(f"{name!r} missing from the deadline order")
        del self._order[index]
        self._agg.remove(task)
        self._released_total += 1
        if self._obs.enabled:
            self._obs.inc(f"service.{self._channel}.released")
        return True

    # -- reconciliation ------------------------------------------------

    def reconcile(self) -> ReconcileResult:
        """Recompute every incremental aggregate and assert agreement.

        Rebuilds the committed total, the per-deadline and per-arrival
        demand tables and the deadline-sorted order from the live-set
        map, compares field by field with the incrementally maintained
        copies, and -- if anything diverged -- adopts the recomputed
        truth (self-heal) so one bug cannot silently poison every later
        admission.
        """
        recomputed = _Aggregates()
        for task in sorted(self._live.values(), key=lambda t: t.name):
            recomputed.add(task)
        order = sorted((t.deadline, t.arrival, t.name)
                       for t in self._live.values())

        divergences: List[str] = []
        if recomputed.committed != self._agg.committed:
            divergences.append(
                f"committed: incremental {self._agg.committed} "
                f"!= recomputed {recomputed.committed}")
        if recomputed.demand_by_deadline != self._agg.demand_by_deadline:
            divergences.append("demand_by_deadline tables differ")
        if recomputed.demand_by_arrival != self._agg.demand_by_arrival:
            divergences.append("demand_by_arrival tables differ")
        if order != self._order:
            divergences.append("deadline order index differs")
        if divergences:
            self._agg = recomputed
            self._order = order
        return ReconcileResult(divergences=tuple(divergences),
                               live=len(self._live),
                               committed=recomputed.committed)

    # -- stats ---------------------------------------------------------

    def stats(self) -> LedgerStats:
        """Current counters and capacity position.

        ``capacity_remaining`` is the guaranteed capacity of the next
        lookahead window (one steady-state pattern, or the table tail
        when not extrapolating) minus the committed demand -- the slack
        still on offer right now.
        """
        if self.extrapolates:
            window = self._profile.pattern_length
        else:
            window = self._horizon - min(self._now, self._horizon)
        upcoming = (self.capacity(self._now + window)
                    - self.capacity(self._now))
        return LedgerStats(
            live=len(self._live),
            committed=self._agg.committed,
            admitted_total=self._admitted_total,
            rejected_total=self._rejected_total,
            released_total=self._released_total,
            expired_total=self._expired_total,
            now=self._now,
            horizon=self._horizon,
            capacity_total=self.capacity(self._horizon),
            capacity_remaining=upcoming - self._agg.committed,
        )
