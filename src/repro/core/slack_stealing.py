"""Fixed-priority slack stealing (Section III-B).

The paper's dynamic-segment scheduling rests on the classical slack
stealer (Davis/Thuel-Lehoczky [26], [27]): serve aperiodic work at the
*highest* priority whenever doing so cannot make any hard periodic job
miss, where the safe amount at time t is

    S_{i,t} = A_i(r_i(t)+1) - C_i(t) - I_i(t)
    S*(t)   = min_{k <= i <= n} S_{i,t}

with, per the paper's notation:

- ``A_i(k)`` -- total aperiodic processing available at level i or higher
  in ``[0, d_i^k]`` (the k-th job of tau_i's deadline), precomputed from
  the aperiodic-free schedule;
- ``C_i(t)`` -- cumulative aperiodic processing consumed in ``[0, t]``;
- ``I_i(t)`` -- level-i inactivity (idle at level i) in ``[0, t]``;
- ``r_i(t)`` -- jobs of tau_i completed by t.

:class:`SlackStealer` is an exact unit-time implementation of this
scheduler: it pre-computes the ``A_i`` tables over the task set's
analysis horizon, then runs the online loop maintaining the counters.
It is the processor-model reference the FlexRay-level scheduler's
table-driven slack logic is validated against, and the unit the
slack-identity property tests target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tasks import AperiodicTask, PeriodicTask, TaskSet
from repro.obs import NULL_OBS, ObsLike

__all__ = ["CapacityProfile", "SlackStealer", "ScheduleOutcome",
           "CompletedJob"]


@dataclass(frozen=True)
class CapacityProfile:
    """F(t) = min_i A_i(t): guaranteed aperiodic capacity in ``[0, t]``.

    The compiled, immutable form of the slack stealer's capacity
    function: a prefix table over the analysis horizon plus an optional
    steady-state pattern for exact extrapolation past it (the
    aperiodic-free schedule is cyclic with the hyperperiod, so F grows
    by a fixed gain per pattern).  This is the one capacity object the
    online admission layers (:class:`~repro.service.ledger.SlackLedger`)
    read, mirroring how the FlexRay layers read one
    :class:`~repro.timeline.compiler.CompiledRound`.

    Attributes:
        table: ``table[t]`` = F(t) for ``0 <= t <= horizon``.
        pattern_start: First tick of the steady-state pattern (equals
            ``horizon`` when not extrapolating).
        pattern_length: Hyperperiod of the pattern; 0 disables
            extrapolation (capacity saturates at ``table[horizon]``).
        pattern_gain: Capacity gained per full pattern.
    """

    table: Tuple[int, ...]
    pattern_start: int
    pattern_length: int
    pattern_gain: int

    @classmethod
    def unconstrained(cls, horizon: int) -> "CapacityProfile":
        """Profile of an empty periodic set: every tick is capacity."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return cls(table=tuple(range(horizon + 1)), pattern_start=0,
                   pattern_length=1, pattern_gain=1)

    @property
    def horizon(self) -> int:
        """Last tick the table covers."""
        return len(self.table) - 1

    @property
    def extrapolates(self) -> bool:
        """Whether capacity extends past the table (steady-state slope)."""
        return self.pattern_length > 0

    def capacity(self, t: int) -> int:
        """F(t); past the horizon the last full pattern is tiled."""
        table = self.table
        if t < len(table):
            return table[t] if t > 0 else table[0]
        if not self.pattern_length:
            return table[-1]
        patterns, offset = divmod(t - self.pattern_start,
                                  self.pattern_length)
        return (table[self.pattern_start + offset]
                + patterns * self.pattern_gain)


@dataclass(frozen=True)
class CompletedJob:
    """One finished job in a schedule trace."""

    task: str
    job: int
    release: int
    completion: int
    deadline: int

    @property
    def met_deadline(self) -> bool:
        """Whether the job finished by its absolute deadline."""
        return self.completion <= self.deadline

    @property
    def response_time(self) -> int:
        """Completion minus release."""
        return self.completion - self.release


@dataclass
class ScheduleOutcome:
    """Result of a :meth:`SlackStealer.run` call.

    Attributes:
        periodic_jobs: All periodic jobs completed within the run.
        aperiodic_completions: ``name -> completion time`` for aperiodic
            tasks finished within the run.
        deadline_misses: Periodic jobs that finished late (must stay
            empty -- a non-empty list is a scheduler bug, and tests
            assert on it).
        idle_time: Processor idle units during the run.
        aperiodic_service: Units spent serving aperiodic work.
    """

    periodic_jobs: List[CompletedJob] = field(default_factory=list)
    aperiodic_completions: Dict[str, int] = field(default_factory=dict)
    deadline_misses: List[CompletedJob] = field(default_factory=list)
    idle_time: int = 0
    aperiodic_service: int = 0

    def response_time(self, aperiodic: AperiodicTask) -> Optional[int]:
        """Response time of an aperiodic task, or ``None`` if unfinished."""
        completion = self.aperiodic_completions.get(aperiodic.name)
        if completion is None:
            return None
        return completion - aperiodic.arrival


@dataclass
class _JobState:
    """Mutable state of one periodic task's current job."""

    released_jobs: int = 0
    completed_jobs: int = 0
    remaining: int = 0  # of the oldest incomplete job
    pending: List[Tuple[int, int]] = field(default_factory=list)
    # pending: (job index, remaining) of released-but-incomplete jobs,
    # oldest first.  FIFO within a task (jobs of one task never overtake).


class SlackStealer:
    """Exact unit-time slack-stealing scheduler.

    Args:
        tasks: Hard periodic tasks in priority order (index 0 highest).
        horizon: Analysis horizon for the A_i tables; defaults to
            ``max_offset + 2 * hyperperiod`` which covers the steady
            state for synchronous and asynchronous sets alike.

    Raises:
        ValueError: If the periodic set alone is unschedulable (the
            slack stealer's guarantees are conditional on that).
    """

    def __init__(self, tasks: TaskSet, horizon: Optional[int] = None,
                 obs: ObsLike = NULL_OBS) -> None:
        self._tasks = tasks
        self._obs = obs
        self._n = len(tasks)
        self._horizon = horizon or max(1, tasks.analysis_horizon())
        self._level_idle_prefix = self._compute_level_idle_prefix()
        self._deadline_of_job = [
            [task.absolute_deadline(job)
             for job in range(self._jobs_in_horizon(task))]
            for task in tasks
        ]
        self._assert_periodics_schedulable()

    @property
    def horizon(self) -> int:
        """Analysis horizon the A_i tables cover (in time units)."""
        return self._horizon

    # ------------------------------------------------------------------
    # Offline precomputation
    # ------------------------------------------------------------------

    def _jobs_in_horizon(self, task: PeriodicTask) -> int:
        return task.jobs_released_by(self._horizon) + 1

    def _compute_level_idle_prefix(self) -> List[List[int]]:
        """Aperiodic-free schedule: prefix level-i idle per time unit.

        ``prefix[i][t]`` = level-i inactivity accumulated in ``[0, t)``
        when only the periodic tasks run.  Computed with one unit-time
        sweep shared by all levels.
        """
        horizon = self._horizon
        states = [_JobState() for __ in range(self._n)]
        prefix = [[0] * (horizon + 1) for __ in range(self._n)]
        for t in range(horizon):
            self._release_jobs(states, t)
            running_level = self._highest_pending_level(states)
            if running_level is not None:
                self._execute_unit(states, running_level, t + 1)
            for i in range(self._n):
                busy_at_level = (running_level is not None
                                 and running_level <= i)
                prefix[i][t + 1] = prefix[i][t] + (0 if busy_at_level else 1)
        return prefix

    def _release_jobs(self, states: List[_JobState], t: int) -> None:
        for index, task in enumerate(self._tasks):
            state = states[index]
            while True:
                release = task.release_time(state.released_jobs)
                if release > t:
                    break
                state.pending.append((state.released_jobs, task.execution))
                state.released_jobs += 1

    @staticmethod
    def _highest_pending_level(states: List[_JobState]) -> Optional[int]:
        for level, state in enumerate(states):
            if state.pending:
                return level
        return None

    def _execute_unit(self, states: List[_JobState], level: int,
                      now: int,
                      completions: Optional[List[CompletedJob]] = None) -> None:
        state = states[level]
        job, remaining = state.pending[0]
        remaining -= 1
        if remaining == 0:
            state.pending.pop(0)
            state.completed_jobs += 1
            if completions is not None:
                task = self._tasks[level]
                completions.append(CompletedJob(
                    task=task.name, job=job,
                    release=task.release_time(job),
                    completion=now,
                    deadline=task.absolute_deadline(job),
                ))
        else:
            state.pending[0] = (job, remaining)

    def _assert_periodics_schedulable(self) -> None:
        """The A_i tables are only meaningful for a schedulable set."""
        outcome = self.run([], until=self._horizon)
        if outcome.deadline_misses:
            miss = outcome.deadline_misses[0]
            raise ValueError(
                f"periodic set unschedulable: {miss.task} job {miss.job} "
                f"completes at {miss.completion} past deadline {miss.deadline}"
            )

    # ------------------------------------------------------------------
    # Slack queries
    # ------------------------------------------------------------------

    def available_aperiodic_processing(self, level: int, upto: int) -> int:
        """A_i analogue: level-``level`` idle in ``[0, upto]`` (offline)."""
        if not 0 <= level < self._n:
            raise ValueError(f"level {level} out of range")
        upto = min(upto, self._horizon)
        return self._level_idle_prefix[level][max(0, upto)]

    def capacity_profile(self) -> CapacityProfile:
        """Compile F(t) = min_i A_i(t) into a :class:`CapacityProfile`.

        Extrapolation is enabled when the table's tail contains one full
        hyperperiod of pure steady state (always true for the default
        horizon ``max_offset + 2H``); otherwise the profile saturates.
        """
        if self._n == 0:
            return CapacityProfile.unconstrained(self._horizon)
        table = tuple(
            min(self._level_idle_prefix[level][t]
                for level in range(self._n))
            for t in range(self._horizon + 1)
        )
        hyper = self._tasks.hyperperiod()
        start = self._horizon - hyper
        if hyper > 0 and start >= self._tasks.max_offset():
            return CapacityProfile(
                table=table, pattern_start=start, pattern_length=hyper,
                pattern_gain=table[self._horizon] - table[start],
            )
        return CapacityProfile(table=table, pattern_start=self._horizon,
                               pattern_length=0, pattern_gain=0)

    def _slack_at(self, states: List[_JobState], consumed: int,
                  inactivity: List[int]) -> int:
        """S*(t) = min_i (A_i(r_i+1) - C(t) - I_i(t)) with current state."""
        if self._obs.enabled:
            self._obs.inc("slackstealer.slack_queries")
        slack = None
        for i in range(self._n):
            state = states[i]
            next_job = state.completed_jobs  # r_i(t) + 1, 0-based
            deadlines = self._deadline_of_job[i]
            if next_job >= len(deadlines):
                continue  # no more jobs of tau_i inside the horizon
            a_i = self.available_aperiodic_processing(
                i, deadlines[next_job]
            )
            s_i = a_i - consumed - inactivity[i]
            slack = s_i if slack is None else min(slack, s_i)
        return slack if slack is not None else 0

    # ------------------------------------------------------------------
    # Online scheduling
    # ------------------------------------------------------------------

    def run(self, aperiodics: Sequence[AperiodicTask],
            until: int) -> ScheduleOutcome:
        """Run the slack-stealing schedule over ``[0, until)``.

        Aperiodics are served FIFO at the highest priority whenever
        slack is available (the paper's Section III-B policy); hard
        periodic jobs otherwise run fixed-priority preemptive.

        Args:
            aperiodics: Aperiodic arrivals (any order; sorted internally).
            until: End of the simulated window (capped at the analysis
                horizon -- the slack tables do not extend past it).

        Returns:
            A :class:`ScheduleOutcome`; ``deadline_misses`` is empty for
            any workload because slack service is bounded by S*(t).
        """
        if until <= 0:
            raise ValueError(f"until must be positive, got {until}")
        until = min(until, self._horizon)
        queue = sorted(aperiodics, key=lambda a: (a.arrival, a.name))
        arrival_index = 0
        active: List[Tuple[AperiodicTask, int]] = []  # (task, remaining) FIFO

        states = [_JobState() for __ in range(self._n)]
        inactivity = [0] * self._n
        consumed = 0
        outcome = ScheduleOutcome()

        for t in range(until):
            self._release_jobs(states, t)
            while (arrival_index < len(queue)
                   and queue[arrival_index].arrival <= t):
                task = queue[arrival_index]
                active.append((task, task.execution))
                arrival_index += 1

            periodic_level = self._highest_pending_level(states)
            serve_aperiodic = False
            stolen = False
            if active:
                if periodic_level is None:
                    serve_aperiodic = True  # free idle time
                elif self._slack_at(states, consumed, inactivity) > 0:
                    serve_aperiodic = stolen = True
            if stolen and self._obs.enabled:
                self._obs.inc("slackstealer.units_stolen")

            if serve_aperiodic:
                task, remaining = active[0]
                remaining -= 1
                consumed += 1
                outcome.aperiodic_service += 1
                if remaining == 0:
                    active.pop(0)
                    outcome.aperiodic_completions[task.name] = t + 1
                else:
                    active[0] = (task, remaining)
                # Aperiodic service is level-0 activity: no level idles.
            elif periodic_level is not None:
                self._execute_unit(states, periodic_level, t + 1,
                                   outcome.periodic_jobs)
                for i in range(periodic_level):
                    inactivity[i] += 1
            else:
                outcome.idle_time += 1
                for i in range(self._n):
                    inactivity[i] += 1

        outcome.deadline_misses = [
            job for job in outcome.periodic_jobs if not job.met_deadline
        ]
        return outcome
