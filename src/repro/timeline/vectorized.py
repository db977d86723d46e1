"""Whole-cycle vectorized engine over the compiled round.

The event interpreter asks the policy one question per (channel, slot)
pair of every cycle -- ~2 x gNumberOfStaticSlots heap-ordered queries
per cycle, each transmission settled with its own fault draw, trace
append and outcome callback.  :class:`VectorizedStepper` walks the
*compiled* round instead and batches.  Each segment of each cycle is
evaluated in two phases:

- **Phase A (decide):** every policy query of the segment runs in the
  interpreter's exact order -- slot ascending, channels in pair order
  within a slot (static), full per-channel arbitration (dynamic) -- and
  the planned transmissions are collected with their precomputed
  ``[start, end)`` windows.  Physical validation (slot fit, generation
  time) happens here, raising the interpreter's exact errors.  While
  the policy proves, via
  :meth:`~repro.protocol.policy.SchedulerPolicy.static_idle_is_noop`
  and :meth:`~repro.protocol.policy.SchedulerPolicy.dynamic_idle_is_noop`,
  that idle queries would be side-effect-free ``None``\\ s, only the
  owned steps are queried.
- **Phase B (settle):** fault verdicts are drawn for the whole plan at
  once (one vectorized Bernoulli batch per channel when the oracle
  supports it), the trace records are built and appended with a single
  :meth:`~repro.sim.trace.TraceRecorder.record_batch`, and the outcomes
  are replayed to the policy in interpreter order.

Splitting the phases is sound only when the policy promises, via
:meth:`~repro.protocol.policy.SchedulerPolicy.decisions_are_outcome_free`,
that no phase-A answer reads state phase B mutates.  Open-loop policies
(the paper's Theorem-1 regime) qualify; feedback ARQ does not and takes
the per-step fallback below.

Batch boundaries
----------------

A batch is one segment of one cycle.  The engine delegates instead of
batching whenever a phase-split precondition fails:

- the policy does not promise outcome-free decisions (feedback mode):
  the static segment runs on the per-step walk below, the dynamic
  segment on the interpreter's arbitration loop;
- the dynamic segment with ``gNumberOfMinislots == 0`` (interpreter
  no-op, delegated verbatim).

Host arrivals landing *inside* the static segment window do **not**
force a fallback: they *split* the segment into sub-batches instead.
Each sub-batch covers the slots between two delivery points; its
outcomes are settled (phase B) **before** the next arrival batch is
delivered, so the arrival path observes every prior outcome exactly as
it would under the interpreter -- CoEfficient's promise admission
(``try_promise``) reads the slack ledger that ``on_outcome`` consumes,
and that read now sees the same ledger state on every engine.  Within a
sub-batch no arrival interleaves, so deferring outcomes across it is
covered by the outcome-free promise alone.

The batch geometry itself -- which (channel, slot) pairs are owned, the
action-point offsets, the slot ordering -- comes from the
:class:`~repro.timeline.compiler.CompiledRound` static-step view, whose
agreement with the flat schedule arrays is independently checked by the
FRS113 verification rule (:mod:`repro.verify.round_checks`).

Feedback fallback: the per-step static walk
-------------------------------------------

Under a feedback policy the static segment executes exactly the owned
steps, each through the interpreter's own slot body
(:meth:`~repro.protocol.static_segment.StaticSegmentEngine.execute_slot`),
and skips the idle queries while the idle-noop proof holds.  The moment
the proof fails -- a retransmission is planned, a slack-stealable
backlog appears, an arrival lands mid-segment and changes the policy's
state -- the interpreter takes over *for the remainder of the segment*,
resuming at exactly the slot it would next have queried.  Exactness:

- The delivery callback's time argument is only a pop threshold; the
  policy never observes it.  Equivalence therefore requires exactly
  that the *set of arrivals delivered before each effective policy
  query* matches the interpreter, which delivers before slot ``s`` all
  arrivals released at or before ``s``'s action point.
- The walk delivers each arrival batch at the action point of the
  first slot the interpreter would have delivered it at, then re-checks
  the idle-noop proof; if delivery invalidated it, the interpreter
  resumes from that same slot -- the skipped earlier slots were queried
  by the interpreter *before* the delivery, under a proof that they
  answered ``None`` without side effects.
- Within an owned step the co-channel's idle query is skipped only
  while the proof still holds (outcome feedback, e.g. a planned
  retransmission, revokes it mid-step).

Fault-draw order
----------------

The interpreter consults the fault oracle in slot-major order,
interleaving channels.  The per-channel batches here are draw-order
compatible because every provided injector keeps an independent RNG
stream (and burst state) per channel, so splitting the interleaved
sequence into per-channel subsequences consumes each stream identically
(see :meth:`~repro.faults.injector.TransientFaultInjector.batch`).  An
oracle without a ``batch`` method is consulted scalar-wise in the
interpreter's exact interleaved order, which is correct for *any*
stateful oracle.

The differential-fuzz suite (``tests/sim/test_engine_fuzz.py``) holds
this engine byte-identical, via :func:`~repro.sim.trace.trace_digest`,
to the interpreter oracle across generated scenarios; the equivalence
scenarios in ``tests/sim/test_trace_equivalence.py`` pin the named
corner cases.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.cycle import CycleLayout
from repro.protocol.dynamic_segment import DynamicSegmentEngine, DynamicSlotResult
from repro.protocol.frame import PendingFrame, frame_duration_mt
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.static_segment import StaticSegmentEngine
from repro.obs import NULL_OBS, ObsLike
from repro.sim.trace import FrameRecord, TraceRecorder, TransmissionOutcome
from repro.timeline.compiler import CompiledRound, StaticStep

__all__ = ["VectorizedStepper"]

Deliver = Callable[[int], None]

#: One planned transmission: (channel, slot_id, start_mt, end_mt, pending).
_Planned = Tuple[Channel, int, int, int, PendingFrame]


class VectorizedStepper:
    """Advances cycles with phase-split, batched segment evaluation.

    Args:
        compiled: The policy's compiled round.
        params: Cluster parameters.
        layout: Cycle time geometry.
        channels: The cluster's live channel set.
        policy: The scheduling policy under test.
        static_engine: Interpreter static engine (slot body and
            feedback fallback).
        dynamic_engine: Interpreter dynamic engine (feedback fallback).
        next_release_mt: Peek at the earliest undelivered host release.
        corrupts: The cluster's fault oracle; batched per channel when it
            exposes a ``batch`` method, consulted scalar-wise in
            interpreter order otherwise.
        trace: The cluster's trace recorder (batch flush target).
        obs: Observability context for the batch/fallback counters.
    """

    def __init__(
        self,
        compiled: CompiledRound,
        params: SegmentGeometry,
        layout: CycleLayout,
        channels: ChannelSet,
        policy: SchedulerPolicy,
        static_engine: StaticSegmentEngine,
        dynamic_engine: DynamicSegmentEngine,
        next_release_mt: Callable[[], Optional[int]],
        corrupts: Callable[[Channel, int, int], bool],
        trace: TraceRecorder,
        obs: ObsLike = NULL_OBS,
    ) -> None:
        self._round = compiled
        self._params = params
        self._layout = layout
        self._channels = channels
        self._policy = policy
        self._static_engine = static_engine
        self._dynamic_engine = dynamic_engine
        self._next_release_mt = next_release_mt
        self._obs = obs
        self._slot_mt = params.gd_static_slot_mt
        self._action_offset = params.gd_action_point_offset_mt
        self._n_slots = params.g_number_of_static_slots
        self._corrupts = corrupts
        self._trace = trace
        self._batch_faults = getattr(corrupts, "batch", None)
        self._duration_memo: Dict[int, int] = {}
        self._pairs = list(channels.pairs())
        #: Segment batches settled through the phase-split path.
        self.vectorized_batches = 0
        #: Cycles with at least one segment on the feedback fallback.
        self.scalar_fallback_cycles = 0
        self._last_fallback_cycle = -1

    # ------------------------------------------------------------------
    # Static segment
    # ------------------------------------------------------------------

    def run_static_segment(self, cycle: int, deliver: Deliver) -> bool:
        """Execute the static segment of ``cycle`` as one batch.

        Returns:
            ``True`` if the segment settled through the phase-split
            batch or ran wholly on the per-step walk, ``False`` if any
            part fell back to the event interpreter.
        """
        policy = self._policy
        if not policy.decisions_are_outcome_free():
            self._note_fallback(cycle)
            return self._run_static_stepped(cycle, deliver)
        cycle_start = self._layout.cycle_start(cycle)
        first_action = cycle_start + self._action_offset
        last_action = first_action + (self._n_slots - 1) * self._slot_mt
        release = self._next_release_mt()
        if release is not None and release <= first_action:
            # The interpreter delivers these before slot 1's query, i.e.
            # before any decision of the segment -- safe to flush now.
            deliver(first_action)
            release = self._next_release_mt()
        self._channels.reset_counters()
        if (policy.static_idle_is_noop()
                and (release is None or release > last_action)):
            # No mid-segment arrival can add slack work, so the idle
            # proof holds for the whole segment and only owned steps
            # need queries.
            plan, final_clock = self._plan_static_owned(cycle, cycle_start)
            self._flush(cycle, plan, "static")
        else:
            final_clock = self._run_static_chunked(cycle, cycle_start,
                                                   deliver)
        policy.note_time(final_clock)
        for __, counter in self._pairs:
            counter.jump_to(self._n_slots + 1)
        self.vectorized_batches += 1
        if self._obs.enabled:
            self._obs.inc("engine.vectorized_batches")
        return True

    def _plan_static_owned(self, cycle: int,
                           cycle_start: int) -> Tuple[List[_Planned], int]:
        """Phase A over owned steps only (idle-noop proof in force).

        The idle proof cannot be revoked mid-segment here: only arrivals
        (excluded by the caller) and feedback failures (excluded by the
        outcome-free promise) ever add slack-stealable work, and queries
        only drain it.
        """
        policy = self._policy
        steps = self._round.static_steps(cycle)
        plan: List[_Planned] = []
        last_action = (cycle_start + (self._n_slots - 1) * self._slot_mt
                       + self._action_offset)
        final_clock = last_action
        for step in steps:
            action_point = cycle_start + step.action_offset_mt
            for channel, __ in step.entries:
                pending = policy.static_frame_for(
                    channel, cycle, step.slot_id, action_point)
                if pending is None:
                    final_clock = action_point
                    continue
                end = self._validate_static(pending, step.slot_id,
                                            action_point)
                plan.append((channel, step.slot_id, action_point, end,
                             pending))
                final_clock = end
        if (not steps or steps[-1].slot_id != self._n_slots
                or len(steps[-1].entries) < len(self._pairs)):
            # The interpreter's last static action would be slot N's
            # idle query, which stamps the policy clock.
            final_clock = last_action
        return plan, final_clock

    def _run_static_chunked(self, cycle: int, cycle_start: int,
                            deliver: Deliver) -> int:
        """Dense phase A over every (slot, channel) pair, in sub-batches.

        When retransmission or slack-stealing work exists, *every*
        static query is meaningful, so all of them run.  Host arrivals
        split the segment into sub-batches: each pending sub-batch is
        settled (phase B) before the arrivals are delivered at the
        action point of the first slot covering their release -- the
        interpreter's exact interleaving of outcomes and arrivals -- and
        a new sub-batch starts.  Returns the interpreter's end-of-segment
        policy clock.
        """
        policy = self._policy
        pairs = self._pairs
        plan: List[_Planned] = []
        final_clock = cycle_start + self._action_offset
        action_point = final_clock
        release = self._next_release_mt()
        for slot_id in range(1, self._n_slots + 1):
            if release is not None and release <= action_point:
                # Settle the sub-batch so the arrival path (promise
                # admission, redundancy copies) observes its outcomes.
                self._flush(cycle, plan, "static")
                plan = []
                deliver(action_point)
                release = self._next_release_mt()
            for channel, __ in pairs:
                pending = policy.static_frame_for(
                    channel, cycle, slot_id, action_point)
                if pending is None:
                    final_clock = action_point
                    continue
                end = self._validate_static(pending, slot_id, action_point)
                plan.append((channel, slot_id, action_point, end, pending))
                final_clock = end
            action_point += self._slot_mt
        self._flush(cycle, plan, "static")
        return final_clock

    def _validate_static(self, pending: PendingFrame, slot_id: int,
                         action_point: int) -> int:
        """The interpreter's physical checks, raising its exact errors."""
        duration = self._duration(pending.payload_bits)
        slot_end = action_point - self._action_offset + self._slot_mt
        if action_point + duration > slot_end:
            raise ValueError(
                f"policy bug: frame {pending.message_id} "
                f"({pending.total_bits} bits, {duration} MT) does not fit "
                f"static slot {slot_id} "
                f"({self._params.gd_static_slot_mt} MT)"
            )
        if pending.generation_time_mt > action_point:
            raise ValueError(
                f"policy bug: frame {pending.message_id}#{pending.instance} "
                f"transmitted at t={action_point} before its generation "
                f"at t={pending.generation_time_mt}"
            )
        return action_point + duration

    # ------------------------------------------------------------------
    # Feedback fallback: the per-step static walk
    # ------------------------------------------------------------------

    def _run_static_stepped(self, cycle: int, deliver: Deliver) -> bool:
        """Walk the owned static steps, one interpreter slot body each.

        Returns:
            ``True`` if the whole segment ran on the walk, ``False`` if
            any part fell back to the event interpreter.
        """
        policy = self._policy
        if not policy.static_idle_is_noop():
            self._fallback_static(cycle, deliver, first_slot=1)
            return False

        self._channels.reset_counters()
        cycle_start = self._layout.cycle_start(cycle)
        pos = 1  # first slot whose interpreter query has not yet happened
        for step in self._round.static_steps(cycle):
            action_point = cycle_start + step.action_offset_mt
            resumed = self._deliver_for_window(
                cycle, cycle_start, pos, action_point, deliver)
            if resumed is not None:
                self._fallback_static(cycle, deliver, first_slot=resumed)
                return False
            self._execute_step(cycle, step, action_point)
            pos = step.slot_id + 1
            if not policy.static_idle_is_noop():
                if pos <= self._n_slots:
                    self._fallback_static(cycle, deliver, first_slot=pos)
                    return False
                break
        else:
            # Trailing idle slots: the interpreter still delivers there.
            last_action = (cycle_start + (self._n_slots - 1) * self._slot_mt
                           + self._action_offset)
            resumed = self._deliver_for_window(
                cycle, cycle_start, pos, last_action, deliver)
            if resumed is not None:
                self._fallback_static(cycle, deliver, first_slot=resumed)
                return False
        if any(self._round.owner(channel, cycle, self._n_slots) is None
               for channel, __ in self._pairs):
            # The interpreter's last static action is the idle query of
            # slot N on the later channel, which stamps the policy clock
            # with that slot's action point; replicate the stamp.
            policy.note_time(cycle_start + (self._n_slots - 1) * self._slot_mt
                             + self._action_offset)
        for __, counter in self._pairs:
            counter.jump_to(self._n_slots + 1)
        return True

    def _deliver_for_window(self, cycle: int, cycle_start: int, pos: int,
                            until_action_mt: int,
                            deliver: Deliver) -> int | None:
        """Deliver arrivals due up to ``until_action_mt``, batch by batch.

        Each batch lands at the action point of the first slot the
        interpreter would have delivered it at; if a batch revokes the
        idle-noop proof, returns the slot the interpreter must resume
        from (``None`` while the fast path may continue).
        """
        policy = self._policy
        while True:
            release = self._next_release_mt()
            if release is None or release > until_action_mt:
                return None
            slot = max(pos, self._first_slot_at_or_after(release - cycle_start))
            slot = min(slot, self._n_slots)
            deliver(cycle_start + (slot - 1) * self._slot_mt
                    + self._action_offset)
            if not policy.static_idle_is_noop():
                return slot

    def _first_slot_at_or_after(self, phase_mt: int) -> int:
        """First slot whose action point is at or after an in-cycle phase."""
        if phase_mt <= self._action_offset:
            return 1
        return (phase_mt - self._action_offset
                + self._slot_mt - 1) // self._slot_mt + 1

    def _execute_step(self, cycle: int, step: StaticStep,
                      action_point: int) -> None:
        """Run one owned static step through the interpreter's slot body."""
        engine = self._static_engine
        policy = self._policy
        compiled = self._round
        for __, counter in self._pairs:
            counter.jump_to(step.slot_id)
        for channel, __ in self._pairs:
            if compiled.owner(channel, cycle, step.slot_id) is not None:
                engine.execute_slot(channel, cycle, step.slot_id, action_point)
            elif not policy.static_idle_is_noop():
                # Outcome feedback on the co-channel revoked the proof
                # (e.g. a retransmission was planned): this idle query is
                # now meaningful, so ask the interpreter's slot body.
                engine.execute_slot(channel, cycle, step.slot_id, action_point)

    def _fallback_static(self, cycle: int, deliver: Deliver,
                         first_slot: int) -> None:
        """Run slots ``first_slot..N`` through the event interpreter."""
        if self._obs.enabled:
            remaining = self._n_slots - first_slot + 1
            self._obs.inc("engine.heap_events",
                          remaining * len(self._channels))
        self._static_engine.execute_cycle(cycle, deliver,
                                          first_slot=first_slot)

    # ------------------------------------------------------------------
    # Dynamic segment
    # ------------------------------------------------------------------

    def run_dynamic_segment(self, cycle: int, deliver: Deliver) -> bool:
        """Execute the dynamic segment of ``cycle`` as one batch.

        Returns:
            ``True`` unless the segment was delegated to the interpreter
            arbitration loop (feedback mode).
        """
        params = self._params
        dynamic = self._dynamic_engine
        policy = self._policy
        if params.g_number_of_minislots == 0:
            dynamic.execute_cycle(cycle, deliver)
            return True
        segment_start, __ = self._layout.dynamic_segment_window(cycle)
        deliver(segment_start)
        if policy.dynamic_idle_is_noop():
            dynamic.last_cycle_results = []
            queried = min(params.g_number_of_minislots,
                          params.effective_latest_tx)
            policy.note_time(
                self._layout.minislot_start(cycle, queried - 1))
            return True
        if not policy.decisions_are_outcome_free():
            self._note_fallback(cycle)
            dynamic.execute_cycle(cycle, deliver)
            if self._obs.enabled:
                self._obs.inc("engine.heap_events",
                              len(dynamic.last_cycle_results))
            return False
        plan, results, final_clock = self._plan_dynamic(cycle, segment_start)
        dynamic.last_cycle_results = results
        self._flush(cycle, plan, "dynamic")
        if final_clock is not None:
            policy.note_time(final_clock)
        self.vectorized_batches += 1
        if self._obs.enabled:
            self._obs.inc("engine.vectorized_batches")
        return True

    def _plan_dynamic(
        self, cycle: int, segment_start: int,
    ) -> Tuple[List[_Planned], List[DynamicSlotResult], Optional[int]]:
        """Phase A of the minislot-counting arbitration, per channel.

        Mirrors ``DynamicSegmentEngine._arbitrate_channel`` step for
        step -- query gating on pLatestTx, the one-minislot idle charge,
        the hold path -- but collects transmissions instead of settling
        them.  Channel A's queries still precede channel B's (they share
        the policy's pools); only the *outcomes* are deferred, which the
        outcome-free promise makes invisible.
        """
        params = self._params
        policy = self._policy
        latest_tx = params.effective_latest_tx
        first_slot = params.first_dynamic_slot_id
        last_slot = params.last_dynamic_slot_id
        total = params.g_number_of_minislots
        minislot_mt = params.gd_minislot_mt
        action_offset = params.gd_minislot_action_point_offset_mt
        plan: List[_Planned] = []
        results: List[DynamicSlotResult] = []
        final_clock: Optional[int] = None
        for channel, slot_counter in self._pairs:
            slot_counter.jump_to(first_slot)
            elapsed = 0
            slot_id = first_slot
            while elapsed < total and slot_id <= last_slot:
                start_mt = segment_start + elapsed * minislot_mt
                pending: Optional[PendingFrame] = None
                if elapsed < latest_tx:
                    pending = policy.dynamic_frame_for(
                        channel, slot_id, start_mt, total - elapsed)
                    final_clock = start_mt
                if pending is None:
                    elapsed += 1
                    results.append(DynamicSlotResult(
                        channel=channel, slot_id=slot_id, transmitted=False,
                        minislots_consumed=1,
                    ))
                    slot_id += 1
                    continue
                needed = params.minislots_for_bits(pending.payload_bits)
                if needed > total - elapsed:
                    policy.on_dynamic_hold(pending, channel)
                    elapsed += 1
                    results.append(DynamicSlotResult(
                        channel=channel, slot_id=slot_id, transmitted=False,
                        minislots_consumed=1,
                    ))
                    slot_id += 1
                    continue
                action_start = start_mt + action_offset
                end = action_start + self._duration(pending.payload_bits)
                plan.append((channel, slot_id, action_start, end, pending))
                final_clock = end
                elapsed += min(needed, total - elapsed)
                results.append(DynamicSlotResult(
                    channel=channel, slot_id=slot_id, transmitted=True,
                    minislots_consumed=needed, message_id=pending.message_id,
                ))
                slot_id += 1
        return plan, results, final_clock

    # ------------------------------------------------------------------
    # Phase B
    # ------------------------------------------------------------------

    def _flush(self, cycle: int, plan: List[_Planned],
               segment: str) -> None:
        """Settle a segment plan: fault draws, trace batch, outcomes."""
        if not plan:
            return
        verdicts = self._fault_verdicts(plan)
        records = []
        outcomes = []
        for (channel, slot_id, start, end, pending), corrupted \
                in zip(plan, verdicts):
            outcome = (TransmissionOutcome.CORRUPTED if corrupted
                       else TransmissionOutcome.DELIVERED)
            outcomes.append(outcome)
            records.append(FrameRecord(
                message_id=pending.message_id,
                instance=pending.instance,
                channel=channel.value,
                slot_id=slot_id,
                cycle=cycle,
                start=start,
                end=end,
                bits=pending.total_bits,
                payload_bits=pending.payload_bits,
                segment=segment,
                outcome=outcome,
                is_retransmission=pending.is_retransmission,
                generation_time=pending.generation_time_mt,
                deadline=pending.deadline_mt,
                chunk=pending.frame.chunk,
            ))
        self._trace.record_batch(records)
        policy = self._policy
        for (channel, __, ___, end, pending), outcome in zip(plan, outcomes):
            policy.on_outcome(pending, channel, segment, outcome, end)

    def _fault_verdicts(self, plan: List[_Planned]) -> List[bool]:
        """Corruption verdicts for a plan, draw-order exact.

        With a batching injector, the plan is split into per-channel
        subsequences (each channel owns an independent RNG stream, so
        the split consumes every stream exactly as the interpreter's
        interleaved consults would).  Without one, the oracle is called
        scalar-wise in the interpreter's exact order, which is correct
        for arbitrary stateful oracles.
        """
        batch = self._batch_faults
        if batch is None:
            corrupts = self._corrupts
            return [corrupts(channel, pending.total_bits, start)
                    for channel, __, start, ___, pending in plan]
        by_channel: Dict[str, Tuple[Channel, List[int]]] = {}
        for channel, __, ___, ____, pending in plan:
            bucket = by_channel.get(channel.value)
            if bucket is None:
                bucket = by_channel[channel.value] = (channel, [])
            bucket[1].append(pending.total_bits)
        cursors = {
            name: iter(batch(channel, bits_list))
            for name, (channel, bits_list) in by_channel.items()
        }
        return [next(cursors[entry[0].value]) for entry in plan]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _duration(self, payload_bits: int) -> int:
        duration = self._duration_memo.get(payload_bits)
        if duration is None:
            duration = frame_duration_mt(payload_bits, self._params)
            self._duration_memo[payload_bits] = duration
        return duration

    def _note_fallback(self, cycle: int) -> None:
        if cycle != self._last_fallback_cycle:
            self._last_fallback_cycle = cycle
            self.scalar_fallback_cycles += 1
            if self._obs.enabled:
                self._obs.inc("engine.scalar_fallback_cycles")
