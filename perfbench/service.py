"""The two admission workloads: an in-process service under a closed loop.

One ``AdmissionService`` on the ``repro serve --workload bbw`` set-up
(``load_service_setup``, verify gate included) answers two
``ServiceClient`` connections, each with one request in flight.  The
request stream is a seeded ``LoadgenSpec``; connection ``k`` sends the
stream entries ``i`` with ``i % 2 == k`` in order, and follows an
accepted entry marked ``release_after`` with its release.

A run replays the same stream in passes, each on a fresh service, so
every pass offers identical work.  The number of passes follows from
``--seconds`` alone (``passes_for``), never from how fast the host is,
so a run's failed and attempted counts depend only on its seed and
``--seconds``.  Within a pass the stream is cut
into windows of ``window`` admits; the two connections meet at each
window's end, where the calibration loop runs.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from timing import Clock

CONNECTIONS = 2


@dataclass(frozen=True)
class AdmitWorkload:
    #: ``LoadgenSpec`` fields; everything else is the loadgen default.
    stream: Dict[str, object]
    #: Admit requests per pass (one service lifetime).
    pass_requests: int
    #: Admit requests per timed window.
    window: int
    #: About how long one pass takes on the 2-vCPU Xeon the benchmark
    #: was tuned on; a run of ``seconds`` makes ``passes_for(seconds)``.
    pass_seconds: float

    def passes_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.pass_seconds))


WORKLOADS = {
    # ~80 live tasks per channel and ~10% demand-criterion rejects:
    # SlackLedger.admit, whose cost grows with the live set, dominates.
    "admit-backlog": AdmitWorkload(
        stream=dict(mean_interarrival_ticks=4.0, deadline_ticks=1000,
                    execution_min=1, execution_max=12,
                    release_fraction=0.3),
        pass_requests=8000, window=100, pass_seconds=7.0),
    # A handful of live tasks, everything admitted: parse, dispatch,
    # batching, serialization and socket I/O dominate.
    "admit-short": AdmitWorkload(
        stream=dict(deadline_ticks=100),
        pass_requests=4000, window=400, pass_seconds=0.7),
}


def load_setup():
    """Set-up shared by every pass: ``repro serve --workload bbw``."""
    from repro.service.config import load_service_setup

    return load_service_setup("bbw")


def make_stream(workload: AdmitWorkload, seed: int):
    from repro.service.loadgen import LoadgenSpec, generate_requests

    return generate_requests(LoadgenSpec(
        requests=workload.pass_requests, seed=seed, **workload.stream))


def oracle_verdicts(setup, stream) -> List[bool]:
    """Arrival-order oracle: fresh ledgers fed the stream in order.

    Each entry advances its channel's clock to its arrival and is
    admission-tested; an admitted entry marked ``release_after`` is
    released before the next entry, as its own connection does.
    """
    from repro.service.ledger import SlackLedger

    ledgers = {channel: SlackLedger(tasks, channel=channel)
               for channel, tasks in sorted(setup.channel_tasks.items())}
    verdicts = []
    for item in stream:
        ledger = ledgers[item.channel]
        ledger.advance(item.arrival)
        outcome = ledger.admit(item.name, item.arrival, item.execution,
                               item.deadline)
        verdicts.append(outcome.admitted)
        if outcome.admitted and item.release_after:
            ledger.release(item.name)
    return verdicts


@dataclass
class WindowResult:
    """Replies and client-side latencies of one window of admits."""

    names: List[str] = field(default_factory=list)
    statuses: Dict[int, str] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    #: Clock reading halfway through each request, for its calibration.
    midpoints: List[float] = field(default_factory=list)
    releases_sent: int = 0
    releases_failed: int = 0


class ServicePass:
    """One service lifetime: start, connect, windows, stats, drain."""

    def __init__(self, setup) -> None:
        self.setup = setup
        self.service = None
        self.clients: List = []

    async def start(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import AdmissionService

        self.service = AdmissionService(self.setup)
        host, port = await self.service.start()
        self.clients = [await ServiceClient.connect(host, port)
                        for __ in range(CONNECTIONS)]

    async def window(self, stream: Sequence, indices: Sequence[int],
                     clock: Clock) -> WindowResult:
        """Send ``stream[i]`` for ``i`` in ``indices`` over the lanes."""
        result = WindowResult()

        async def lane(client, mine: List[int]) -> None:
            for index in mine:
                item = stream[index]
                begin = clock.now()
                try:
                    reply = await client.admit(
                        item.channel, item.arrival, item.execution,
                        item.deadline, name=item.name)
                except (ConnectionError, OSError):
                    result.statuses[index] = "dropped"
                    continue
                end = clock.now()
                result.latencies.append(end - begin)
                result.midpoints.append((begin + end) / 2)
                result.names.append(item.name)
                status = str(reply.get("status", "error"))
                result.statuses[index] = status
                if status == "accepted" and item.release_after:
                    result.releases_sent += 1
                    try:
                        released = await client.release(item.channel,
                                                        item.name)
                    except (ConnectionError, OSError):
                        result.releases_failed += 1
                        continue
                    if released.get("status") != "released":
                        result.releases_failed += 1

        await asyncio.gather(*(
            lane(client, [i for i in indices if i % CONNECTIONS == k])
            for k, client in enumerate(self.clients)))
        return result

    async def stats(self) -> Dict[str, object]:
        return await self.clients[0].stats()

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        if self.service is not None:
            await self.service.stop()


def verdict_failures(statuses: Dict[int, str],
                     oracle: Sequence[bool]) -> int:
    """Requests dropped, answered error/overload, or off the oracle."""
    failed = 0
    for index, status in statuses.items():
        if status not in ("accepted", "rejected"):
            failed += 1
        elif (status == "accepted") != oracle[index]:
            failed += 1
    return failed


def live_mean(stats: Dict[str, object]) -> Optional[float]:
    channels = stats.get("channels") or {}
    lives = [entry["live"] for entry in channels.values()]
    return sum(lives) / len(lives) if lives else None
