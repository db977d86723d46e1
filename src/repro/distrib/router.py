"""The sharded admission front: one router, N shard processes.

Topology::

    clients --JSON lines--> router --admit_batch/forward--> shard 0..N-1

The router owns no ledger.  It rendezvous-hashes every request's
channel (:mod:`repro.distrib.hashing`), coalesces the admits that
arrived in the same event-loop tick into ONE ``admit_batch`` line per
target shard (so a shard pays one parse/future/encode per *batch*, not
per request), splits client-sent ``admit_batch`` requests entry-wise
across owning shards and reassembles the positional replies, forwards
everything else individually, and answers ``ping`` locally.  ``stats``
fans out to every live shard and the pinned ``STATUS_FIELDS`` payload
is re-aggregated key-for-key (:func:`aggregate_stats`), so a sharded
service is drop-in observable.

Lifecycle: shards are spawned before the router accepts connections; a
health loop pings each shard and restarts dead ones with bounded
retries and exponential backoff.  While a shard is down (or its
in-flight window is full) its requests get immediate
``status: overload`` replies -- per-shard backpressure, nothing blocks,
nothing is silently dropped.  SIGTERM drains: stop accepting, wait for
every in-flight dispatch chunk to be answered (the shard connections
stay open until then), SIGTERM every shard, exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distrib.hashing import shard_channels, shard_for
from repro.distrib.shard import ShardProcess, ShardSpec
from repro.obs import NULL_OBS, ObsLike
from repro.service.client import ServiceClient
from repro.service.config import ServiceSetup, load_service_setup
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    MAX_LINE_BYTES,
    ProtocolError,
    encode_response,
    parse_request,
)
from repro.service.server import (
    CHANNEL_STATUS_FIELDS,
    STATUS_FIELDS,
    close_connections,
)

__all__ = ["ShardRouter", "aggregate_stats", "serve_sharded"]

#: Upper bound on entries the router packs into one admit_batch line
#: (stays well under MAX_LINE_BYTES for worst-case field widths).
ROUTER_BATCH_LIMIT = 128

#: Max request lines one connection contributes to a single dispatch
#: chunk before the router flushes responses.
CHUNK_LIMIT = 256


def aggregate_stats(setup: ServiceSetup,
                    shard_payloads: Sequence[Dict[str, object]],
                    router_counters: Dict[str, int],
                    queue_limit_fallback: int = 0,
                    draining: bool = False) -> Dict[str, object]:
    """Merge per-shard ``stats`` payloads into one service payload.

    The result carries exactly :data:`~repro.service.server.STATUS_FIELDS`
    -- the same pinned contract the single-process service answers --
    so clients cannot tell (from shape) that they hit a router:

    - ``channels``: union of the shards' channel entries (disjoint by
      construction -- each channel has one owner shard).
    - ``counters``: key-wise sum across shards, plus the router's own
      ``router.*`` counters.
    - ``batches`` / ``queue_depth`` / ``queue_limit``: sums.
    - ``mean_batch_size``: batch-weighted mean across shards.
    - ``draining``: true if the router or any shard is draining.
    """
    channels: Dict[str, Dict[str, object]] = {}
    counters: Dict[str, int] = {}
    batches = 0
    weighted_batch_requests = 0.0
    queue_depth = 0
    queue_limit = 0
    any_draining = draining
    for payload in shard_payloads:
        for channel, entry in sorted(payload.get("channels", {}).items()):  # type: ignore[union-attr]
            channels[channel] = {field: entry[field]
                                 for field in CHANNEL_STATUS_FIELDS}
        for key, value in payload.get("counters", {}).items():  # type: ignore[union-attr]
            counters[key] = counters.get(key, 0) + int(value)
        shard_batches = int(payload.get("batches", 0))  # type: ignore[arg-type]
        batches += shard_batches
        weighted_batch_requests += (
            float(payload.get("mean_batch_size", 0.0)) * shard_batches)  # type: ignore[arg-type]
        queue_depth += int(payload.get("queue_depth", 0))  # type: ignore[arg-type]
        queue_limit += int(payload.get("queue_limit", 0))  # type: ignore[arg-type]
        any_draining = any_draining or bool(payload.get("draining"))
    for key, value in router_counters.items():
        counters[key] = counters.get(key, 0) + value
    values = {
        "status": "ok",
        "workload": setup.workload,
        "tick_us": setup.tick_us,
        "engine_mode": setup.engine_mode,
        "channels": {channel: channels[channel]
                     for channel in sorted(channels)},
        "counters": dict(sorted(counters.items())),
        "batches": batches,
        "mean_batch_size": (round(weighted_batch_requests / batches, 3)
                            if batches else 0.0),
        "queue_depth": queue_depth,
        "queue_limit": queue_limit or queue_limit_fallback,
        "draining": any_draining,
    }
    return {field: values[field] for field in STATUS_FIELDS}


class _ShardLink:
    """The router's live view of one shard: process + connection."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.process = ShardProcess(spec)
        self.client: Optional[ServiceClient] = None
        self.inflight = 0
        self.restarts_left = 0  # set by the router
        self.lock = asyncio.Lock()

    @property
    def index(self) -> int:
        return self.spec.index

    @property
    def available(self) -> bool:
        return self.client is not None


class ShardRouter:
    """Front process of a sharded admission deployment.

    Args:
        setup: The verified configuration (loaded once, in the router,
            from ``setup_kwargs``; shards rebuild it themselves).
        setup_kwargs: Picklable kwargs for
            :func:`~repro.service.config.load_service_setup`, shipped
            to every shard.
        shards: Shard process count (>= 1).
        obs: Observability context for router counters.
        inflight_limit: Per-shard in-flight request window; beyond it
            the router answers ``overload`` immediately (backpressure).
        max_restarts: Restart budget per shard; exhausted -> the shard
            stays down and its requests get ``overload`` replies.
        restart_backoff_s: First restart delay; doubles per retry.
        health_interval_s: Seconds between health-check sweeps.
        request_timeout_s: Router-side budget for one shard round trip.
        queue_limit/batch_limit/reconcile_every: Forwarded to each
            shard's ``AdmissionService``.
    """

    def __init__(self, setup: ServiceSetup,
                 setup_kwargs: Dict[str, object],
                 shards: int,
                 obs: ObsLike = NULL_OBS,
                 inflight_limit: int = 1024,
                 max_restarts: int = 3,
                 restart_backoff_s: float = 0.25,
                 health_interval_s: float = 1.0,
                 request_timeout_s: float = 5.0,
                 queue_limit: int = 1024,
                 batch_limit: int = 256,
                 reconcile_every: int = 64) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if inflight_limit < 1:
            raise ValueError("inflight_limit must be >= 1")
        self.setup = setup
        self._obs = obs
        self._inflight_limit = inflight_limit
        self._max_restarts = max_restarts
        self._restart_backoff_s = restart_backoff_s
        self._health_interval_s = health_interval_s
        self._timeout = request_timeout_s
        self.shard_count = shards
        owned = shard_channels(setup.channels, shards)
        self.links: List[_ShardLink] = []
        for index in range(shards):
            spec = ShardSpec(
                index=index, channels=tuple(owned[index]),
                setup_kwargs=dict(setup_kwargs),
                queue_limit=queue_limit, batch_limit=batch_limit,
                request_timeout_s=request_timeout_s,
                reconcile_every=reconcile_every)
            link = _ShardLink(spec)
            link.restarts_left = max_restarts
            self.links.append(link)
        self._queue_limit = queue_limit
        self.counters: Dict[str, int] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._health_task: Optional[asyncio.Task] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._active_chunks = 0
        self._chunks_done = asyncio.Event()
        self._chunks_done.set()
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- counters ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        if self._obs.enabled:
            self._obs.inc(name, amount)

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Spawn every shard, connect, bind the front socket."""
        if self._server is not None:
            raise RuntimeError("router already started")
        loop = asyncio.get_running_loop()
        for link in self.links:
            await loop.run_in_executor(None, link.process.spawn)
        for link in self.links:
            assert link.process.port is not None
            link.client = await ServiceClient.connect(
                "127.0.0.1", link.process.port)
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            limit=MAX_LINE_BYTES + 2)
        self._health_task = asyncio.create_task(self._health_loop())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (POSIX event loops)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop()))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def stop(self) -> None:
        """Graceful drain: refuse new work, stop shards, close."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        # In-flight chunks must be answered before the client
        # connections close and the shard links go away.  New requests
        # already get "draining" replies, so this converges.  Closing
        # the connections then lets every handler return on its own,
        # which server.wait_closed() waits for on Python >= 3.12.
        try:
            await asyncio.wait_for(self._chunks_done.wait(), self._timeout)
        except asyncio.TimeoutError:  # pragma: no cover - stuck shard
            pass
        await close_connections(self._connections, self._timeout)
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        for link in self.links:
            if link.client is not None:
                await link.client.close()
                link.client = None
            await loop.run_in_executor(None, link.process.terminate)
        self._drained.set()

    async def wait_closed(self) -> None:
        """Block until a drain completes."""
        await self._drained.wait()

    # -- health / restart ----------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval_s)
            for link in self.links:
                if self._draining:
                    return
                if await self._healthy(link):
                    continue
                await self._restart(link)

    async def _healthy(self, link: _ShardLink) -> bool:
        if not link.process.is_alive() or link.client is None:
            return False
        try:
            reply = await asyncio.wait_for(
                link.client.ping(), self._health_interval_s)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return False
        return reply.get("status") == "ok"

    async def _restart(self, link: _ShardLink) -> None:
        """Restart one dead shard (bounded retries, exponential backoff)."""
        async with link.lock:
            if self._draining or await self._healthy(link):
                return
            if link.client is not None:
                await link.client.close()
                link.client = None
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, link.process.terminate)
            while link.restarts_left > 0:
                used = self._max_restarts - link.restarts_left
                link.restarts_left -= 1
                await asyncio.sleep(self._restart_backoff_s * (2 ** used))
                if self._draining:
                    return
                self._count("router.shard_restarts")
                try:
                    link.process = ShardProcess(link.spec)
                    port = await loop.run_in_executor(
                        None, link.process.spawn)
                    link.client = await ServiceClient.connect(
                        "127.0.0.1", port)
                except (RuntimeError, ConnectionError, OSError) as error:
                    print(f"repro serve: shard {link.index} restart "
                          f"failed: {error}", file=sys.stderr, flush=True)
                    await loop.run_in_executor(
                        None, link.process.terminate)
                    continue
                print(f"repro serve: shard {link.index} restarted "
                      f"on port {port}", file=sys.stderr, flush=True)
                return
            self._count("router.shard_abandoned")
            print(f"repro serve: shard {link.index} abandoned after "
                  f"{self._max_restarts} restarts", file=sys.stderr,
                  flush=True)

    # -- shard round trips ---------------------------------------------

    async def _shard_request(self, link: _ShardLink,
                             payload: Dict[str, object]
                             ) -> Dict[str, object]:
        """One forwarded round trip, with backpressure and liveness."""
        if not link.available:
            self._count("router.overload")
            return {"status": "overload",
                    "reason": f"shard {link.index} unavailable"}
        if link.inflight >= self._inflight_limit:
            self._count("router.overload")
            self._count("router.backpressure")
            return {"status": "overload",
                    "reason": f"shard {link.index} backpressure"}
        client = link.client
        assert client is not None
        payload = dict(payload)
        payload.pop("id", None)  # the link client correlates on its own ids
        link.inflight += 1
        try:
            response = await asyncio.wait_for(
                client.request(payload), self._timeout)
        except asyncio.TimeoutError:
            self._count("router.overload")
            self._count("router.shard_timeouts")
            return {"status": "overload",
                    "reason": f"shard {link.index} timed out"}
        except (ConnectionError, OSError):
            self._count("router.overload")
            self._count("router.shard_errors")
            if link.client is client:
                link.client = None  # health loop restarts it
            return {"status": "overload",
                    "reason": f"shard {link.index} unavailable"}
        finally:
            link.inflight -= 1
        response.pop("id", None)
        return response

    # -- client connections --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._count("router.connections")
        task = asyncio.current_task()
        self._connections[task] = writer
        lines: deque = deque()
        arrived = asyncio.Event()
        closed = False

        async def read_loop() -> None:
            nonlocal closed
            try:
                while True:
                    try:
                        line = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        lines.append(None)  # line-too-long marker
                        arrived.set()
                        continue
                    if not line:
                        break
                    lines.append(line)
                    arrived.set()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                closed = True
                arrived.set()

        reader_task = asyncio.create_task(read_loop())
        try:
            while True:
                await arrived.wait()
                arrived.clear()
                # Yield once so every line of the same event-loop tick
                # joins this chunk (mirrors the service batcher).
                await asyncio.sleep(0)
                chunk: List[Optional[bytes]] = []
                while lines and len(chunk) < CHUNK_LIMIT:
                    chunk.append(lines.popleft())
                if chunk:
                    responses = await self._dispatch_chunk(chunk)
                    if responses:
                        writer.writelines(responses)
                        await writer.drain()
                if closed and not lines:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            del self._connections[task]

    async def _dispatch_chunk(self, chunk: List[Optional[bytes]]
                              ) -> List[bytes]:
        """Route one chunk of request lines; returns ordered replies."""
        self._active_chunks += 1
        self._chunks_done.clear()
        try:
            return await self._route_chunk(chunk)
        finally:
            self._active_chunks -= 1
            if self._active_chunks == 0:
                self._chunks_done.set()

    async def _route_chunk(self, chunk: List[Optional[bytes]]
                           ) -> List[bytes]:
        results: List[Optional[bytes]] = [None] * len(chunk)
        # shard index -> [(chunk position, original id, raw entry)]
        groups: Dict[int, List[Tuple[int, Optional[str], Dict[str, object]]]] = {}
        forwards: List[Tuple[int, Optional[str], int, Dict[str, object]]] = []
        stats_positions: List[Tuple[int, Optional[str]]] = []
        client_batches: List[Tuple[int, Optional[str], List[object]]] = []

        for position, line in enumerate(chunk):
            if line is None:
                self._count("router.protocol_errors")
                results[position] = encode_response(
                    {"status": "error", "reason": "request line too long"})
                continue
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue  # blank lines get no reply, like the service
            self._count("router.requests")
            payload: Optional[Dict[str, object]] = None
            try:
                decoded = json.loads(text)
                if isinstance(decoded, dict):
                    payload = decoded
            except json.JSONDecodeError:
                payload = None
            if payload is None or not isinstance(payload.get("op"), str) \
                    or payload["op"] not in (
                        "admit", "admit_batch", "release",
                        "plan_retransmission", "stats", "ping"):
                # Let the canonical parser produce the canonical error.
                try:
                    parse_request(text)
                    reason = "unroutable request"  # pragma: no cover
                except ProtocolError as error:
                    reason = str(error)
                self._count("router.protocol_errors")
                results[position] = encode_response(
                    {"status": "error", "reason": reason})
                continue
            request_id = payload.get("id")
            if request_id is not None and not isinstance(request_id, str):
                self._count("router.protocol_errors")
                results[position] = encode_response(
                    {"status": "error",
                     "reason": "'id' must be a string when present"})
                continue
            op = payload["op"]
            if op == "ping":
                results[position] = encode_response(
                    self._with_id({"status": "ok"}, request_id))
                continue
            if self._draining:
                self._count("router.overload")
                results[position] = encode_response(self._with_id(
                    {"status": "overload", "reason": "draining"},
                    request_id))
                continue
            if op == "stats":
                stats_positions.append((position, request_id))
                continue
            if op == "admit_batch":
                entries = payload.get("requests")
                if (not isinstance(entries, list) or not entries
                        or len(entries) > MAX_BATCH_REQUESTS):
                    # Let the canonical parser word the canonical error
                    # (no id, exactly like the single-process service).
                    try:
                        parse_request(text)
                        reason = "unroutable request"  # pragma: no cover
                    except ProtocolError as error:
                        reason = str(error)
                    self._count("router.protocol_errors")
                    results[position] = encode_response(
                        {"status": "error", "reason": reason})
                    continue
                client_batches.append((position, request_id, entries))
                continue
            if op == "admit":
                channel = payload.get("channel")
                name = payload.get("name", request_id)
                entry = {
                    "channel": channel,
                    "arrival": payload.get("arrival"),
                    "execution": payload.get("execution"),
                    "deadline": payload.get("deadline"),
                }
                if name is not None:
                    entry["name"] = name
                shard = (shard_for(channel, self.shard_count)
                         if isinstance(channel, str) else 0)
                groups.setdefault(shard, []).append(
                    (position, request_id, entry))
                continue
            if op == "release":
                channel = payload.get("channel")
                shard = (shard_for(channel, self.shard_count)
                         if isinstance(channel, str) else 0)
            else:  # plan_retransmission: stateless, any shard works
                shard = 0
            forwards.append((position, request_id, shard, payload))

        waiters = []
        for shard, items in sorted(groups.items()):
            link = self.links[shard]
            for offset in range(0, len(items), ROUTER_BATCH_LIMIT):
                waiters.append(self._run_group(
                    link, items[offset:offset + ROUTER_BATCH_LIMIT],
                    results))
        for position, request_id, shard, payload in forwards:
            waiters.append(self._run_forward(
                self.links[shard], position, request_id, payload,
                results))
        for position, request_id, entries in client_batches:
            waiters.append(self._run_client_batch(
                position, request_id, entries, results))
        for position, request_id in stats_positions:
            waiters.append(self._run_stats(position, request_id, results))
        if waiters:
            await asyncio.gather(*waiters)
        return [response for response in results if response is not None]

    @staticmethod
    def _with_id(response: Dict[str, object],
                 request_id: Optional[str]) -> Dict[str, object]:
        if request_id is not None:
            response = dict(response)
            response["id"] = request_id
        return response

    async def _run_group(self, link: _ShardLink,
                         items: List[Tuple[int, Optional[str],
                                           Dict[str, object]]],
                         results: List[Optional[bytes]]) -> None:
        """One admit_batch round trip; distribute positional replies."""
        self._count("router.batches")
        self._count("router.batched_admits", len(items))
        entries = [entry for __, __, entry in items]
        reply = await self._shard_request(
            link, {"op": "admit_batch", "requests": entries})
        responses = reply.get("responses")
        if (reply.get("status") == "ok" and isinstance(responses, list)
                and len(responses) == len(items)):
            for (position, request_id, __), response in zip(items,
                                                            responses):
                results[position] = encode_response(
                    self._with_id(response, request_id))
        else:
            # Shard-level failure (overload/timeout/down): every entry
            # gets the same verdict.
            for position, request_id, __ in items:
                results[position] = encode_response(
                    self._with_id(dict(reply), request_id))

    async def _run_client_batch(self, position: int,
                                request_id: Optional[str],
                                entries: List[object],
                                results: List[Optional[bytes]]) -> None:
        """Split one client admit_batch across owning shards.

        Each entry is routed to its channel's rendezvous shard (entries
        the shard will reject as malformed go anywhere -- shard 0 words
        the canonical positional error), the sub-batches run
        concurrently, and the replies are reassembled in entry order so
        the client sees exactly the single-process contract:
        ``{"status": "ok", "responses": [...]}`` with ``responses[i]``
        answering entry ``i``.  A sub-batch whose shard is down/
        overloaded yields that shard's verdict for each of its entries
        without poisoning the entries owned by healthy shards.
        """
        self._count("router.client_batches")
        groups: Dict[int, List[Tuple[int, object]]] = {}
        for index, entry in enumerate(entries):
            channel = (entry.get("channel")
                       if isinstance(entry, dict) else None)
            shard = (shard_for(channel, self.shard_count)
                     if isinstance(channel, str) else 0)
            groups.setdefault(shard, []).append((index, entry))
        responses: List[Optional[Dict[str, object]]] = [None] * len(entries)

        async def run_sub(link: _ShardLink,
                          items: List[Tuple[int, object]]) -> None:
            reply = await self._shard_request(
                link, {"op": "admit_batch",
                       "requests": [entry for __, entry in items]})
            sub = reply.get("responses")
            if (reply.get("status") == "ok" and isinstance(sub, list)
                    and len(sub) == len(items)):
                for (index, __), response in zip(items, sub):
                    responses[index] = response
            else:
                for index, __ in items:
                    responses[index] = dict(reply)

        waiters = []
        for shard, items in sorted(groups.items()):
            link = self.links[shard]
            for offset in range(0, len(items), ROUTER_BATCH_LIMIT):
                waiters.append(run_sub(
                    link, items[offset:offset + ROUTER_BATCH_LIMIT]))
        await asyncio.gather(*waiters)
        results[position] = encode_response(self._with_id(
            {"status": "ok", "responses": responses}, request_id))

    async def _run_forward(self, link: _ShardLink, position: int,
                           request_id: Optional[str],
                           payload: Dict[str, object],
                           results: List[Optional[bytes]]) -> None:
        self._count("router.forwards")
        reply = await self._shard_request(link, payload)
        results[position] = encode_response(
            self._with_id(reply, request_id))

    async def _run_stats(self, position: int, request_id: Optional[str],
                         results: List[Optional[bytes]]) -> None:
        self._count("router.stats")
        payloads = []
        for link in self.links:
            reply = (await self._shard_request(link, {"op": "stats"})
                     if link.available else None)
            if reply is not None and reply.get("status") == "ok":
                payloads.append(reply)
            else:
                # Missing channels in the merge are attributable.
                self._count("router.stats_shards_down")
        merged = aggregate_stats(
            self.setup, payloads, dict(self.counters),
            queue_limit_fallback=self.shard_count * self._queue_limit,
            draining=self._draining)
        results[position] = encode_response(
            self._with_id(merged, request_id))


async def serve_sharded(setup_kwargs: Dict[str, object],
                        shards: int,
                        host: str = "127.0.0.1", port: int = 8471,
                        obs: ObsLike = NULL_OBS,
                        queue_limit: int = 1024, batch_limit: int = 256,
                        request_timeout_s: float = 5.0,
                        reconcile_every: int = 64,
                        inflight_limit: int = 1024,
                        max_restarts: int = 3,
                        restart_backoff_s: float = 0.25,
                        health_interval_s: float = 1.0) -> ShardRouter:
    """Run a sharded admission service until SIGTERM/SIGINT drains it.

    The router loads (and thereby verifies) the setup once; each shard
    child rebuilds it from the same kwargs and restricts itself to its
    owned channels.

    Returns:
        The drained router (its counters are still readable).
    """
    setup = load_service_setup(**setup_kwargs)  # type: ignore[arg-type]
    router = ShardRouter(
        setup, setup_kwargs, shards, obs=obs,
        inflight_limit=inflight_limit, max_restarts=max_restarts,
        restart_backoff_s=restart_backoff_s,
        health_interval_s=health_interval_s,
        request_timeout_s=request_timeout_s,
        queue_limit=queue_limit, batch_limit=batch_limit,
        reconcile_every=reconcile_every)
    bound_host, bound_port = await router.start(host=host, port=port)
    router.install_signal_handlers()
    print(f"repro serve: listening on {bound_host}:{bound_port} "
          f"(workload {setup.workload}, shards {shards}, channels "
          f"{','.join(setup.channels)})",
          file=sys.stderr, flush=True)
    await router.wait_closed()
    return router
