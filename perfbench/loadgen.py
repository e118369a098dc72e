"""Open-loop HTTP load generator for the ``service_mixed`` workload.

Runs in the benchmark process, apart from the server process, on one
asyncio loop with at most ``nproc`` keep-alive connections.  Arrivals
follow a seeded Poisson schedule fixed before the first send; each
request is timed from its *due* time (so a stall also charges the
requests queued behind it) and the generator's own lateness is kept as
``lag``.  Every connection owns a disjoint set of ``(device, block)``
pairs, so each read has exactly one expected payload: the one last
written to that block on that connection.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import time

__all__ = ["Request", "Outcome", "build_schedule", "run_schedule", "http_call"]

#: Virtual seconds a device ages per wall second of the schedule, so
#: reads sense cells that have drifted since their write.
VIRTUAL_SECONDS_PER_S = 1e5

#: A request with no response after this long counts as failed.
REQUEST_TIMEOUT_S = 5.0


@dataclasses.dataclass(frozen=True)
class Request:
    """One scheduled block operation."""

    due: float  # seconds after the phase start
    conn: int
    kind: str  # "write" | "read"
    device: int  # index into the device list
    block: int
    data: str  # hex payload written, or expected on read
    vt: float  # virtual timestamp sent as ``t``


@dataclasses.dataclass
class Outcome:
    """What the generator saw for one request."""

    request: Request
    latency_s: float  # response time minus due time
    lag_s: float  # send time minus due time
    ok: bool


def build_schedule(
    rng: random.Random,
    *,
    rate: float,
    duration_s: float,
    n_conn: int,
    n_devices: int,
    n_blocks: int,
    data_bits: int,
    t_offset: float,
    written: dict[tuple[int, int], str],
) -> list[Request]:
    """A Poisson schedule of 50% writes and 50% read-backs.

    ``written`` maps each already-written ``(device, block)`` to its
    payload and is updated in place, so consecutive phases on one
    server continue each block's history.  ``t_offset`` shifts virtual
    time past earlier phases.
    """
    owned: list[list[tuple[int, int]]] = [[] for _ in range(n_conn)]
    for d in range(n_devices):
        for b in range(n_blocks):
            owned[(d * n_blocks + b) % n_conn].append((d, b))
    out: list[Request] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        conn = rng.randrange(n_conn)
        readable = [key for key in owned[conn] if key in written]
        if readable and rng.random() < 0.5:
            d, b = readable[rng.randrange(len(readable))]
            kind, data = "read", written[(d, b)]
        else:
            d, b = owned[conn][rng.randrange(len(owned[conn]))]
            kind, data = "write", "%0*x" % (data_bits // 4, rng.getrandbits(data_bits))
            written[(d, b)] = data
        out.append(Request(t, conn, kind, d, b, data, t_offset + t * VIRTUAL_SECONDS_PER_S))
        t += rng.expovariate(rate)
    return out


def _raw(method: str, path: str, body: dict | None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, raw: bytes
) -> tuple[int, dict]:
    writer.write(raw)
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return status, json.loads(body) if body else {}


async def http_call(
    host: str, port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, dict]:
    """One request on a fresh connection (set-up and checks, not timed)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await asyncio.wait_for(
            _exchange(reader, writer, _raw(method, path, body)), REQUEST_TIMEOUT_S
        )
    finally:
        writer.close()
        await writer.wait_closed()


async def run_schedule(
    host: str, port: int, schedule: list[Request], device_ids: list[str], n_conn: int
) -> list[Outcome]:
    """Send ``schedule`` open-loop; returns one outcome per request.

    Requests are prepared before the clock starts.  A connection sends
    its requests in schedule order, each no earlier than its due time.
    """
    per_conn: list[list[tuple[Request, bytes]]] = [[] for _ in range(n_conn)]
    for req in schedule:
        dev = device_ids[req.device]
        path = f"/v1/devices/{dev}/blocks/{req.block}/{req.kind}"
        body = {"data": req.data, "t": req.vt} if req.kind == "write" else {"t": req.vt}
        per_conn[req.conn].append((req, _raw("POST", path, body)))
    conns = [await asyncio.open_connection(host, port) for _ in range(n_conn)]
    outcomes: list[Outcome] = []
    clock = time.perf_counter

    async def drive(c: int, items: list[tuple[Request, bytes]]) -> None:
        reader, writer = conns[c]
        for req, raw in items:
            due = t0 + req.due
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = clock()
            try:
                status, payload = await asyncio.wait_for(
                    _exchange(reader, writer, raw), REQUEST_TIMEOUT_S
                )
                ok = status == 200 and (req.kind == "write" or payload.get("data") == req.data)
            except (asyncio.TimeoutError, ConnectionError, ValueError):
                ok = False
                # The stream may hold a late response: start a new one.
                writer.close()
                reader, writer = conns[c] = await asyncio.open_connection(host, port)
            outcomes.append(Outcome(req, clock() - due, sent - due, ok))

    t0 = clock() + 0.05
    try:
        await asyncio.gather(
            *(drive(c, items) for c, items in enumerate(per_conn))
        )
    finally:
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return outcomes
