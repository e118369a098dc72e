"""Dynamic batching: coalesce concurrent I/O into the batch kernels.

The hot path of the service.  Concurrent block read/write requests land
in a :class:`BatchQueue` and are flushed as one batch when either the
size threshold fills or the oldest request's deadline expires — the
classic dynamic-batching tradeoff (throughput vs tail latency) under an
injectable clock so the policy is unit-testable without sleeping.

The layering is sans-io:

- :class:`BatchQueue` — pure data structure: submit / readiness /
  take-batch, no asyncio, clock injected as a callable;
- :func:`execute_batch` — runs one batch of :class:`IoOp` against the
  device engine, coalescing reads into a single
  :meth:`~repro.coding.batch.BatchThreeOnTwoCodec.decode` per block
  geometry; writes run one op at a time through
  :meth:`~repro.service.device.VirtualDevice.write_block` (one
  single-row run of the fleet's write-and-verify kernel), in waves that
  keep same-block writes in queue order;
- :class:`DynamicBatcher` — the asyncio front: wakes on size or
  deadline, executes batches on a single worker thread (which also
  serializes every other touch of engine state), resolves futures.

**Bit-identity.**  ``execute_batch(ops)`` produces exactly the
responses and device state of executing the same ops one at a time in
queue order: reads are stateless given the bound timestamps, write
randomness is addressed per ``(block, epoch)``, and writes to the same
block within one batch are executed in queue order (wave partitioning).
``tests/service/test_batch_queue.py`` holds the two paths together.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from repro.service.codes import ServiceError, code_for_fail_stage
from repro.service.device import VirtualDevice
from repro.service.wire import bits_to_hex
from repro.wearout.mark_and_spare import SpareExhausted

__all__ = [
    "BatchQueue",
    "BatchStats",
    "DynamicBatcher",
    "IoOp",
    "QueueFull",
    "execute_batch",
]


class QueueFull(Exception):
    """The batching queue is at capacity: shed load (HTTP 503)."""


@dataclasses.dataclass
class IoOp:
    """One queued block operation with its submission-bound context."""

    kind: str  # "read" | "write"
    device: VirtualDevice
    block: int
    t: float  # virtual timestamp, bound at submission
    bits: np.ndarray | None = None  # write payload
    future: asyncio.Future | None = None
    result: dict | None = None  # filled in by execute_batch


@dataclasses.dataclass
class BatchStats:
    """Counters exported on ``/metrics``."""

    submitted: int = 0
    rejected: int = 0
    flushes_size: int = 0
    flushes_deadline: int = 0
    flushes_drain: int = 0
    batch_size_hist: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )

    def snapshot(self) -> dict:
        sizes = sorted(self.batch_size_hist)
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "flushes": {
                "size": self.flushes_size,
                "deadline": self.flushes_deadline,
                "drain": self.flushes_drain,
            },
            "batch_size_hist": {str(s): self.batch_size_hist[s] for s in sizes},
        }


class BatchQueue:
    """FIFO of pending ops with size/deadline flush policy (sans-io)."""

    def __init__(
        self,
        *,
        max_batch: int = 64,
        deadline_s: float = 0.002,
        max_depth: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if deadline_s < 0.0:
            raise ValueError("deadline_s must be >= 0")
        if max_depth < max_batch:
            raise ValueError("max_depth must be >= max_batch")
        self.max_batch = int(max_batch)
        self.deadline_s = float(deadline_s)
        self.max_depth = int(max_depth)
        self.clock = clock
        self.stats = BatchStats()
        self._pending: collections.deque[tuple[IoOp, float]] = collections.deque()

    @property
    def depth(self) -> int:
        return len(self._pending)

    def submit(self, op: IoOp) -> None:
        """Enqueue one op; raises :class:`QueueFull` at capacity."""
        if len(self._pending) >= self.max_depth:
            self.stats.rejected += 1
            raise QueueFull(
                f"batch queue at capacity ({self.max_depth} pending requests)"
            )
        self._pending.append((op, self.clock()))
        self.stats.submitted += 1

    def next_deadline(self) -> float | None:
        """Clock time at which the oldest pending op must flush."""
        if not self._pending:
            return None
        return self._pending[0][1] + self.deadline_s

    def ready(self, now: float | None = None) -> bool:
        """True when a batch should flush (size filled or deadline hit)."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        if now is None:
            now = self.clock()
        return now >= self._pending[0][1] + self.deadline_s

    def take(self, *, reason: str = "size") -> list[IoOp]:
        """Pop up to ``max_batch`` ops in FIFO order and record stats.

        ``reason`` labels the flush trigger (``size`` / ``deadline`` /
        ``drain``) in the stats; callers decide *when*, the queue only
        records *what*.
        """
        n = min(len(self._pending), self.max_batch)
        batch = [self._pending.popleft()[0] for _ in range(n)]
        if batch:
            self.stats.batch_size_hist[len(batch)] += 1
            if reason == "size":
                self.stats.flushes_size += 1
            elif reason == "deadline":
                self.stats.flushes_deadline += 1
            else:
                self.stats.flushes_drain += 1
        return batch


# ----------------------------------------------------------------------
# Batch execution against the device engine.
# ----------------------------------------------------------------------

def _read_result(dev: VirtualDevice, op: IoOp, decoded, row: int) -> dict:
    """Render one row of a batch decode into a response payload."""
    dev.stats.reads += 1
    if bool(decoded.uncorrectable[row]):
        code, stage = code_for_fail_stage(int(decoded.fail_stage[row]))
        dev.stats.uncorrectable_reads += 1
        err = ServiceError(
            code,
            f"block {op.block} uncorrectable at stage {stage}",
            {"device": dev.device_id, "block": op.block, "stage": stage, "t": op.t},
        )
        return {"error": err}
    tec = int(decoded.tec_corrected[row])
    hec = int(decoded.hec_pairs_dropped[row])
    dev.stats.tec_corrections += tec
    dev.stats.hec_pairs_dropped += hec
    return {
        "code": "OK",
        "block": op.block,
        "t": op.t,
        "data": bits_to_hex(decoded.data_bits[row]),
        "tec_corrected": tec,
        "hec_pairs_dropped": hec,
    }


def _execute_reads(ops: list[IoOp]) -> None:
    """Coalesced read path: one decode call per block geometry.

    Rows from every device sharing a codec instance are concatenated
    into a single sense + :meth:`BatchThreeOnTwoCodec.decode` pass —
    this is where concurrent requests actually merge into the PR-5
    kernels.  Results scatter back to each op's ``result``.
    """
    by_codec: dict[int, list[IoOp]] = collections.defaultdict(list)
    for op in ops:
        by_codec[id(op.device.codec)].append(op)
    for group in by_codec.values():
        rows_states = []
        rows_slc = []
        live: list[IoOp] = []
        for op in group:
            dev = op.device
            try:
                dev.require_written(op.block)
            except ServiceError as err:
                op.result = {"error": err}
                continue
            states, slc = dev.sense_rows(
                np.array([op.block]), np.array([op.t])
            )
            rows_states.append(states)
            rows_slc.append(slc)
            live.append(op)
        if not live:
            continue
        codec = live[0].device.codec
        decoded = codec.decode(
            np.concatenate(rows_states, axis=0), np.concatenate(rows_slc, axis=0)
        )
        for row, op in enumerate(live):
            op.result = _read_result(op.device, op, decoded, row)


def _write_one(op: IoOp) -> dict:
    """Execute one write op: encode, program and verify, retries included."""
    dev = op.device
    try:
        assert op.bits is not None
        return dev.write_block(op.block, op.bits, op.t)
    except SpareExhausted as exc:
        return {
            "error": ServiceError(
                "E_SPARE_EXHAUSTED",
                str(exc),
                {"device": dev.device_id, "block": op.block},
            )
        }


def _execute_writes(ops: list[IoOp]) -> None:
    """Write path: waves of distinct blocks, one op at a time.

    Ops are partitioned into *waves* with unique ``(device, block)``
    pairs, preserving queue order within each block, so a second write
    to the same block always sees the state (marks, epoch) the first
    one left behind — exactly as sequential execution would.

    Every op runs :func:`_write_one`, i.e.
    :meth:`VirtualDevice.write_block`, which runs the write-and-verify
    kernel on its own row (one single-row
    :meth:`BatchThreeOnTwoCodec.encode` per write, plus one per retry).
    Writes are not batched across a wave.
    """
    waves: list[list[IoOp]] = []
    seen_in_wave: list[set[tuple[str, int]]] = []
    for op in ops:
        key = (op.device.device_id, op.block)
        for wave, seen in zip(waves, seen_in_wave):
            if key not in seen:
                wave.append(op)
                seen.add(key)
                break
        else:
            waves.append([op])
            seen_in_wave.append({key})
    for wave in waves:
        for op in wave:
            op.result = _write_one(op)


def execute_batch(ops: Sequence[IoOp]) -> list[dict]:
    """Run one batch; returns per-op results in submission order.

    Results are dicts: either a response payload or ``{"error":
    ServiceError}``.  Bit-identical to executing the ops sequentially in
    FIFO order (the differential suite drives both paths):

    - reads are stateless given their bound timestamps, so they coalesce
      freely among themselves;
    - writes mutate wear state, so within one segment they run before
      the reads (a read behind a write to the same block must observe
      it) and same-block writes keep queue order (wave partitioning in
      :func:`_execute_writes`);
    - the only FIFO hazard left — a *write* submitted behind a *read* of
      the same block — forces a segment boundary, so the read still
      senses the pre-write cells.
    """
    segments: list[list[IoOp]] = []
    current: list[IoOp] = []
    read_keys: set[tuple[str, int]] = set()
    for op in ops:
        key = (op.device.device_id, op.block)
        if op.kind == "write" and key in read_keys:
            segments.append(current)
            current = []
            read_keys = set()
        current.append(op)
        if op.kind == "read":
            read_keys.add(key)
    if current:
        segments.append(current)
    for segment in segments:
        _execute_writes([op for op in segment if op.kind == "write"])
        _execute_reads([op for op in segment if op.kind == "read"])
    return [op.result for op in ops]  # every op was filled by its segment


# ----------------------------------------------------------------------
# Asyncio front end.
# ----------------------------------------------------------------------

class DynamicBatcher:
    """Event-loop face of the batching queue.

    One background task watches the queue and flushes on readiness
    (size) or at the oldest op's deadline; batches execute on a single
    dedicated worker thread, so the event loop never blocks on numpy and
    *all* engine-state access is serialized.  Control operations that
    touch device state without being block I/O (create/describe/digest/
    clock/delete) go through :meth:`run_serialized` on the same thread.

    ``hold()`` is a test seam: while held, nothing flushes, so tests can
    deterministically fill the queue (e.g. to exercise backpressure)
    without racing the flush loop.
    """

    def __init__(self, queue: BatchQueue | None = None):
        self.queue = queue or BatchQueue()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._held = False

    # -- lifecycle -----------------------------------------------------
    def _ensure_task(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Drain: flush every pending op, then stop the loop and pool."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task
        self._pool.shutdown(wait=True)

    def hold(self) -> None:
        self._held = True

    def release(self) -> None:
        self._held = False
        self._wake.set()

    # -- submission ----------------------------------------------------
    async def submit(self, op: IoOp) -> dict:
        """Enqueue one op and await its result (or its ServiceError)."""
        if self._closed:
            raise ServiceError("E_SHUTTING_DOWN", "server is draining")
        loop = asyncio.get_running_loop()
        op.future = loop.create_future()
        try:
            self.queue.submit(op)
        except QueueFull as exc:
            raise ServiceError(
                "E_QUEUE_FULL", str(exc), {"max_depth": self.queue.max_depth}
            )
        self._ensure_task()
        self._wake.set()
        result = await op.future
        err = result.get("error")
        if err is not None:
            raise err
        return result

    async def run_serialized(self, fn: Callable[[], Any]) -> Any:
        """Run a control operation on the engine thread (serialized)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn)

    # -- flush loop ----------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self._closed and self.queue.depth == 0:
                return
            if not self._held and (self.queue.ready() or self._closed):
                if self.queue.depth >= self.queue.max_batch:
                    reason = "size"
                elif self.queue.ready():
                    reason = "deadline"
                else:
                    reason = "drain"
                batch = self.queue.take(reason=reason)
                if batch:
                    await self._execute(loop, batch)
                continue
            deadline = self.queue.next_deadline()
            timeout: float | None = None
            if deadline is not None and not self._held:
                timeout = max(0.0, deadline - self.queue.clock())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()

    async def _execute(self, loop: asyncio.AbstractEventLoop, batch: list[IoOp]) -> None:
        try:
            results = await loop.run_in_executor(self._pool, execute_batch, batch)
        except Exception as exc:
            for op in batch:
                if op.future is not None and not op.future.done():
                    op.future.set_exception(exc)
            return
        for op, result in zip(batch, results):
            if op.future is not None and not op.future.done():
                op.future.set_result(result)
