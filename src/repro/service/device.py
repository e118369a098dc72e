"""Virtual-time PCM device engine behind the service endpoints.

Each :class:`VirtualDevice` is a persistent simulated MLC-PCM device:
``n_blocks`` 3-ON-2 blocks of drifting cells (the paper's 354-cell
Figure-9 geometry by default), a per-device :class:`VirtualClock` that
only advances by explicit request, accumulated mark-and-spare wear, and
cumulative request statistics.  Its physics is the fleet's
:class:`~repro.fleet.soa.WaveKernel` over a one-device population: the
same write-and-verify, mark-and-spare, drift and sensing code the fleet
runs, so a batch of read requests senses as one vectorized pass and
decodes through :class:`~repro.coding.batch.BatchThreeOnTwoCodec`.

**Determinism contract** (:data:`DEVICE_VERSION` 2).  Device state after
any request history is a pure function of ``(device seed, the ordered
per-block request sequence, the virtual timestamps)`` — *not* of
wall-clock time, request interleaving across blocks, or how the dynamic
batcher happened to group requests.  Given those, it equals the state of
a :class:`~repro.core.device.PCMDevice` driven through the same writes:

- the endurance budgets and the failure modes of all cells are drawn at
  creation from ``block_rng(seed, (SERVICE_SPAWN_KEY, 0))`` and
  ``(SERVICE_SPAWN_KEY, 1)`` (see :func:`repro.montecarlo.rng.block_rng`);
- write ``epoch`` of ``block`` (``epoch`` counts writes to that block)
  draws everything it needs from ``block_rng(seed, (SERVICE_SPAWN_KEY,
  2, block, epoch))`` in :class:`~repro.cells.cell_array.CellArray`'s
  order: program noise for the healthy cells of each attempt, revival
  draws for the stuck-set cells of a marked pair, and the program noise
  of forcing that pair to the top state — so the stream a write consumes
  is independent of what other requests ran in between;
- virtual timestamps are bound at request *submission*, before the
  batcher reorders anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Iterator

import numpy as np

from repro.cells.faults import FaultMode, WearoutModel
from repro.coding.batch import shared_codec
from repro.core.designs import three_level_optimal
from repro.fleet.soa import WaveKernel
from repro.fleet.state import SoaFleetState
from repro.montecarlo.rng import block_rng
from repro.service.clock import VirtualClock
from repro.service.codes import ServiceError
from repro.wearout.mark_and_spare import SpareExhausted

__all__ = [
    "DEVICE_VERSION",
    "SERVICE_SPAWN_KEY",
    "DeviceRegistry",
    "VirtualDevice",
    "VirtualDeviceStats",
]

#: Version of the device stream contract above; bump on any change to
#: what a request history draws or computes.
DEVICE_VERSION = 2

#: Root of the service's SeedSequence spawn-key domain.  Distinct from
#: the MC executor's block fan-out and the chaos stream, so service
#: traffic can never perturb (or be perturbed by) simulation RNG.
SERVICE_SPAWN_KEY = 0x5EC0

#: Sub-domains under :data:`SERVICE_SPAWN_KEY`.
_KEY_ENDURANCE = 0
_KEY_MODES = 1
_KEY_WRITE = 2

#: Device index of the service device within its one-device population.
_ONE = np.zeros(1, dtype=np.int64)


@dataclasses.dataclass
class VirtualDeviceStats:
    """Cumulative request counters of one device."""

    writes: int = 0
    reads: int = 0
    write_retries: int = 0
    wearout_marks: int = 0
    tec_corrections: int = 0
    hec_pairs_dropped: int = 0
    uncorrectable_reads: int = 0
    spare_exhausted_writes: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


class VirtualDevice:
    """One simulated PCM device with virtual-time drift and wear."""

    def __init__(
        self,
        device_id: str,
        seed: int,
        n_blocks: int,
        *,
        data_bits: int = 512,
        n_spare_pairs: int = 6,
        wearout: WearoutModel | None = None,
    ):
        if n_blocks < 1:
            raise ServiceError("E_BAD_REQUEST", "need at least one block")
        self.device_id = device_id
        self.seed = int(seed)
        self.n_blocks = int(n_blocks)
        self.data_bits = int(data_bits)
        self.n_spare_pairs = int(n_spare_pairs)
        self.codec = shared_codec(self.data_bits, self.n_spare_pairs)
        self.wearout = wearout or WearoutModel()
        self.clock = VirtualClock()
        self.stats = VirtualDeviceStats()

        scalar = self.codec.codec
        self.n_cells = scalar.n_mlc_cells
        self.n_slc_cells = scalar.n_slc_cells
        s = SoaFleetState(
            1,
            self.n_blocks,
            self.n_cells,
            self.n_slc_cells,
            scalar.ms_config.n_pairs,
            self.data_bits,
        )
        n = self.n_blocks * self.n_cells
        rng_end = block_rng(self.seed, (SERVICE_SPAWN_KEY, _KEY_ENDURANCE))
        s.endurance[0] = self.wearout.sample_endurance(rng_end, n)
        rng_modes = block_rng(self.seed, (SERVICE_SPAWN_KEY, _KEY_MODES))
        s.pending_mode[0] = self.wearout.sample_modes(rng_modes, n)
        self._s = s
        self._kernel = WaveKernel(s, three_level_optimal(), self.codec, self.wearout.p_revive)
        self._epoch = np.zeros(self.n_blocks, dtype=np.int64)

    # -- validation ----------------------------------------------------
    def check_block(self, block: int) -> int:
        block = int(block)
        if not 0 <= block < self.n_blocks:
            raise ServiceError(
                "E_BLOCK_RANGE",
                f"block {block} outside device range [0, {self.n_blocks})",
                {"device": self.device_id, "n_blocks": self.n_blocks},
            )
        return block

    def bind_time(self, t: float | None) -> float:
        """Resolve a request's virtual timestamp at submission time.

        ``None`` means "now" on the device clock; explicit timestamps
        must not be behind the clock (drift cannot rewind).
        """
        now = self.clock.now()
        if t is None:
            return now
        t = float(t)
        if not np.isfinite(t) or t < 0.0:
            raise ServiceError("E_BAD_REQUEST", f"virtual time must be finite >= 0, got {t}")
        if t < now:
            raise ServiceError(
                "E_TIME_REGRESSION",
                f"t={t} is behind the device clock ({now})",
                {"device": self.device_id, "virtual_time": now},
            )
        return t

    # -- write path ----------------------------------------------------
    def write_block(self, block: int, bits: np.ndarray, t: float) -> dict:
        """Encode + program one block with write-and-verify at time ``t``.

        Each verify failure marks the containing pair INV and relays the
        data around it, up to the spare budget.  Raises
        :class:`~repro.wearout.mark_and_spare.SpareExhausted` past it
        (the block is left unreadable until rewritten after remapping).
        """
        block = self.check_block(block)
        epoch = int(self._epoch[block])
        self._epoch[block] = epoch + 1
        gens = np.empty(1, dtype=object)
        gens[0] = block_rng(self.seed, (SERVICE_SPAWN_KEY, _KEY_WRITE, block, epoch))
        # While every cell outlives one more program, the block has no
        # fault and the write succeeds on its first attempt.
        s = self._s
        clean = bool((s.writes_3[0, block] + 1 < s.endurance_3[0, block]).all())
        res = self._kernel.run_waves(_ONE, np.array([block]), bits[None, :], gens, t, clean)
        exhausted = bool(res.exhausted[0])
        retries = int(res.attempts[0]) - (not exhausted)
        self.stats.writes += 1
        self.stats.write_retries += retries
        self.stats.wearout_marks += int(res.marks[0])
        if exhausted:
            s.written[0, block] = False
            self.stats.spare_exhausted_writes += 1
            raise SpareExhausted(f"block {block}: wearout beyond spare budget")
        return {
            "code": "OK",
            "block": block,
            "t": t,
            "epoch": epoch,
            "retries": retries,
            "marked_pairs": int(s.marked[0, block].sum()),
        }

    # -- read path -----------------------------------------------------
    def drifted_lr(self, blocks: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Drifted log10 resistance of whole block rows at virtual times."""
        blocks = np.asarray(blocks, dtype=np.int64)
        return self._kernel.drifted_lr(np.zeros_like(blocks), blocks, ts)

    def sense_rows(self, blocks: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sensed cell states + SLC check bits for a batch of reads."""
        blocks = np.asarray(blocks, dtype=np.int64)
        states = self._kernel.sense_rows(np.zeros_like(blocks), blocks, ts)
        return states.astype(np.uint8), self._s.slc[0, blocks]

    def require_written(self, block: int) -> None:
        if not bool(self._s.written[0, block]):
            raise ServiceError(
                "E_BLOCK_NOT_WRITTEN",
                f"block {block} was never written (or its last write failed)",
                {"device": self.device_id, "block": block},
            )

    # -- introspection -------------------------------------------------
    def describe(self) -> dict:
        marks = self._s.marked[0].sum(axis=1)
        return {
            "id": self.device_id,
            "device_version": DEVICE_VERSION,
            "seed": self.seed,
            "n_blocks": self.n_blocks,
            "data_bits": self.data_bits,
            "n_spare_pairs": self.n_spare_pairs,
            "cells_per_block": self.n_cells,
            "slc_cells_per_block": self.n_slc_cells,
            "virtual_time": self.clock.now(),
            "blocks_written": int(self._s.written[0].sum()),
            "wear": {
                "marked_pairs_total": int(marks.sum()),
                "marked_pairs_max": int(marks.max()),
                "blocks_at_budget": int((marks >= self.n_spare_pairs).sum()),
                "stuck_cells": int((self._s.fault[0] != FaultMode.HEALTHY.value).sum()),
            },
            "stats": self.stats.snapshot(),
        }

    def state_digest(self) -> str:
        """SHA-256 over the full simulated state, for differential checks.

        Two devices that served bit-identical request histories (in any
        batching arrangement) must produce equal digests; the
        bench/CI cross-check is built on this.
        """
        h = hashlib.sha256()
        h.update(self._kernel.device_digest(0).encode("ascii"))
        h.update(np.ascontiguousarray(self._epoch).tobytes())
        h.update(np.float64(self.clock.now()).tobytes())
        return h.hexdigest()


class DeviceRegistry:
    """Id-addressed collection of live devices.

    Creation and deletion are guarded by a lock (they run on the event
    loop thread while batches execute on the engine thread); per-device
    simulation state is only ever touched from the engine thread — the
    app routes every state-touching operation through the batcher's
    serialized executor.
    """

    def __init__(self) -> None:
        self._devices: dict[str, VirtualDevice] = {}
        self._next = 1
        self._lock = threading.Lock()

    def create(
        self,
        seed: int,
        n_blocks: int,
        *,
        data_bits: int = 512,
        n_spare_pairs: int = 6,
        wearout: WearoutModel | None = None,
    ) -> VirtualDevice:
        with self._lock:
            device_id = f"dev-{self._next:04d}"
            self._next += 1
            device = VirtualDevice(
                device_id,
                seed,
                n_blocks,
                data_bits=data_bits,
                n_spare_pairs=n_spare_pairs,
                wearout=wearout,
            )
            self._devices[device_id] = device
            return device

    def get(self, device_id: str) -> VirtualDevice:
        with self._lock:
            device = self._devices.get(device_id)
        if device is None:
            raise ServiceError(
                "E_DEVICE_NOT_FOUND", f"no device {device_id!r}", {"device": device_id}
            )
        return device

    def delete(self, device_id: str) -> None:
        with self._lock:
            if device_id not in self._devices:
                raise ServiceError(
                    "E_DEVICE_NOT_FOUND", f"no device {device_id!r}", {"device": device_id}
                )
            del self._devices[device_id]

    def __iter__(self) -> Iterator[VirtualDevice]:
        with self._lock:
            devices = list(self._devices.values())
        return iter(devices)

    def __len__(self) -> int:
        with self._lock:
            return len(self._devices)
