"""Structure-of-arrays fleet engine: the epoch loop as array programs.

:class:`SoaFleetEngine` is the vectorized twin of
:class:`~repro.fleet.engine.ObjectFleetEngine`.  It holds the whole
population's state in the flat arrays of
:class:`~repro.fleet.state.SoaFleetState` and advances an epoch with
array operations end to end — batched traffic and payload draws, fused
drift + sense over every scrubbed block at once, and wave-scheduled
program attempts — while remaining **bit-identical** to the object
engine: same per-device RNG streams, consumed in the same per-device
order, same counters, same state digests.

Two facts make the vectorization sound:

- Devices are independent.  Each owns its three generator streams, so
  work may be *reordered across devices* freely as long as each device's
  own draw order is preserved.  The engine exploits this with *wave
  steps*: one step makes one program attempt for every device that has
  a write pending — within a device, writes and their retries still
  happen in trace order.
- Sensing draws no randomness, so phase D's fused drift/threshold pass
  over all ``(device, block)`` rows touches no stream at all.

**One wave step** (:meth:`SoaFleetEngine._step`) is the object engine's
write-and-verify loop body, run as array operations over all of the
step's rows: bump wear, turn newly dead cells into faults, program the
healthy cells, verify; on a failure take the first bad pair, mark it
(or die with spares exhausted), force-highest the marked pair, and
leave the write for a retry in the next step.  Every row whose
pre-encoded states are stale — retries, and first attempts at a block
marked earlier in the epoch — is re-encoded in one
:class:`~repro.coding.batch.BatchThreeOnTwoCodec` call per step.  Only
the per-device generator calls remain a Python loop.  While no cell in
the population can have reached its endurance budget (a cheap wear
upper bound against the population's minimum endurance), a step skips
the fault gathers; in such an epoch every write completes in one
attempt and the steps are plain write-slot waves.

The batched generator seeding and payload draws come from
:mod:`repro.fleet.fastrng`; each is verified against numpy once per
process and silently falls back to the scalar constructions when the
installed numpy disagrees.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from repro.cells.cell_array import (
    cell_state_digest,
    drifted_log_resistance,
    programmed_alpha,
    programmed_log_resistance,
)
from repro.cells.drift import PAPER_ESCALATION, independent_escalated_alpha
from repro.cells.faults import FaultMode
from repro.cells.params import T0_SECONDS, WRITE_TRUNCATION_SIGMA
from repro.core.designs import design_by_name
from repro.core.device import DeviceStats, device_state_digest
from repro.fleet.config import (
    FLEET_SPAWN_KEY,
    KEY_DATA,
    KEY_DEVICE,
    KEY_HETERO,
    DeviceParams,
    FleetConfig,
    device_params,
    hetero_draws,
)
from repro.fleet.engine import N_COUNTERS, _batch_codec, counter_index
from repro.fleet.fastrng import (
    FastSeeder,
    draw_payloads,
    merged_normals_ok,
    payload_fast_ok,
)
from repro.fleet.state import SoaFleetState, alive_indices
from repro.montecarlo.rng import truncated_normal_from_uniform
# The scalar draw stays bound here beside its array tail: perfbench's
# layer trace wraps this module's physics bindings by name.
from repro.montecarlo.rng import truncated_normal  # noqa: F401
from repro.workloads.synthetic import draw_ops_fast

__all__ = ["SoaDeviceView", "SoaFleetEngine"]

_HEALTHY = FaultMode.HEALTHY.value
_STUCK_RESET = FaultMode.STUCK_RESET.value
_STUCK_SET = FaultMode.STUCK_SET.value

_C_WRITES = counter_index("writes")
_C_READS_REQ = counter_index("reads_requested")
_C_READS = counter_index("reads")
_C_REFRESHES = counter_index("refreshes")
_C_TEC = counter_index("tec_corrections")
_C_UNCORRECTABLE = counter_index("uncorrectable")
_C_SILENT = counter_index("silent")
_C_MARKS = counter_index("wearout_marks")
_C_RETRIES = counter_index("write_retries")
_C_DEATHS = counter_index("deaths")
_C_CELL_WRITE = counter_index("cell_programs_write")
_C_CELL_REFRESH = counter_index("cell_programs_refresh")
_C_SENSED = counter_index("cells_sensed")


class _WriteQueue(NamedTuple):
    """One phase's block writes, grouped by device, trace order within.

    ``states``/``checks`` are pre-encoded under each block's layout at
    the start of the phase; ``stale`` flags the ``(device, block)``
    pairs marked since, whose pre-encoded rows no longer apply.
    """

    devs: np.ndarray
    blks: np.ndarray
    bits: np.ndarray
    states: np.ndarray
    checks: np.ndarray
    stale: np.ndarray
    t_now: float


class SoaDeviceView:
    """Read-only :class:`PCMDevice`-shaped view of one fleet device.

    What the differential suites (and summaries) need from a device:
    its :class:`DeviceStats` and its canonical state digest, both built
    from the population arrays on demand.
    """

    def __init__(self, engine: "SoaFleetEngine", k: int) -> None:
        self._engine = engine
        self._k = k

    @property
    def stats(self) -> DeviceStats:
        s = self._engine._s
        k = self._k
        return DeviceStats(
            writes=int(s.st_writes[k]),
            reads=int(s.st_reads[k]),
            refreshes=0,
            tec_corrections=int(s.st_tec[k]),
            wearout_marks=int(s.st_marks[k]),
            write_retries=int(s.st_retries[k]),
        )

    def state_digest(self) -> str:
        return self._engine._device_digest(self._k)

    def written_mask(self) -> np.ndarray:
        return self._engine._s.written[self._k].copy()

    def check_bits(self, block: int) -> np.ndarray:
        return self._engine._s.slc[self._k, block].copy()


class SoaFleetEngine:
    """A contiguous device range, advanced as one structure of arrays.

    Drop-in for :class:`~repro.fleet.engine.ObjectFleetEngine` (same
    constructor, ``advance``, counters, digests); construct via the
    :func:`~repro.fleet.engine.FleetEngine` factory.
    """

    def __init__(
        self,
        config: FleetConfig,
        entropy: int,
        first_device: int = 0,
        n_devices: int | None = None,
    ) -> None:
        self.config = config
        self.entropy = int(entropy)
        self.first_device = int(first_device)
        n = (
            config.n_devices - self.first_device
            if n_devices is None
            else int(n_devices)
        )
        if self.first_device < 0 or n < 1 or self.first_device + n > config.n_devices:
            raise ValueError(
                f"device range [{first_device}, {first_device}+{n_devices}) "
                f"outside fleet of {config.n_devices}"
            )
        self.n_devices = n
        self._epoch = 0
        self._batch = _batch_codec(config.data_bits)
        codec = self._batch.codec
        self._ms_config = codec.ms_config
        self._n_mlc = codec.n_mlc_cells
        self._n_spare_pairs = self._ms_config.n_spare_pairs
        self._cells_per_device = config.n_blocks * self._n_mlc

        base = design_by_name(config.design)
        if base.n_levels != 3:
            raise ValueError("the fleet engines model 3LC devices")
        schedule = PAPER_ESCALATION
        tier = schedule.tiers[0]
        self._n_levels = base.n_levels
        self._top = base.n_levels - 1
        self._thresholds = np.asarray(base.thresholds)
        self._top_lr = base.states[-1].mu_lr
        self._bot_lr = base.states[0].mu_lr
        # Write distributions are heterogeneity-free (only drift rates
        # and wear budgets vary per device; see repro.fleet.config).
        self._mu_lr = np.array([s.mu_lr for s in base.states])
        self._sg_lr = np.array([s.sigma_lr for s in base.states])
        base_mu_a = np.array([s.drift.mu_alpha for s in base.states])
        base_sg_a = np.array([s.drift.sigma_alpha for s in base.states])
        self._lr_break = tier.lr_break

        self._s = SoaFleetState(
            n,
            config.n_blocks,
            self._n_mlc,
            codec.n_slc_cells,
            self._ms_config.n_pairs,
            config.data_bits,
        )
        s = self._s
        self._alive = np.ones(n, dtype=bool)

        seeder = FastSeeder.shared()
        idx = np.arange(self.first_device, self.first_device + n, dtype=np.int64)
        g_het = seeder.generators(self.entropy, (FLEET_SPAWN_KEY, KEY_HETERO), idx)
        self._g_dev = seeder.generators(self.entropy, (FLEET_SPAWN_KEY, KEY_DEVICE), idx)
        self._g_data = seeder.generators(self.entropy, (FLEET_SPAWN_KEY, KEY_DATA), idx)

        # Per-device drawn operating points (the hetero stream's four
        # draws, in the frozen order of config.hetero_draws).
        self._mu_a = np.empty((n, self._n_levels))
        self._sg_a = np.empty((n, self._n_levels))
        self._mu_esc = np.empty(n)
        self._sg_esc = np.empty(n)
        self._workload: list[str] = []
        payload_fast = payload_fast_ok() and config.data_bits % 8 == 0
        self._payload_fast: list[bool] = []
        nc = config.n_blocks * self._n_mlc
        for k in range(n):
            bucket, alpha_jitter, endurance_scale, workload = hetero_draws(
                config, g_het[k]
            )
            factor = float(config.temp_buckets[bucket][1]) * alpha_jitter
            self._mu_a[k] = base_mu_a * factor
            self._sg_a[k] = base_sg_a * factor
            self._mu_esc[k] = tier.mu_alpha * factor
            self._sg_esc[k] = tier.sigma_alpha * factor
            self._workload.append(workload)
            self._payload_fast.append(payload_fast and workload == "stream")
            # CellArray init draws, from the device stream in its order:
            # endurance budgets first, then pending failure modes.
            g = self._g_dev[k]
            lg = g.normal(
                np.log10(config.mean_endurance * endurance_scale),
                config.endurance_sigma,
                nc,
            )
            s.endurance[k] = np.power(10.0, lg)
            reset = g.random(nc) < config.p_stuck_reset
            s.pending_mode[k] = np.where(reset, _STUCK_RESET, _STUCK_SET).astype(
                np.int8
            )
        s.lr0[:] = self._bot_lr  # fresh cells sit at the lowest level

        # A cheap per-cell wear upper bound against the population's
        # minimum endurance proves an epoch fault-free; until the first
        # epoch that cannot be proven so, every block is programmed whole
        # and a per-(device, block) program time serves fused sensing.
        self._min_endurance = float(s.endurance.min())
        self._writes_bound = 0
        self._tprog_uniform = True
        self._tprog_row = np.zeros((n, config.n_blocks))
        self._merged_normals = merged_normals_ok()

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epochs advanced so far (also the next epoch's index)."""
        return self._epoch

    def device(self, index: int) -> SoaDeviceView:
        """The device at *global* fleet index ``index``."""
        k = index - self.first_device
        if not 0 <= k < self.n_devices:
            raise IndexError(f"device {index} not in this engine's range")
        return SoaDeviceView(self, k)

    def params(self, index: int) -> DeviceParams:
        """Drawn operating point of global device ``index``."""
        k = index - self.first_device
        if not 0 <= k < self.n_devices:
            raise IndexError(f"device {index} not in this engine's range")
        return device_params(self.config, self.entropy, index)

    def alive_mask(self) -> np.ndarray:
        """Which of this engine's devices still have spare budget."""
        return self._alive.copy()

    @property
    def state_nbytes(self) -> int:
        """Bytes held by the population state arrays (telemetry)."""
        return self._s.nbytes

    def _device_digest(self, k: int) -> str:
        s = self._s
        cell = cell_state_digest(
            s.lr0[k],
            s.alpha[k],
            s.alpha_esc[k],
            s.t_prog[k],
            s.target[k],
            s.writes[k],
            s.endurance[k],
            s.fault[k],
            s.pending_mode[k],
        )
        payloads = [
            np.ascontiguousarray(s.marked[k, b]).tobytes()
            for b in range(self.config.n_blocks)
        ]
        return device_state_digest(cell, s.slc[k], s.written[k], payloads)

    def state_digest(self) -> str:
        """SHA-256 over every device's full state plus fleet bookkeeping."""
        h = hashlib.sha256()
        h.update(self._epoch.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self._alive).tobytes())
        s = self._s
        for k in range(self.n_devices):
            h.update(self._device_digest(k).encode("ascii"))
            for b in np.flatnonzero(s.has_stored[k]):
                h.update(int(b).to_bytes(4, "little"))
                h.update(np.ascontiguousarray(s.stored[k, b]).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def advance(self, n_epochs: int = 1) -> np.ndarray:
        """Run ``n_epochs`` epochs; returns ``(n_epochs, N_COUNTERS)`` counts.

        Splitting a run over successive calls is exact:
        ``advance(a); advance(b)`` produces the same device states and
        (concatenated) counts as ``advance(a + b)``.
        """
        n_epochs = int(n_epochs)
        if n_epochs < 0:
            raise ValueError(f"n_epochs must be >= 0, got {n_epochs}")
        out = np.zeros((n_epochs, N_COUNTERS), dtype=np.int64)
        for e in range(n_epochs):
            out[e] = self._advance_one()
        return out

    def _advance_one(self) -> np.ndarray:
        cfg = self.config
        s = self._s
        c = np.zeros(N_COUNTERS, dtype=np.int64)
        t0 = self._epoch * cfg.epoch_seconds
        t1 = t0 + cfg.epoch_seconds
        alive = alive_indices(self._alive)
        # While no cell has failed an epoch adds at most ops_per_epoch + 1
        # writes to any cell, so while the wear bound stays below the
        # population's minimum endurance no cell can fail this epoch.  The
        # bound only grows: once it stops holding it never holds again.
        clean = self._writes_bound + cfg.ops_per_epoch + 1 < self._min_endurance
        self._writes_bound += cfg.ops_per_epoch + 1
        # From the first epoch that may fail on, retries and force-highest
        # program partial blocks: sensing reads per-cell program times.
        self._tprog_uniform = self._tprog_uniform and clean

        # Phases A-C: traffic and payload draws, one batch encode, then
        # program in wave steps (trace order within each device).
        plan = self._draw_epoch_plan(alive, c)
        if plan:
            devs = np.repeat(
                np.array([k for k, _, _ in plan], dtype=np.int64),
                [blocks.size for _, blocks, _ in plan],
            )
            blks = np.concatenate([blocks for _, blocks, _ in plan])
            bits = np.vstack([bits for _, _, bits in plan])
            writes, cells, _ = self._run_waves(devs, blks, bits, t0, clean, c)
            c[_C_WRITES] += writes
            c[_C_CELL_WRITE] += cells

        # Phase D: scrub every written block of every survivor — fused
        # drift + sense (no RNG), one batch decode, one batch re-encode,
        # refresh in wave steps (block-ascending within each device).
        survivors = alive[self._alive[alive]]
        wr = s.written[survivors]
        sdevs = np.repeat(survivors, wr.sum(axis=1))
        sblks = np.nonzero(wr)[1]
        r2 = sdevs.size
        if r2:
            sensed = self._sense_rows(sdevs, sblks, t1)
            dec = self._batch.decode(sensed, s.slc[sdevs, sblks])
            ok = np.flatnonzero(~dec.uncorrectable)
            okd = sdevs[ok]
            okb = sblks[ok]
            data = dec.data_bits[ok]
            silent = s.has_stored[okd, okb] & ~np.all(data == s.stored[okd, okb], axis=1)
            reached = np.ones(r2, dtype=bool)
            if ok.size:
                refreshes, cells, died = self._run_waves(okd, okb, data, t1, clean, c)
                c[_C_REFRESHES] += refreshes
                c[_C_CELL_REFRESH] += cells
                if died.size:
                    # A device that dies mid-scrub reads no later block.
                    last = np.full(self.n_devices, r2)
                    last[okd[died]] = ok[died]
                    reached = np.arange(r2) <= last[sdevs]
            read = sdevs[reached]
            c[_C_READS] += read.size
            c[_C_SENSED] += read.size * self._n_mlc
            np.add.at(s.st_reads, read, 1)
            c[_C_UNCORRECTABLE] += int((dec.uncorrectable & reached).sum())
            hit = reached[ok]
            tec = dec.tec_corrected[ok][hit]
            c[_C_TEC] += int(tec.sum())
            np.add.at(s.st_tec, okd[hit], tec)
            c[_C_SILENT] += int(silent[hit].sum())
        self._epoch += 1
        return c

    # ------------------------------------------------------------------
    # Phase A (shared): traffic + payload draws, per device in order.
    def _draw_epoch_plan(
        self, alive: np.ndarray, c: np.ndarray
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per-device ``(k, blocks, bits)`` demand-write segments.

        Consumes exactly the draws the object engine's phase A consumes:
        the trace slice from the data stream, then one payload per write
        op in trace order (reads are counted, never served).
        """
        cfg = self.config
        n_ops = cfg.ops_per_epoch
        plan: list[tuple[int, np.ndarray, np.ndarray]] = []
        reads_req = 0
        for kk in alive:
            k = int(kk)
            g = self._g_data[k]
            is_write, addr = draw_ops_fast(
                self._workload[k], n_ops, cfg.n_blocks, g, cfg.write_fraction
            )
            w = np.flatnonzero(is_write)
            m = w.size
            reads_req += n_ops - m
            if m == 0:
                continue
            if self._payload_fast[k]:
                bits = draw_payloads(g, m, cfg.data_bits)
            else:
                bits = np.empty((m, cfg.data_bits), dtype=np.uint8)
                for j in range(m):
                    bits[j] = g.integers(0, 2, cfg.data_bits, dtype=np.uint8)
            plan.append((k, addr[w], bits))
        c[_C_READS_REQ] += reads_req
        return plan

    # ------------------------------------------------------------------
    # Phases C and D: block writes as wave steps of program attempts.
    def _run_waves(
        self,
        devs: np.ndarray,
        blks: np.ndarray,
        bits: np.ndarray,
        t_now: float,
        clean: bool,
        c: np.ndarray,
    ) -> tuple[int, int, np.ndarray]:
        """Run a phase's block writes to completion in wave steps.

        Rows are grouped by device, in execution order within each.  All
        are batch-encoded against their blocks' current layouts up front;
        then step ``w`` makes one program attempt for every device with a
        write pending — its next write's first attempt, or a retry of the
        attempt that failed in step ``w - 1``.  A device that runs out of
        spares drops its remaining writes.  Returns ``(writes started,
        cells programmed, rows whose write killed their device)``.
        """
        states, checks = self._batch.encode(bits, self._s.marked[devs, blks])
        stale = np.zeros(self._s.written.shape, dtype=bool)
        q = _WriteQueue(devs, blks, bits, states, checks, stale, t_now)
        starts = np.flatnonzero(np.r_[True, devs[1:] != devs[:-1]])
        ends = np.r_[starts[1:], devs.size]
        pos = starts.copy()
        attempt = np.zeros(starts.size, dtype=np.int64)
        live = np.arange(starts.size)
        writes = cells = 0
        died: list[np.ndarray] = []
        while live.size:
            rows = pos[live]
            att = attempt[live]
            done, dead, n_cells = self._step(q, rows, att, clean, c)
            writes += int(np.count_nonzero(att == 0))
            cells += n_cells
            attempt[live] = np.where(done, 0, att + 1)
            pos[live[done]] += 1
            if dead.any():
                died.append(rows[dead])
                pos[live[dead]] = ends[live[dead]]
            live = live[pos[live] < ends[live]]
        return writes, cells, np.concatenate(died) if died else np.zeros(0, np.int64)

    def _step(
        self,
        q: _WriteQueue,
        rows: np.ndarray,
        att: np.ndarray,
        clean: bool,
        c: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One program attempt for each queue row (at most one per device).

        The body of :meth:`PCMDevice.write_encoded`'s write-and-verify
        loop over all rows at once: encode where the pre-encoded row is
        stale, bump wear, fault newly dead cells, program the healthy
        ones, verify; a failed row marks its first bad pair (or its
        device dies, spares exhausted), forces that pair to the top
        state, and retries next step — unless this was its last attempt.
        ``clean`` (no cell can fail) skips the fault gathers.  Returns
        ``(done, dead, cells programmed)``.
        """
        s = self._s
        devs = q.devs[rows]
        blks = q.blks[rows]
        first = att == 0
        s.st_writes[devs[first]] += 1
        states = q.states[rows]
        checks = q.checks[rows]
        redo = ~first | q.stale[devs, blks]
        if redo.any():
            states[redo], checks[redo] = self._batch.encode(
                q.bits[rows[redo]], s.marked[devs[redo], blks[redo]]
            )

        s.writes_3[devs, blks] += 1
        healthy: np.ndarray | None = None
        if not clean:
            fault = s.fault_3[devs, blks]
            newly = (s.writes_3[devs, blks] >= s.endurance_3[devs, blks]) & (
                fault == _HEALTHY
            )
            if newly.any():
                fault[newly] = s.pending_mode_3[devs, blks][newly]
                s.fault_3[devs, blks] = fault
            healthy = fault == _HEALTHY
            if healthy.all():
                healthy = None
        self._program(devs, blks, states, healthy, q.t_now)
        s.slc[devs, blks] = checks
        n_cells = devs.size * self._n_mlc

        done = np.ones(devs.size, dtype=bool)
        dead = np.zeros(devs.size, dtype=bool)
        if healthy is not None:
            # A stuck-reset cell passes verify iff its target is the top.
            ok = healthy | ((fault == _STUCK_RESET) & (states == self._top))
            f = np.flatnonzero(~ok.all(axis=1))
            if f.size:
                df = devs[f]
                bf = blks[f]
                pair = np.argmin(ok[f], axis=1) // 2  # first bad cell's pair
                s.st_retries[df] += 1
                c[_C_RETRIES] += f.size
                marked = s.marked[df, bf]
                fresh = ~marked[np.arange(f.size), pair]
                full = marked.sum(axis=1) >= self._n_spare_pairs
                new = fresh & ~full
                s.marked[df[new], bf[new], pair[new]] = True
                s.st_marks[df[new]] += 1
                c[_C_MARKS] += int(new.sum())
                q.stale[df[new], bf[new]] = True
                # A mark that finds the spares exhausted kills the device
                # before any force; the last attempt gives up after it.
                force = ~(fresh & full)
                n_cells += self._force_highest(df[force], bf[force], pair[force], q.t_now)
                done[f] = False
                dead[f] = ~force | (att[f] == self._n_spare_pairs)
                if dead.any():
                    self._alive[devs[dead]] = False
                    c[_C_DEATHS] += int(dead.sum())

        d = devs[done]
        b = blks[done]
        s.written[d, b] = True
        s.stored[d, b] = q.bits[rows[done]]
        s.has_stored[d, b] = True
        return done, dead, n_cells

    def _program(
        self,
        devs: np.ndarray,
        blks: np.ndarray,
        states: np.ndarray,
        healthy: np.ndarray | None,
        t_now: float,
    ) -> None:
        """Program one block per device: every cell, or the ``healthy`` ones."""
        s = self._s
        nm = self._n_mlc
        if healthy is not None:
            first = devs * self._cells_per_device + blks * nm
            cells = (first[:, None] + np.arange(nm))[healthy]
            self._program_cells(devs, healthy.sum(axis=1), cells, states[healthy], t_now)
            return
        w = devs.size
        u, z = self._draws(devs, np.full(w, nm))
        zz = z.reshape(w, 2 * nm)
        st = states.astype(np.int64)
        lr0, alpha, esc = self._physics(
            devs[:, None], st, u.reshape(w, nm), zz[:, :nm], zz[:, nm:]
        )
        s.lr0_3[devs, blks] = lr0
        s.alpha_3[devs, blks] = alpha
        s.alpha_esc_3[devs, blks] = esc
        s.t_prog_3[devs, blks] = t_now
        s.target_3[devs, blks] = st
        if self._tprog_uniform:
            self._tprog_row[devs, blks] = t_now

    def _program_cells(
        self,
        devs: np.ndarray,
        counts: np.ndarray,
        cells: np.ndarray,
        states: np.ndarray,
        t_now: float,
    ) -> None:
        """Program ``counts[j]`` cells of device ``devs[j]`` per row.

        ``cells`` are flat indices into the per-cell arrays, row after
        row, ascending within a row (the order the draws are consumed).
        """
        s = self._s
        u, z = self._draws(devs, counts)
        # Row j's normals sit at z[2*o_j : 2*o_j + 2*n_j], exponents first.
        at = np.arange(u.size) + np.repeat(np.cumsum(counts) - counts, counts)
        z_alpha = z[at]
        z_esc = z[at + np.repeat(counts, counts)]
        del z, at  # keep the step's peak memory down: the physics allocates
        st = states.astype(np.int64, copy=False)
        lr0, alpha, esc = self._physics(np.repeat(devs, counts), st, u, z_alpha, z_esc)
        s.lr0.reshape(-1)[cells] = lr0
        s.alpha.reshape(-1)[cells] = alpha
        s.alpha_esc.reshape(-1)[cells] = esc
        s.t_prog.reshape(-1)[cells] = t_now
        s.target.reshape(-1)[cells] = st

    def _draws(
        self, devs: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's :meth:`CellArray.program` draws, from its device.

        Row ``j`` takes ``counts[j]`` uniforms (truncated-normal
        quantiles) and then ``2 * counts[j]`` normals (exponents, then
        escalation; one call when the merged-normals self-check passed),
        so every stream stays aligned with the object engine's.  Rows
        are laid end to end in ``u`` and ``z``.
        """
        n_cells = int(counts.sum())
        u = np.empty(n_cells)
        z = np.empty(2 * n_cells)
        g_dev = self._g_dev
        merged = self._merged_normals
        o = 0
        for k, n in zip(devs.tolist(), counts.tolist()):
            if not n:
                continue
            g = g_dev[k]
            g.random(out=u[o : o + n])
            if merged:
                g.standard_normal(out=z[2 * o : 2 * o + 2 * n])
            else:
                g.standard_normal(out=z[2 * o : 2 * o + n])
                g.standard_normal(out=z[2 * o + n : 2 * o + 2 * n])
            o += n
        return u, z

    def _physics(
        self,
        devs: np.ndarray,
        st: np.ndarray,
        u: np.ndarray,
        z_alpha: np.ndarray,
        z_esc: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Programmed ``(lr0, alpha, alpha_esc)``: CellArray's expressions."""
        z_r = truncated_normal_from_uniform(
            u, 0.0, 1.0, -WRITE_TRUNCATION_SIGMA, WRITE_TRUNCATION_SIGMA
        )
        lr0 = programmed_log_resistance(
            np.take(self._mu_lr, st), np.take(self._sg_lr, st), z_r
        )
        alpha = programmed_alpha(self._mu_a[devs, st], self._sg_a[devs, st], z_alpha)
        esc = independent_escalated_alpha(z_esc, self._mu_esc[devs], self._sg_esc[devs])
        return lr0, alpha, esc

    def _force_highest(
        self, devs: np.ndarray, blks: np.ndarray, pair: np.ndarray, t_now: float
    ) -> int:
        """:meth:`CellArray.force_highest` on one pair per row.

        Stuck-set cells get a revival draw (success: stuck at the top);
        the healthy cells are programmed to the top state, wear and all.
        Returns the number of cells programmed.
        """
        s = self._s
        first = devs * self._cells_per_device + blks * self._n_mlc + 2 * pair
        cells = first[:, None] + np.arange(2)
        fault = s.fault.reshape(-1)
        fc = fault[cells]
        stuck_set = fc == _STUCK_SET
        n_set = stuck_set.sum(axis=1)
        if n_set.any():
            u = np.empty(int(n_set.sum()))
            o = 0
            for k, n in zip(devs.tolist(), n_set.tolist()):
                if n:
                    self._g_dev[k].random(out=u[o : o + n])
                    o += n
            fault[cells[stuck_set][u < self.config.p_revive]] = _STUCK_RESET
        healthy = fc == _HEALTHY
        h = cells[healthy]
        writes = s.writes.reshape(-1)
        writes[h] += 1
        lives = writes[h] < s.endurance.reshape(-1)[h]
        fault[h[~lives]] = s.pending_mode.reshape(-1)[h[~lives]]
        healthy[healthy] = lives
        if lives.any():
            self._program_cells(
                devs,
                healthy.sum(axis=1),
                cells[healthy],
                np.full(int(lives.sum()), self._top),
                t_now,
            )
        return int(h.size)

    def _sense_rows(
        self, sdevs: np.ndarray, sblks: np.ndarray, t_now: float
    ) -> np.ndarray:
        """Fused drift + threshold for many ``(device, block)`` rows.

        Row-uniform program times (every block so far programmed in one
        shot) let the log-time factor collapse to one value per row;
        once an epoch could fail, partial programs exist and the
        per-cell times and fault pinning take over.  Either way this is
        the same arithmetic :meth:`CellArray.log_resistance` runs per
        block.
        """
        s = self._s
        if self._tprog_uniform:
            dt = np.maximum(t_now - self._tprog_row[sdevs, sblks], 0.0) + T0_SECONDS
            ell: np.ndarray = np.log10(dt / T0_SECONDS)[:, None]
        else:
            dt = np.maximum(t_now - s.t_prog_3[sdevs, sblks], 0.0) + T0_SECONDS
            ell = np.log10(dt / T0_SECONDS)
        lr = drifted_log_resistance(
            s.lr0_3[sdevs, sblks],
            s.alpha_3[sdevs, sblks],
            s.alpha_esc_3[sdevs, sblks],
            ell,
            self._lr_break,
        )
        if not self._tprog_uniform:
            fault = s.fault_3[sdevs, sblks]
            lr = np.where(fault == _STUCK_RESET, self._top_lr, lr)
            lr = np.where(fault == _STUCK_SET, self._bot_lr, lr)
        return np.searchsorted(self._thresholds, lr, side="right")
