"""Sequential single-device reference for the fleet suites.

``drive_single`` replays one fleet device's epochs on a plain
:class:`~repro.core.device.PCMDevice`, using only the public
single-device API (``write``/``read``) — never the batch codec or any
fleet internals.  ``assert_matches_reference`` holds a whole fleet
engine to it, device by device.
"""

import numpy as np

from repro.core.device import PCMDevice, SpareExhausted, UncorrectableBlock
from repro.fleet import FLEET_SPAWN_KEY, N_COUNTERS, counter_index, device_params
from repro.fleet.config import KEY_DATA, KEY_DEVICE
from repro.montecarlo.rng import block_rng
from repro.workloads.synthetic import draw_ops


def drive_single(config, entropy, index, n_epochs=None):
    """Run fleet device ``index`` alone; returns ``(device, counts, alive)``.

    Reproduces the fleet's epoch schedule (demand writes at ``t0``, a
    scrub read + refresh of every written block at ``t1``).  ``counts``
    is the device's ``(n_epochs, N_COUNTERS)`` matrix, so a population's
    reference counts are the sum over its devices.
    """
    n_epochs = config.n_epochs if n_epochs is None else n_epochs
    p = device_params(config, entropy, index)
    dev = PCMDevice(
        n_blocks=config.n_blocks,
        cell_kind="3LC",
        design=p.design,
        seed=block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DEVICE, index)),
        wearout=p.wearout,
        schedule=p.schedule,
        data_bits=config.data_bits,
    )
    g = block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DATA, index))
    counts = np.zeros((n_epochs, N_COUNTERS), dtype=np.int64)
    stored = {}
    alive = True

    def add(row, name, n=1):
        row[counter_index(name)] += n

    for e in range(n_epochs):
        if not alive:
            break
        row = counts[e]
        s0 = dict(vars(dev.stats))
        t0 = e * config.epoch_seconds
        t1 = t0 + config.epoch_seconds
        is_write, addr = draw_ops(
            p.workload,
            config.ops_per_epoch,
            config.n_blocks,
            seed=g,
            write_fraction=config.write_fraction,
        )
        ops = []
        for w, b in zip(is_write, addr):
            if w:
                ops.append((int(b), g.integers(0, 2, config.data_bits, dtype=np.uint8)))
            else:
                add(row, "reads_requested")
        cells0 = dev.array.total_writes()
        for b, bits in ops:
            try:
                dev.write(b, bits, t0)
            except SpareExhausted:
                alive = False
                break
            stored[b] = bits.copy()
        add(row, "writes", dev.stats.writes - s0["writes"])
        add(row, "cell_programs_write", dev.array.total_writes() - cells0)
        cells0 = dev.array.total_writes()
        writes0 = dev.stats.writes
        reads0 = dev.stats.reads
        if alive:
            for b in np.nonzero(dev.written_mask())[0]:
                b = int(b)
                try:
                    out = dev.read(b, t1)
                except UncorrectableBlock:
                    add(row, "uncorrectable")
                    continue
                data = out.data_bits
                if not np.array_equal(data, stored[b]):
                    add(row, "silent")
                try:
                    dev.write(b, data, t1)
                except SpareExhausted:
                    alive = False
                    break
                stored[b] = data.copy()
        add(row, "refreshes", dev.stats.writes - writes0)
        add(row, "cell_programs_refresh", dev.array.total_writes() - cells0)
        add(row, "reads", dev.stats.reads - reads0)
        add(row, "cells_sensed", (dev.stats.reads - reads0) * dev.cells_per_block)
        add(row, "tec_corrections", dev.stats.tec_corrections - s0["tec_corrections"])
        add(row, "wearout_marks", dev.stats.wearout_marks - s0["wearout_marks"])
        add(row, "write_retries", dev.stats.write_retries - s0["write_retries"])
        add(row, "deaths", int(not alive))
    return dev, counts, alive


def assert_matches_reference(engine, config, entropy, counts):
    """``engine`` ran ``counts``' epochs exactly as its devices run alone.

    Every device's state digest, stats and survival equal the sequential
    reference's, and the population's per-epoch counts are the sum of
    the devices' reference counts.
    """
    want = np.zeros_like(counts)
    for k in range(engine.n_devices):
        index = engine.first_device + k
        dev, ref_counts, alive = drive_single(config, entropy, index, len(counts))
        assert engine.device(index).state_digest() == dev.state_digest(), index
        assert engine.device(index).stats == dev.stats, index
        assert bool(engine.alive_mask()[k]) == alive, index
        want += ref_counts
    assert (counts == want).all()
