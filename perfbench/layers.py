"""Which bindings each layer's spans wrap, and the per-layer metrics.

Each ``install_*`` function wraps a binding exactly where its caller
looks it up: module attributes of the calling module, or methods on
the class.  ``repro.montecarlo.cer`` is wrapped as a module because
the executor imports ``sample_state_cells`` and ``critical_log_times``
from it at call time.
"""

from __future__ import annotations

import asyncio.events
import selectors

from tracer import Tracer, percentile


def _rows(args: tuple) -> int:
    return len(args[1])


def _install_codec(tracer: Tracer) -> None:
    from repro.coding.batch import BatchThreeOnTwoCodec

    tracer.wrap(BatchThreeOnTwoCodec, "encode", "coding.encode",
                count=("coding.encode_rows", _rows))
    tracer.wrap(BatchThreeOnTwoCodec, "decode", "coding.decode",
                count=("coding.decode_rows", _rows))


def install_fleet(tracer: Tracer) -> None:
    """Fleet path: ``fleet_mc`` down to the cell physics of the SoA engine."""
    import repro.fleet.mc as mc
    import repro.fleet.soa as soa
    from repro.wearout.mark_and_spare import MarkAndSpareBlock

    tracer.wrap(mc, "fleet_mc", "fleet.mc")
    tracer.wrap(mc, "FleetEngine", "fleet.engine.build")
    tracer.wrap(soa.SoaFleetEngine, "advance", "fleet.soa")
    tracer.wrap(soa, "draw_payloads", "fleet.fastrng.payload")
    tracer.wrap(soa, "draw_ops_fast", "workloads.draw_ops")
    for attr in (
        "truncated_normal",
        "truncated_normal_from_uniform",
        "programmed_log_resistance",
        "programmed_alpha",
        "independent_escalated_alpha",
    ):
        tracer.wrap(soa, attr, "cells.program")
    tracer.wrap(soa, "drifted_log_resistance", "cells.drift")
    tracer.wrap(MarkAndSpareBlock, "mark", "wearout.mark")
    _install_codec(tracer)


def install_mc(tracer: Tracer) -> None:
    """Monte Carlo path: ``design_cer`` and ``bler_mc`` with their kernels."""
    import repro.montecarlo.bler_mc as bler
    import repro.montecarlo.cer as cer
    import repro.montecarlo.executor as executor

    tracer.wrap(cer, "design_cer", "montecarlo.design_cer")
    tracer.wrap(cer, "run_counts", "montecarlo.reduce")
    tracer.wrap(cer, "sample_state_cells", "montecarlo.sample",
                count=("montecarlo.cells_sampled", lambda args: args[1]))
    tracer.wrap(cer, "critical_log_times", "montecarlo.critical")
    tracer.wrap(executor, "block_rng", "montecarlo.rng")
    tracer.wrap(bler, "block_rng", "montecarlo.rng")
    tracer.wrap(bler, "bler_mc", "montecarlo.bler")
    _install_codec(tracer)


def install_service(tracer: Tracer) -> None:
    """Server process: event loop, batching queue, engine, device, wire."""
    import repro.service.app as app
    import repro.service.batching as batching
    from repro.service.device import VirtualDevice

    # The loop's thread is either waiting in select or running a callback.
    select_owner = next(
        c for c in selectors.DefaultSelector.__mro__ if "select" in c.__dict__
    )
    tracer.wrap(select_owner, "select", "service.loop.idle")
    tracer.wrap(asyncio.events.Handle, "_run", "service.loop.busy")

    submitted: dict[int, float] = {}

    def on_submit(args, result, end):
        submitted[id(args[1])] = end

    def on_take(args, result, end):
        for op in result:
            start = submitted.pop(id(op), None)
            if start is not None:
                tracer.add_span(f"service.queue_wait.{op.kind}", start, end, key=id(op))

    tracer.wrap(batching.BatchQueue, "submit", "service.queue.submit",
                key=lambda a: id(a[1]), after=on_submit)
    tracer.wrap(batching.BatchQueue, "take", "service.queue.take", after=on_take)
    tracer.wrap(batching, "execute_batch", "service.engine",
                key=lambda a: [id(op) for op in a[0]])
    tracer.wrap(VirtualDevice, "write_block", "service.device.write")
    tracer.wrap(VirtualDevice, "sense_rows", "service.device.sense")
    tracer.wrap(app, "hex_to_bits", "service.wire")
    tracer.wrap(batching, "bits_to_hex", "service.wire")
    _install_codec(tracer)


def common_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics every workload reports (zero where a layer is unused)."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts()
    return {
        "fleet.soa.self_s": self_s.get("fleet.soa", 0.0),
        "fleet.engine.build_s": self_s.get("fleet.engine.build", 0.0),
        "fleet.engine.build_calls": calls["fleet.engine.build"],
        "fleet.fastrng.payload_s": self_s.get("fleet.fastrng.payload", 0.0),
        "workloads.draw_ops_s": self_s.get("workloads.draw_ops", 0.0),
        "workloads.draw_ops_calls": calls["workloads.draw_ops"],
        "cells.program_s": self_s.get("cells.program", 0.0),
        "cells.program_calls": calls["cells.program"],
        "cells.drift_s": self_s.get("cells.drift", 0.0),
        "wearout.mark_s": self_s.get("wearout.mark", 0.0),
        "wearout.mark_calls": calls["wearout.mark"],
        "coding.encode_s": self_s.get("coding.encode", 0.0),
        "coding.encode_rows": counts["coding.encode_rows"],
        "coding.decode_s": self_s.get("coding.decode", 0.0),
        "coding.decode_rows": counts["coding.decode_rows"],
        "montecarlo.sample_s": self_s.get("montecarlo.sample", 0.0),
        "montecarlo.cells_sampled": counts["montecarlo.cells_sampled"],
        "montecarlo.critical_s": self_s.get("montecarlo.critical", 0.0),
        "montecarlo.reduce_s": self_s.get("montecarlo.reduce", 0.0),
        "montecarlo.rng_s": self_s.get("montecarlo.rng", 0.0),
        "montecarlo.rng_calls": calls["montecarlo.rng"],
        "montecarlo.bler_self_s": self_s.get("montecarlo.bler", 0.0),
        "service.engine_p50_ms": 1e3 * percentile(tracer.durations("service.engine"), 50),
        "service.device.write_s": self_s.get("service.device.write", 0.0),
        "service.device.write_calls": calls["service.device.write"],
        "service.device.sense_s": self_s.get("service.device.sense", 0.0),
        "service.wire_s": self_s.get("service.wire", 0.0),
        "service.loop.busy_s": self_s.get("service.loop.busy", 0.0),
        "service.loop.idle_s": self_s.get("service.loop.idle", 0.0),
    }
