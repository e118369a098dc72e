"""Service saturation curve: achieved throughput against offered load.

Starts one ``repro serve`` process through perfbench's harness
(``perfbench/service_bench.py``: its devices, engine warm-up and
SIGTERM drain) and drives it from this process with perfbench's seeded
open-loop generator (``perfbench/loadgen.py``), through a fixed ladder
of offered rates climbed in order on the same server.  Every block's
history carries across rungs.  Emits ``results/BENCH_service.json``:
per rung the offered and achieved rate, write/read p50/p99 timed from
each request's due time, the fail share, the generator's lag and
backlog, server and generator CPU seconds and the mean batch; then the peak achieved
rate, whether the top rung saturated, and provenance.

Correctness is gated, never speed: every request succeeds; a twin
:class:`~repro.service.device.VirtualDevice` per device replays the
whole history one op at a time and must read back every payload and end
at the server's ``state_digest``; ``/metrics`` accounts for every block
op exactly once; and the server drains to exit 0 on SIGTERM.

Run from the repository root::

    PYTHONPATH=src:perfbench python -m pytest -q -s benchmarks/test_perf_service.py
"""

import asyncio
import random
import time

import service_bench
from loadgen import VIRTUAL_SECONDS_PER_S, build_schedule, run_schedule
from run import hermetic_env
from service_bench import Server, latency_stats, twin_check

from _report import emit_json, provenance

SEED = 1
#: Keep-alive connections.  Each carries one request at a time, so with
#: fewer of them the generator, not the server, would set the ceiling.
N_CONN = 8
#: Offered rates (req/s), climbed in order.  The knee has been measured
#: at 1.2-2.2k req/s on 2 cores, so the top rung offers well past 2.5x it.
RUNGS_RPS = (250.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0)
RUNG_S = 2.0
#: Block ops ``Server.start`` sends to warm the engine: a write, a read.
WARMUP_OPS = 2


def _batches_and_ops(batching: dict) -> tuple[int, int]:
    hist = batching["batch_size_hist"]
    return sum(hist.values()), sum(int(size) * n for size, n in hist.items())


def _rung(server: Server, rate: float, schedule: list) -> dict:
    batches0, ops0 = _batches_and_ops(server.get("/metrics")["batching"])
    cpu0, gen0 = server.cpu_s(), time.process_time()
    outcomes = asyncio.run(
        run_schedule("127.0.0.1", server.port, schedule, server.device_ids, N_CONN)
    )
    cpu_s, gen_s = server.cpu_s() - cpu0, time.process_time() - gen0
    batches1, ops1 = _batches_and_ops(server.get("/metrics")["batching"])
    ok = sum(o.ok for o in outcomes)
    span = max(o.request.due + o.latency_s for o in outcomes) - min(
        o.request.due for o in outcomes
    )
    return {
        "offered_rps": rate,
        "achieved_rps": ok / span,
        "span_s": span,
        "requests": len(outcomes),
        "failed": len(outcomes) - ok,
        "fail_share": (len(outcomes) - ok) / len(outcomes),
        **latency_stats(outcomes),
        "server_cpu_s": cpu_s,
        "generator_cpu_s": gen_s,
        "batch_size_mean": (ops1 - ops0) / (batches1 - batches0),
    }


def test_service_saturation_curve():
    rng = random.Random(SEED)
    written: dict = {}
    sent: list = []
    rungs = []
    server = Server(hermetic_env())
    try:
        server.start(SEED)
        for i, rate in enumerate(RUNGS_RPS):
            schedule = build_schedule(
                rng, rate=rate, duration_s=RUNG_S, n_conn=N_CONN,
                n_devices=service_bench.N_DEVICES, n_blocks=service_bench.N_BLOCKS,
                data_bits=service_bench.DATA_BITS,
                t_offset=i * (RUNG_S + 1.0) * VIRTUAL_SECONDS_PER_S, written=written,
            )
            sent += schedule
            rungs.append(_rung(server, rate, schedule))
        digests = server.digests()
        batching = server.get("/metrics")["batching"]
        server.stop()  # raises unless the SIGTERM drain exits 0
    finally:
        server.kill()
    checks, twin_failed = twin_check(SEED, sent, digests)
    _, executed = _batches_and_ops(batching)
    peak = max(r["achieved_rps"] for r in rungs)
    top = rungs[-1]

    emit_json(
        "BENCH_service",
        {
            **provenance(),
            "params": {
                "seed": SEED, "connections": N_CONN, "rung_s": RUNG_S,
                "devices": service_bench.N_DEVICES,
                "blocks_per_device": service_bench.N_BLOCKS,
                "data_bits": service_bench.DATA_BITS, "write_share": 0.5,
            },
            "rungs": rungs,
            "peak_achieved_rps": peak,
            "saturated": top["achieved_rps"] < 0.9 * top["offered_rps"],
            "twin_check": {"checks": checks, "failed": twin_failed},
            "batching": batching,
        },
    )
    # The service exists to serve correct data: zero tolerance here.
    assert [r["failed"] for r in rungs] == [0] * len(rungs)
    assert twin_failed == 0
    # Exact accounting: every block op was queued once and executed once.
    assert batching["rejected"] == 0
    assert batching["submitted"] == executed == len(sent) + WARMUP_OPS
