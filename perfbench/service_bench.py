"""The ``service_mixed`` workload: ``repro serve`` under open-loop load.

The server runs in its own process at its default batch settings.  The
load generator (:mod:`loadgen`) runs here, so the two never share a
GIL.  After each server's run, every device's ``state_digest`` is
compared with a twin :class:`~repro.service.device.VirtualDevice` that
replays the same operations one at a time through ``execute_batch``:
service draws are keyed per (block, write epoch), so neither batching
nor interleaving across connections may change the state.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

import layers
import loadgen
from tracer import Tracer, percentile

#: Keep-alive connections of the generator (at most ``nproc``).
N_CONN = max(1, min(2, os.cpu_count() or 1))
N_DEVICES = 4
N_BLOCKS = 16
DATA_BITS = 512
#: Offered rate of the latency phase, about half the closed-loop
#: capacity of two connections at the default 2 ms batch deadline.
FIXED_RATE = 250.0
#: Offered-rate ladder for ``max_ok_rps`` (req/s), climbed in order.
LADDER = (50.0, 100.0, 200.0, 300.0, 400.0, 500.0)
RUNG_S = 1.5
#: ``max_ok_rps`` limits: p99 of each operation, and generator backlog.
P99_LIMIT_MS = 10.0
BACKLOG_LIMIT_MS = 5.0
SETUP_REPEATS = 5
#: Length of each fixed-rate phase of the traced run: a constant, so the
#: traced run's counts depend on the seed alone.
TRACE_PHASE_S = 10.0

SERVE_ARGS = ["serve", "--host", "127.0.0.1", "--port", "0",
              "--work-dir", os.path.join(".perfbench", "serve-work")]
#: Workload parameters, recorded with every result.
PARAMS = {
    "serve_args": SERVE_ARGS, "connections": N_CONN, "devices": N_DEVICES,
    "blocks_per_device": N_BLOCKS, "data_bits": DATA_BITS, "write_share": 0.5,
    "fixed_rate_rps": FIXED_RATE, "ladder_rps": LADDER, "rung_s": RUNG_S,
    "trace_phase_s": TRACE_PHASE_S, "virtual_s_per_s": loadgen.VIRTUAL_SECONDS_PER_S,
}


def _device_seed(seed: int, i: int) -> int:
    return seed * 100 + i


class Server:
    """One ``repro serve`` process with the benchmark's devices created."""

    def __init__(self, env: dict[str, str], spans_path: str | None = None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *SERVE_ARGS]
        else:
            cmd = [sys.executable, os.path.join("perfbench", "serve.py"),
                   spans_path, *SERVE_ARGS]
        self.cmd = cmd
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.device_ids: list[str] = []
        self.setup_s = 0.0

    def start(self, seed: int) -> None:
        """Spawn, create the devices, warm up; times spawn to ``/healthz``."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stderr], [], [], 120.0)
        line = self.proc.stderr.readline() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        asyncio.run(self._provision(seed))
        self.setup_s = time.perf_counter() - t0

    async def _provision(self, seed: int) -> None:
        async def expect(want: int, method: str, path: str, body: dict | None = None) -> dict:
            status, payload = await self.call(method, path, body)
            if status != want:
                raise RuntimeError(f"{method} {path}: HTTP {status}: {payload!r}")
            return payload

        self.device_ids = []
        for i in range(N_DEVICES):
            body = {"n_blocks": N_BLOCKS, "seed": _device_seed(seed, i)}
            created = await expect(201, "POST", "/v1/devices", body)
            self.device_ids.append(created["device"]["id"])
        # A throwaway device pays the engine's first-use costs.
        created = await expect(201, "POST", "/v1/devices", {"n_blocks": 1, "seed": 1})
        warm = f"/v1/devices/{created['device']['id']}"
        await expect(200, "POST", f"{warm}/blocks/0/write", {"data": "a5" * (DATA_BITS // 8)})
        await expect(200, "POST", f"{warm}/blocks/0/read", {})
        await expect(200, "DELETE", warm)
        await expect(200, "GET", "/healthz")

    async def call(self, method: str, path: str, body: dict | None = None):
        return await loadgen.http_call("127.0.0.1", self.port, method, path, body)

    def run(self, schedule: list[loadgen.Request]) -> tuple[list[loadgen.Outcome], float, float, float]:
        """Send a schedule; returns outcomes, server CPU s, window start, end."""
        cpu0 = self.cpu_s()
        t0 = time.perf_counter()
        outcomes = asyncio.run(
            loadgen.run_schedule("127.0.0.1", self.port, schedule, self.device_ids, N_CONN)
        )
        t1 = time.perf_counter()
        return outcomes, self.cpu_s() - cpu0, t0, t1

    def get(self, path: str) -> dict:
        status, body = asyncio.run(self.call("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}: {body!r}")
        return body

    def digests(self) -> list[str]:
        return [self.get(f"/v1/devices/{dev}/digest")["digest"] for dev in self.device_ids]

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as fh:
            return fh.read()

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server, all threads."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def stop(self) -> None:
        """SIGTERM, wait for the drain; the server must exit 0."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not drain within 60 s")
        finally:
            self.proc.stderr.close()
        if code != 0:
            raise RuntimeError(f"server exited with {code}")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stderr.close()


class History:
    """Seeded schedules for one server, continuing each block's history."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.written: dict[tuple[int, int], str] = {}
        self.sent: list[loadgen.Request] = []
        self.vt = 0.0

    def schedule(self, rate: float, duration_s: float) -> list[loadgen.Request]:
        reqs = loadgen.build_schedule(
            self.rng, rate=rate, duration_s=duration_s, n_conn=N_CONN,
            n_devices=N_DEVICES, n_blocks=N_BLOCKS, data_bits=DATA_BITS,
            t_offset=self.vt, written=self.written,
        )
        self.vt += (duration_s + 1.0) * loadgen.VIRTUAL_SECONDS_PER_S
        self.sent += reqs
        return reqs


def twin_check(seed: int, sent: list[loadgen.Request], digests: list[str]) -> tuple[int, int]:
    """Replay ``sent`` on twin devices; returns (checks, failures)."""
    from repro.service.batching import IoOp, execute_batch
    from repro.service.device import VirtualDevice
    from repro.service.wire import hex_to_bits

    twins = [VirtualDevice(f"twin-{i}", _device_seed(seed, i), N_BLOCKS, data_bits=DATA_BITS)
             for i in range(N_DEVICES)]
    failed = 0
    for req in sent:
        bits = hex_to_bits(req.data, DATA_BITS) if req.kind == "write" else None
        (result,) = execute_batch([IoOp(req.kind, twins[req.device], req.block, req.vt, bits=bits)])
        if req.kind == "read" and result.get("data") != req.data:
            failed += 1
    failed += sum(t.state_digest() != d for t, d in zip(twins, digests))
    return len(sent) + len(twins), failed


def latency_stats(outcomes: list[loadgen.Outcome]) -> dict[str, float]:
    out: dict[str, float] = {}
    for kind in ("write", "read"):
        lat = [1e3 * o.latency_s for o in outcomes if o.request.kind == kind]
        out[f"{kind}_p50_ms"] = percentile(lat, 50)
        out[f"{kind}_p99_ms"] = percentile(lat, 99)
        out[f"{kind}_samples"] = len(lat)
    lags = [1e3 * o.lag_s for o in outcomes]
    out["lag_p99_ms"] = percentile(lags, 99)
    tail = lags[len(lags) * 3 // 4:]
    out["backlog_ms"] = statistics.median(tail) if tail else 0.0
    return out


def _fail_count(outcomes: list[loadgen.Outcome]) -> int:
    return sum(not o.ok for o in outcomes)


def run_e2e(seed: int, seconds: float, env: dict[str, str]) -> dict:
    """Untraced run: set-up time, then the fixed-rate latency phase."""
    setups = []
    server = None
    try:
        for i in range(SETUP_REPEATS):
            server = Server(env)
            server.start(seed)
            setups.append(server.setup_s)
            if i < SETUP_REPEATS - 1:
                server.stop()
        history = History(seed)
        outcomes, cpu_s, _, _ = server.run(history.schedule(FIXED_RATE, seconds))
        digests = server.digests()
        rss = server.peak_rss_mb()
        server.stop()
    finally:
        if server is not None:
            server.kill()
    checks, twin_failed = twin_check(seed, history.sent, digests)
    ok = [o for o in outcomes if o.ok]
    stats = latency_stats(outcomes)
    return {
        "params": PARAMS,
        "attempted": len(outcomes) + checks,
        "failed": _fail_count(outcomes) + twin_failed,
        "setup_s": setups,
        "peak_rss_mb": rss,
        "p50_ms": percentile([1e3 * o.latency_s for o in outcomes], 50),
        "units_per_s": len(ok) / cpu_s,
        "requests": len(outcomes),
        "server_cpu_s": cpu_s,
        "latency": stats,
    }


def run_traced(seed: int, env: dict[str, str]) -> dict:
    """Untraced reference, the offered-rate ladder, then a traced server."""
    os.makedirs(".perfbench", exist_ok=True)
    spans_path = os.path.join(".perfbench", f"spans-service_mixed-{seed}.json")
    attempted = failed = 0
    servers: list[Server] = []
    try:
        plain = Server(env)
        servers.append(plain)
        plain.start(seed)
        history = History(seed)
        schedule = history.schedule(FIXED_RATE, TRACE_PHASE_S)
        ref, ref_cpu, _, _ = plain.run(schedule)
        ref_digests = plain.digests()
        batching = plain.get("/metrics")["batching"]
        max_ok = 0.0
        for rate in LADDER:
            rung, _, _, _ = plain.run(history.schedule(rate, RUNG_S))
            attempted += len(rung)
            failed += _fail_count(rung)
            s = latency_stats(rung)
            if (_fail_count(rung) or max(s["write_p99_ms"], s["read_p99_ms"]) > P99_LIMIT_MS
                    or s["backlog_ms"] > BACKLOG_LIMIT_MS):
                break
            max_ok = rate
        final_digests = plain.digests()
        plain.stop()

        traced = Server(env, spans_path)
        servers.append(traced)
        traced.start(seed)
        outcomes, cpu_s, lo, hi = traced.run(schedule)
        traced_digests = traced.digests()
        traced.stop()
    finally:
        for server in servers:
            server.kill()

    checks, twin_failed = twin_check(seed, history.sent, final_digests)
    attempted += len(ref) + len(outcomes) + checks + N_DEVICES
    failed += _fail_count(ref) + _fail_count(outcomes) + twin_failed
    failed += sum(a != b for a, b in zip(ref_digests, traced_digests))

    tracer = Tracer.load(spans_path).window(lo, hi)
    metrics = layers.common_metrics(tracer)
    ref_stats = latency_stats(ref)
    traced_stats = latency_stats(outcomes)
    engine_ms = metrics["service.engine_p50_ms"]
    for kind in ("write", "read"):
        waits = [1e3 * (s[3] - s[2]) for s in tracer.spans
                 if s[1] == f"service.queue_wait.{kind}"]
        metrics[f"service.{kind}.queue_wait_p50_ms"] = percentile(waits, 50)
        metrics[f"service.{kind}.queue_wait_p99_ms"] = percentile(waits, 99)
        metrics[f"service.{kind}.front_ms"] = (
            traced_stats[f"{kind}_p50_ms"] - percentile(waits, 50) - engine_ms
        )
        for q in ("p50", "p99"):
            metrics[f"{kind}_{q}_ms"] = ref_stats[f"{kind}_{q}_ms"]
        metrics[f"{kind}_samples"] = ref_stats[f"{kind}_samples"]
    hist = batching["batch_size_hist"]
    n_batches = sum(hist.values())
    metrics["service.batch_size_mean"] = sum(int(k) * v for k, v in hist.items()) / n_batches
    metrics["service.deadline_flush_share"] = batching["flushes"]["deadline"] / n_batches
    metrics["max_ok_rps"] = max_ok
    metrics["loadgen.lag_p99_ms"] = ref_stats["lag_p99_ms"]
    metrics["trace.overhead"] = cpu_s / ref_cpu
    loop_tid = next(s[5] for s in tracer.spans if s[1] == "service.loop.idle")
    metrics["trace.uncovered_share"] = 1.0 - tracer.covered(lo, hi, loop_tid) / (hi - lo)
    return {
        "params": PARAMS,
        "attempted": attempted,
        "failed": failed,
        "layers": metrics,
        "latency": ref_stats,
        "requests": len(ref),
    }
