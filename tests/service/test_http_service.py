"""End-to-end HTTP tests against an in-process server.

One module-scoped server handles the read-only walk; mutating tests and
tests needing special configs (tiny queues, held batchers) boot their
own.  The differential class is the service-level acceptance check: the
HTTP responses and the final state digest must be bit-identical to a
twin :class:`VirtualDevice` driven directly through the batch kernels.
"""

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.service.app import ServiceConfig, ServiceRunner
from repro.service.batching import IoOp, execute_batch
from repro.service.client import ServiceClient, ServiceResponseError
from repro.service.codes import CODES
from repro.service.device import VirtualDevice
from repro.service.jobs import JobManager
from repro.service.wire import bits_to_hex


def _payload_hex(seed: int, n_bits: int = 512) -> str:
    bits = np.random.default_rng(seed).integers(0, 2, size=n_bits, dtype=np.uint8)
    return bits_to_hex(bits)


@pytest.fixture(scope="module")
def server():
    runner = ServiceRunner(ServiceConfig(port=0))
    runner.start()
    yield runner
    runner.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(server.base_url) as c:
        yield c


class TestMetaEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"code": "OK", "status": "healthy"}

    def test_codes_catalog_is_published(self, client):
        published = {c["name"]: c for c in client.codes()["codes"]}
        assert published.keys() == CODES.keys()
        assert published["E_QUEUE_FULL"]["http_status"] == 503

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "E_NOT_FOUND"

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.request("DELETE", "/healthz")
        assert excinfo.value.code == "E_METHOD"

    def test_bad_json_400(self, server):
        import http.client as hc
        import json

        host, port = server.address
        conn = hc.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/devices", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert payload["code"] == "E_BAD_REQUEST"
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "head, status",
        [
            ("Content-Length: abc", 400),
            ("Content-Length: -1", 400),
            ("Content-Length: 2000000", 413),
            ("Transfer-Encoding: chunked", 400),
            ("Content-Length: 5\r\nTransfer-Encoding: chunked", 400),
        ],
    )
    def test_refused_body_closes_the_connection(self, server, head, status):
        # The refused body stays unread, so its bytes (here a smuggled
        # GET) must never be answered as a request of their own.
        import socket

        smuggled = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        raw = f"POST /v1/devices HTTP/1.1\r\nHost: t\r\n{head}\r\n\r\n".encode()
        received = b""
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(raw + smuggled)
            while chunk := sock.recv(65536):  # until EOF: the server must close
                received += chunk
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close\r\n" in received
        code = "E_PAYLOAD_TOO_LARGE" if status == 413 else "E_BAD_REQUEST"
        assert code.encode() in received

    def test_metrics_labels_stay_bounded(self, server):
        # Hostile traffic: distinct 404 paths, bad JSON and oversized
        # bodies on a templated path.  Each label owns a latency
        # reservoir, so labels must come from the route table (plus one
        # for unrouted requests), never from raw paths.
        import http.client as hc

        from repro.service.http import MAX_BODY_BYTES, UNROUTED

        host, port = server.address
        conn = hc.HTTPConnection(host, port, timeout=10)
        try:
            for i in range(500):
                conn.request("GET", f"/v1/nope-{i}/x")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 404
            for i in range(50):
                conn.request("POST", f"/v1/devices/dev-{i}/blocks/{i}/write",
                             body=b"{not json",
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 400
            for i in range(20):  # headers only: the body is refused unread
                conn.putrequest("POST", f"/v1/devices/big-{i}/blocks/{i}/write")
                conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
                conn.endheaders()
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 413
        finally:
            conn.close()
        with ServiceClient(server.base_url) as c:
            endpoints = c.metrics()["http"]["endpoints"]
        assert len(endpoints) <= len(server.app.server.router._routes) + 1
        assert endpoints[UNROUTED]["count"] >= 500
        write = endpoints["POST /v1/devices/{device_id}/blocks/{block}/write"]
        assert write["errors"] >= 70

    def test_metrics_shape(self, client):
        client.healthz()
        m = client.metrics()
        assert "GET /healthz" in m["http"]["endpoints"]
        health = m["http"]["endpoints"]["GET /healthz"]
        assert health["count"] >= 1
        assert "p50_ms" in health
        assert "batch_size_hist" in m["batching"]


class TestDeviceLifecycle:
    def test_create_describe_delete(self, client):
        created = client.create_device(n_blocks=4, seed=7)
        dev = created["device"]
        assert created["code"] == "CREATED"
        assert dev["seed"] == 7
        assert dev["n_blocks"] == 4

        described = client.describe_device(dev["id"])["device"]
        assert described == dev

        ids = [d["id"] for d in client.list_devices()["devices"]]
        assert dev["id"] in ids

        client.delete_device(dev["id"])
        with pytest.raises(ServiceResponseError) as excinfo:
            client.describe_device(dev["id"])
        assert excinfo.value.code == "E_DEVICE_NOT_FOUND"

    def test_create_validation(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.create_device(n_blocks=0)
        assert excinfo.value.code == "E_BAD_REQUEST"
        with pytest.raises(ServiceResponseError):
            client.create_device(n_blocks="many")
        with pytest.raises(ServiceResponseError):
            client.create_device(wearout={"bogus_field": 1.0})

    def test_derived_seeds_are_distinct(self, client):
        a = client.create_device(n_blocks=2)["device"]
        b = client.create_device(n_blocks=2)["device"]
        try:
            assert a["seed"] != b["seed"]
        finally:
            client.delete_device(a["id"])
            client.delete_device(b["id"])


class TestBlockIo:
    def test_write_read_roundtrip(self, client):
        dev = client.create_device(n_blocks=4, seed=3)["device"]
        try:
            data = _payload_hex(1)
            w = client.write_block(dev["id"], 0, data)
            assert w["code"] == "OK"
            assert w["epoch"] == 0
            r = client.read_block(dev["id"], 0)
            assert r["code"] == "OK"
            assert r["data"] == data
        finally:
            client.delete_device(dev["id"])

    def test_error_codes(self, client):
        dev = client.create_device(n_blocks=2, seed=3)["device"]
        try:
            with pytest.raises(ServiceResponseError) as excinfo:
                client.read_block(dev["id"], 0)
            assert excinfo.value.status == 409
            assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"

            with pytest.raises(ServiceResponseError) as excinfo:
                client.write_block(dev["id"], 9, _payload_hex(0))
            assert excinfo.value.code == "E_BLOCK_RANGE"

            with pytest.raises(ServiceResponseError) as excinfo:
                client.write_block(dev["id"], 0, "zz" * 64)
            assert excinfo.value.code == "E_BAD_REQUEST"

            with pytest.raises(ServiceResponseError) as excinfo:
                client.write_block(dev["id"], 0, "ab")  # wrong length
            assert excinfo.value.code == "E_BAD_REQUEST"
        finally:
            client.delete_device(dev["id"])

    def test_virtual_clock_over_http(self, client):
        dev = client.create_device(n_blocks=2, seed=5)["device"]
        try:
            data = _payload_hex(2)
            client.write_block(dev["id"], 0, data, t=0.0)
            out = client.advance_clock(dev["id"], advance=3.15e7)  # ~a year
            assert out["virtual_time"] == pytest.approx(3.15e7)
            r = client.read_block(dev["id"], 0)
            assert r["data"] == data
            assert r["t"] == pytest.approx(3.15e7)
            # reads in the past are now rejected
            with pytest.raises(ServiceResponseError) as excinfo:
                client.read_block(dev["id"], 0, t=1.0)
            assert excinfo.value.code == "E_TIME_REGRESSION"
        finally:
            client.delete_device(dev["id"])

    def test_spare_exhaustion_507(self, client):
        dev = client.create_device(
            n_blocks=1,
            seed=31,
            wearout={
                "mean_endurance": 4.0,
                "endurance_sigma": 0.1,
                "p_stuck_reset": 1.0,
                "p_revive": 0.0,
            },
        )["device"]
        try:
            with pytest.raises(ServiceResponseError) as excinfo:
                for i in range(200):
                    client.write_block(dev["id"], 0, _payload_hex(i))
            assert excinfo.value.status == 507
            assert excinfo.value.code == "E_SPARE_EXHAUSTED"
        finally:
            client.delete_device(dev["id"])


class TestJobs:
    def _poll(self, client, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = client.get_job(job_id)
            if job["state"] in ("done", "failed"):
                return job
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not settle in {timeout}s")

    def test_bler_job(self, client):
        accepted = client.submit_job("bler", cers=[1e-3], n_blocks=200, seed=1)
        assert accepted["code"] == "ACCEPTED"
        assert accepted["state"] in ("queued", "running")
        job = self._poll(client, accepted["job_id"])
        assert job["state"] == "done"
        (point,) = job["result"]["points"]
        assert point["cer"] == 1e-3
        assert point["n_blocks"] == 200
        assert 0.0 <= point["bler"] <= 1.0

    def test_accepted_reply_precedes_the_run(self, tmp_path):
        """A job that finishes inside ``submit`` still reports ``queued``."""

        class InlinePool:  # the fastest possible worker: runs on submit
            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True):
                pass

        manager = JobManager(tmp_path)
        manager._pool.shutdown()
        manager._pool = InlinePool()
        accepted = manager.submit("bler", {"cers": [1e-3], "n_blocks": 20, "seed": 1})
        assert accepted["code"] == "ACCEPTED"
        assert accepted["state"] == "queued"
        assert "result" not in accepted
        assert manager.get(accepted["job_id"])["state"] == "done"

    def test_job_listing(self, client):
        accepted = client.submit_job("bler", cers=[1e-3], n_blocks=50, seed=2)
        ids = [j["job_id"] for j in client.request("GET", "/v1/jobs")["jobs"]]
        assert accepted["job_id"] in ids

    def test_job_validation(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.submit_job("mine-bitcoin")
        assert excinfo.value.code == "E_JOB_KIND"
        with pytest.raises(ServiceResponseError):
            client.submit_job("bler", cers=[])
        with pytest.raises(ServiceResponseError):
            client.submit_job("bler", cers=[2.0], n_blocks=10)
        with pytest.raises(ServiceResponseError):
            client.submit_job("campaign", name="no-such-campaign")
        with pytest.raises(ServiceResponseError) as excinfo:
            client.get_job("job-9999")
        assert excinfo.value.code == "E_JOB_NOT_FOUND"

    def test_campaign_job(self, client):
        accepted = client.submit_job("campaign", name="smoke", n_samples=1000)
        job = self._poll(client, accepted["job_id"], timeout=120.0)
        assert job["state"] == "done", job.get("error")
        assert job["result"]["ok"] is True
        assert all(s == "done" for s in job["result"]["states"].values())


class TestBackpressure:
    def test_queue_full_503(self):
        runner = ServiceRunner(ServiceConfig(port=0, batch_max=2, queue_depth=2))
        runner.start()
        try:
            with ServiceClient(runner.base_url) as c:
                dev = c.create_device(n_blocks=4, seed=0)["device"]
                runner.app.batcher.hold()  # nothing flushes: queue must fill
                import threading

                def held_write(b: int) -> None:
                    with ServiceClient(runner.base_url) as own:
                        own.write_block(dev["id"], b, _payload_hex(b))

                held = [
                    threading.Thread(target=held_write, args=(b,), daemon=True)
                    for b in range(2)
                ]
                for t in held:
                    t.start()
                deadline = time.monotonic() + 10.0
                while runner.app.batcher.queue.depth < 2:
                    assert time.monotonic() < deadline, "queue never filled"
                    time.sleep(0.01)
                with pytest.raises(ServiceResponseError) as excinfo:
                    c.write_block(dev["id"], 3, _payload_hex(3))
                assert excinfo.value.status == 503
                assert excinfo.value.code == "E_QUEUE_FULL"
                runner.app.batcher.release()
                for t in held:
                    t.join(timeout=10.0)
                assert c.metrics()["batching"]["rejected"] == 1
        finally:
            runner.stop()


class TestHttpDifferential:
    """Service responses == direct batch-kernel execution, bit for bit."""

    def test_http_matches_direct_device(self):
        seed, n_blocks = 424242, 8
        runner = ServiceRunner(ServiceConfig(port=0))
        runner.start()
        try:
            with ServiceClient(runner.base_url) as c:
                dev = c.create_device(n_blocks=n_blocks, seed=seed)["device"]
                twin = VirtualDevice("twin", seed, n_blocks)

                # interleaved writes/reads at explicit virtual times,
                # including a rewrite (epoch 1) and post-drift reads
                script = [
                    ("write", 0, 0.0, 1),
                    ("write", 1, 0.0, 2),
                    ("read", 0, 0.0, None),
                    ("write", 0, 0.0, 3),  # rewrite -> epoch 1
                    ("read", 0, 0.0, None),
                    ("advance", None, 1e6, None),
                    ("read", 0, 1e6, None),
                    ("read", 1, 1e6, None),
                    ("write", 2, 1e6, 4),
                    ("read", 2, 1e6, None),
                ]
                for kind, block, t, data_seed in script:
                    if kind == "advance":
                        c.advance_clock(dev["id"], advance_to=t)
                        twin.clock.advance_to(t)
                        continue
                    if kind == "write":
                        data = _payload_hex(data_seed)
                        http_out = c.write_block(dev["id"], block, data, t=t)
                        bits = np.random.default_rng(data_seed).integers(
                            0, 2, size=512, dtype=np.uint8
                        )
                        (direct,) = execute_batch(
                            [IoOp("write", twin, block, t, bits=bits)]
                        )
                    else:
                        http_out = c.read_block(dev["id"], block, t=t)
                        (direct,) = execute_batch([IoOp("read", twin, block, t)])
                    assert http_out == direct, (kind, block, t)

                # Same request history => same full simulated state.
                assert c.digest(dev["id"])["digest"] == twin.state_digest()
        finally:
            runner.stop()
