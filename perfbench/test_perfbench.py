"""Tracing must not feed any simulated result.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py

Each test computes the same seeded work with and without the
benchmark's layer wrappers installed and requires identical outputs:
fleet count matrices, CER and BLER counts, and service state digests.
"""

from __future__ import annotations

import numpy as np
import pytest

import layers
from tracer import Tracer

import repro.fleet.mc as fleet_mc_mod
import repro.montecarlo.bler_mc as bler_mod
import repro.montecarlo.cer as cer_mod
from repro.core.designs import design_by_name
from repro.fleet.config import FleetConfig, stress_config
from repro.montecarlo.sweep import PAPER_TIME_GRID_S


def traced_and_plain(install, compute):
    plain = compute()
    tracer = Tracer()
    install(tracer)
    try:
        traced = compute()
    finally:
        tracer.unwrap_all()
    return plain, traced, tracer


@pytest.mark.parametrize(
    "config",
    [FleetConfig(n_devices=8, n_epochs=2), stress_config(n_devices=8, n_epochs=6)],
    ids=["paper", "wearout"],
)
def test_fleet_counts_identical(config):
    plain, traced, tracer = traced_and_plain(
        layers.install_fleet, lambda: fleet_mc_mod.fleet_mc(config, seed=5).counts
    )
    np.testing.assert_array_equal(plain, traced)
    assert tracer.calls()["fleet.soa"] == config.n_epochs


def test_cer_and_bler_counts_identical():
    def compute():
        cer = cer_mod.design_cer(design_by_name("4LCn"), PAPER_TIME_GRID_S, 50_000, seed=3)
        bler = bler_mod.bler_mc([1e-2, 3e-2], 2_000, seed=3)
        return cer.cer.tolist(), [(r.n_silent, r.n_errors) for r in bler]

    plain, traced, tracer = traced_and_plain(layers.install_mc, compute)
    assert plain == traced
    assert tracer.counts()["montecarlo.cells_sampled"] > 0
    assert tracer.calls()["montecarlo.bler"] == 1


def test_service_digests_identical():
    from repro.service.batching import IoOp, execute_batch
    from repro.service.device import VirtualDevice

    def compute():
        rng = np.random.default_rng(9)
        dev = VirtualDevice("d", 11, 4)
        reads = []
        for i in range(12):
            block = int(rng.integers(4))
            bits = rng.integers(0, 2, 512, dtype=np.uint8)
            execute_batch([IoOp("write", dev, block, float(i), bits=bits)])
            (res,) = execute_batch([IoOp("read", dev, block, i + 0.5)])
            reads.append(res["data"])
        return dev.state_digest(), reads

    plain, traced, tracer = traced_and_plain(layers.install_service, compute)
    assert plain == traced
    assert tracer.calls()["service.device.write"] == 12


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        [1, "outer", 0.0, 10.0, 0, 1, None, 0],
        [2, "inner", 2.0, 5.0, 1, 1, None, 3],
        [3, "inner", 6.0, 7.0, 1, 1, None, 4],
    ]
    tracer.counters = {"inner": "rows"}
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}
    assert tracer.counts() == {"rows": 7}
    assert tracer.covered(0.0, 20.0) == 10.0
    assert tracer.window(1.0, 5.5).counts() == {"rows": 3}


def test_reference_covers_every_metric():
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(root, "perfbench", "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(reference["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == set(reference["end_to_end"])
    workloads = {w["name"] for w in spec["workloads"]}
    for entry in reference["per_layer"].values():
        assert set(entry["on"]) <= workloads


def test_raising_call_keeps_its_span():
    import types

    def boom(x):
        raise ValueError(x)

    ns = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.wrap(ns, "boom", "b", count=("n", lambda args: 2))
    with pytest.raises(ValueError):
        ns.boom(1)
    tracer.unwrap_all()
    assert ns.boom is boom
    assert tracer.calls()["b"] == 1 and tracer.counts()["n"] == 2
