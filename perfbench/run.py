"""Repo benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off; ``--trace 1`` prints its per-layer metrics,
from a separate traced run of the same workload and seed.  The last
line of standard output is the JSON result; the line before it holds
the full record (provenance, sample counts, every per-unit value).
The program under test is ``src/`` of the checkout, imported from
source; nothing is installed.  Scratch output goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fleet_paper", "fleet_wearout", "mc_paper", "service_mixed")
#: Fresh interpreters timed per run; their median is ``setup_s``.
SETUP_REPEATS = 5
#: Threads of the numeric libraries, pinned so runs are comparable.
THREAD_KNOBS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def hermetic_env() -> dict[str, str]:
    """The environment every process of the benchmark runs under.

    Every ``REPRO_*`` knob is dropped (so e.g. ``REPRO_FLEET_ENGINE``
    cannot switch engines) and the one path knob is pinned inside the
    checkout; ``src/`` is imported from source.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_MC_CACHE_DIR"] = os.path.join(ROOT, ".perfbench", "mc-cache")
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for knob in THREAD_KNOBS:
        env[knob] = "1"
    return env


def _tree_sha256(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(seed: int, env: dict[str, str]) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _tree_sha256(SRC),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "thread_knobs": {k: env[k] for k in THREAD_KNOBS},
        "repro_env": {k: v for k, v in env.items() if k.startswith("REPRO_")},
    }


# ----------------------------------------------------------------------
# Batch workloads: one worker interpreter per set-up sample.
# ----------------------------------------------------------------------

def _spawn_worker(args: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with its spawn-to-READY seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.stdout.close()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def run_batch(workload: str, seed: int, seconds: float, trace: bool, env) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, elapsed = _spawn_worker([workload, str(seed), "0", "setup"], env)
        proc.stdout.close()
        if proc.wait() != 0:
            raise RuntimeError("set-up worker failed")
        setups.append(elapsed)
    mode = "trace" if trace else "run"
    proc, elapsed = _spawn_worker([workload, str(seed), str(seconds), mode], env)
    setups.append(elapsed)
    try:
        out, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setups
    rates = {k: statistics.median(v) for k, v in result.pop("rates").items()}
    result["units_per_s"] = rates.pop("units_per_s")
    result["p50_ms"] = 1e3 * statistics.median(result["unit_wall_s"])
    if trace:
        result["layers"].update(rates)
    return result


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = hermetic_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path[:0] = [SRC, HERE]
    os.chdir(ROOT)
    os.makedirs(".perfbench", exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)  # the "build": bytecode, before timing

    if args.workload == "service_mixed":
        import service_bench

        if args.trace:
            result = service_bench.run_traced(args.seed, env)
        else:
            result = service_bench.run_e2e(args.seed, args.seconds, env)
    else:
        result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), env)

    attempted, failed = int(result["attempted"]), int(result["failed"])
    if args.trace:
        values = dict(result["layers"])
        values["fail_share"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "throughput_per_s": result["units_per_s"],
            "p50_ms": result["p50_ms"],
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, env),
        "result": {k: v for k, v in result.items() if k != "layers"},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
