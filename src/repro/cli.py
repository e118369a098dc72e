"""Command-line interface: quick access to the library's main analyses.

Examples::

    python -m repro designs
    python -m repro cer --design 3LCo --years 1 10 100
    python -m repro cer --design 3LCo --mc-samples 10000000 --jobs 0
    python -m repro retention --design 3LCo --ecc 1 --mc-verify 1000000
    python -m repro sweep --figure fig8 --samples 1000000 --jobs 0
    python -m repro bler --cer 1e-3 3e-3 1e-2
    python -m repro bler --cer 1e-3 3e-3 1e-2 --empirical 1000000 --jobs 0
    python -m repro cache info
    python -m repro cache prune --max-bytes 512M
    python -m repro campaign run --spec fig3_fig8 --jobs 0
    python -m repro campaign status --run-dir campaign-runs/fig3_fig8
    python -m repro campaign resume --run-dir campaign-runs/fig3_fig8
    python -m repro campaign report --run-dir campaign-runs/fig3_fig8
    python -m repro availability --interval-min 17
    python -m repro capacity
    python -m repro simulate --workload STREAM --accesses 30000
    python -m repro serve --port 8341 --batch-max 64 --batch-deadline-ms 2

The Monte Carlo commands (``cer --mc-samples``, ``retention
--mc-verify``, ``sweep``, ``bler --empirical``, ``campaign``) accept
``--jobs N`` (0 = all
cores), ``--cache-dir`` and ``--no-cache``; results are cached
persistently by default, so repeating a sweep is free.  The cache grows
without bound unless trimmed — ``cache prune --max-bytes N`` evicts
least-recently-used entries down to the budget.

Failures exit nonzero: 2 for bad arguments (argparse), 1 for runtime
errors and for campaigns that finish with failed/blocked jobs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.availability import RefreshModel
from repro.analysis.capacity import TABLE3_CAPACITIES
from repro.analysis.retention import retention_time_s
from repro.analysis.targets import SECONDS_PER_YEAR
from repro.cells.params import T0_SECONDS
from repro.core.designs import all_designs, design_by_name
from repro.montecarlo.analytic import analytic_design_cer

__all__ = ["main"]

#: Cell counts of the full block designs, for the retention command.
_BLOCK_CELLS = {"4LCn": 306, "4LCs": 306, "4LCo": 306, "3LCn": 354, "3LCo": 354}


def _jobs_count(text: str) -> int:
    """``--jobs`` value: a non-negative integer (0 = all cores).

    Rejected here, at parse time, so a bad value yields a one-line usage
    error instead of a ProcessPoolExecutor traceback deep in a sweep.
    """
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--jobs expects an integer, got {text!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = all cores), got {jobs}"
        )
    return jobs


def _size_bytes(text: str) -> int:
    """Byte count with an optional K/M/G/T suffix (e.g. ``512M``)."""
    s = text.strip().upper().removesuffix("B")
    scale = 1
    if s and s[-1] in "KMGT":
        scale = 1024 ** ("KMGT".index(s[-1]) + 1)
        s = s[:-1]
    try:
        n = int(float(s) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r} (try 1000000 or 512M)")
    if n < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return n


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=_jobs_count, default=1,
        help="Monte Carlo worker processes (0 = all cores)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="MC result cache directory (default: $REPRO_MC_CACHE_DIR or ~/.cache/repro-mc)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the persistent MC result cache"
    )


def _cache_from_args(args: argparse.Namespace):
    if args.no_cache:
        return None
    from repro.montecarlo.results_cache import ResultsCache

    return ResultsCache(cache_dir=args.cache_dir)


def _cmd_designs(_args: argparse.Namespace) -> int:
    print(f"{'name':>6} {'levels':>7} {'nominal log10 R':>28} {'thresholds':>24}")
    for name, d in all_designs().items():
        mus = " ".join(f"{s.mu_lr:.3f}" for s in d.states)
        taus = " ".join(f"{t:.3f}" for t in d.thresholds)
        print(f"{name:>6} {d.n_levels:>7} {mus:>28} {taus:>24}")
    return 0


def _cmd_cer(args: argparse.Namespace) -> int:
    design = design_by_name(args.design)
    times = [y * SECONDS_PER_YEAR for y in args.years]
    if args.mc_samples:
        from repro.montecarlo.cer import design_cer

        res = design_cer(
            design, times, args.mc_samples, seed=args.seed,
            jobs=args.jobs, cache=_cache_from_args(args),
        )
        order = np.argsort(times)
        for y, c in zip(np.asarray(args.years)[order], res.cer):
            print(f"{args.design} MC CER after {y:g} years: {c:.3E}")
        print(f"(Monte Carlo, {res.n_samples:,} cells, floor {res.floor:.1E})")
    else:
        cer = analytic_design_cer(design, times)
        for y, c in zip(args.years, cer):
            print(f"{args.design} CER after {y:g} years: {c:.3E}")
    return 0


def _cmd_retention(args: argparse.Namespace) -> int:
    design = design_by_name(args.design)
    n_cells = args.cells or _BLOCK_CELLS[args.design]
    r = retention_time_s(design, n_cells, args.ecc)
    if r.retention_years >= 1:
        horizon = f"{r.retention_years:.1f} years"
    elif r.retention_s >= 86400:
        horizon = f"{r.retention_s / 86400:.1f} days"
    else:
        horizon = f"{r.retention_minutes:.1f} minutes"
    print(
        f"{args.design} + BCH-{args.ecc} ({n_cells} cells): refresh every "
        f"{horizon} (CER {r.cer_at_retention:.2E}, BLER {r.bler_at_retention:.2E} "
        f"vs target {r.target_bler:.2E})"
    )
    nonvolatile = r.retention_years >= 10.0
    print("nonvolatile (>10 years):", "yes" if nonvolatile else "no")
    if args.mc_verify:
        if r.retention_s < T0_SECONDS:
            print("MC verify skipped: retention below the drift reference time t0")
        else:
            from repro.montecarlo.cer import design_cer

            mc = design_cer(
                design, [r.retention_s], args.mc_verify, seed=args.seed,
                jobs=args.jobs, cache=_cache_from_args(args),
            )
            print(
                f"MC check at retention: CER {mc.cer[0]:.2E} "
                f"({mc.n_samples:,} cells, floor {mc.floor:.1E}) "
                f"vs analytic {r.cer_at_retention:.2E}"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.montecarlo.sweep import (
        PAPER_TIME_LABELS,
        fig3_state_sweep,
        fig8_design_sweep,
    )

    cache = _cache_from_args(args)
    if args.figure == "fig3":
        sweep = fig3_state_sweep(
            n_samples=args.samples, seed=args.seed, jobs=args.jobs, cache=cache
        )
    else:
        sweep = fig8_design_sweep(
            n_samples=args.samples, seed=args.seed, jobs=args.jobs, cache=cache
        )
    names = list(sweep.series)
    print("  ".join(["time".rjust(9)] + [n.rjust(9) for n in names]))
    for i, label in enumerate(PAPER_TIME_LABELS):
        row = [f"{sweep.series[n][i]:.2E}".rjust(9) for n in names]
        print("  ".join([label.rjust(9)] + row))
    print(f"({sweep.n_samples:,} cells/curve, MC floor {sweep.floor:.1E})")
    return 0


def _cmd_bler(args: argparse.Namespace) -> int:
    from repro.analysis.bler import block_error_rate

    if args.empirical:
        from repro.coding.blockcodec import ThreeOnTwoBlockCodec
        from repro.montecarlo.bler_mc import bler_mc

        codec = ThreeOnTwoBlockCodec(
            data_bits=args.data_bits, n_spare_pairs=args.spare_pairs
        )
        results = bler_mc(
            args.cer,
            args.empirical,
            seed=args.seed,
            data_bits=args.data_bits,
            n_spare_pairs=args.spare_pairs,
            jobs=args.jobs,
            cache=_cache_from_args(args),
        )
        print(
            f"{'CER':>10} {'empirical':>11} {'95% CI':>26} "
            f"{'analytic':>11} {'in CI':>5}"
        )
        all_in = True
        for r in results:
            lo, hi = r.confidence()
            analytic = block_error_rate(r.cer, codec.n_mlc_cells, 1)
            in_ci = lo <= analytic <= hi
            all_in = all_in and in_ci
            print(
                f"{r.cer:>10.3E} {r.bler:>11.4E} "
                f"[{lo:.4E}, {hi:.4E}] {analytic:>11.4E} "
                f"{'yes' if in_ci else 'NO':>5}"
            )
        print(
            f"({args.empirical:,} blocks/point through the batched 3-ON-2 "
            f"datapath, {codec.n_mlc_cells} MLC cells/block; "
            f"{sum(r.n_silent for r in results):,} silent escapes total)"
        )
        return 0 if all_in else 1
    for c in args.cer:
        bler = block_error_rate(c, args.cells, args.ecc)
        print(
            f"BLER at CER {c:.3E} ({args.cells} cells, BCH-{args.ecc}): "
            f"{bler:.4E}"
        )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import config_from_params, fleet_mc

    config = config_from_params({"preset": args.preset}, args.devices, args.epochs)
    summary = fleet_mc(
        config, seed=args.seed, jobs=args.jobs, cache=_cache_from_args(args)
    )
    d = summary.to_dict()
    t = d["totals"]
    life = d["lifetime_epochs"]
    print(
        f"fleet: {d['n_devices']:,} devices x {d['n_epochs']} epochs "
        f"({args.preset} preset, seed {args.seed})"
    )
    print(
        f"  demand writes {t['writes']:,}  refreshes {t['refreshes']:,}  "
        f"maintenance reads {t['reads']:,}"
    )
    print(
        f"  wearout marks {t['wearout_marks']:,}  retries {t['write_retries']:,}  "
        f"deaths {d['n_dead']:,} ({d['n_dead'] / d['n_devices']:.1%})"
    )
    print(
        f"  uncorrectable {t['uncorrectable']:,}  silent {t['silent']:,} "
        f"(rate {d['silent_error_rate']:.2E}/read)"
    )
    life_s = "  ".join(
        f"{k}={'>' + str(d['n_epochs'] - 1) if v is None else v}"
        for k, v in life.items()
    )
    print(f"  lifetime epochs: {life_s}")
    print("  hazard/epoch:    " + "  ".join(f"{h:.3f}" for h in d["hazard"]))
    print(
        f"  energy: writes {d['write_energy_nj'] / 1e3:.1f} uJ, "
        f"maintenance {d['refresh_energy_nj'] / 1e3:.1f} uJ"
    )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(d, f, indent=2, sort_keys=True)
        print(f"summary written to {args.out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.montecarlo.results_cache import ResultsCache

    cache = ResultsCache(cache_dir=args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.cache_dir}")
    elif args.action == "prune":
        if args.max_bytes is None:
            raise SystemExit("cache prune requires --max-bytes")
        removed, freed = cache.prune(args.max_bytes)
        print(
            f"pruned {removed} least-recently-used entr"
            f"{'y' if removed == 1 else 'ies'} ({freed:,} bytes) from "
            f"{cache.cache_dir}; {cache.nbytes():,} bytes remain"
        )
    else:
        entries = cache.entries()
        print(f"cache dir: {cache.cache_dir}")
        print(f"entries:   {len(entries)}")
        print(f"size:      {cache.nbytes():,} bytes")
    return 0


def _load_campaign_spec(spec_arg: str, samples: int | None, seed: int | None):
    """Resolve ``--spec``: a built-in name or a TOML file path."""
    import dataclasses
    import os

    from repro.campaign.spec import (
        BUILTIN_CAMPAIGNS,
        builtin_campaign,
        campaign_from_toml,
    )

    if spec_arg in BUILTIN_CAMPAIGNS:
        return builtin_campaign(spec_arg, n_samples=samples, seed=seed)
    if os.path.exists(spec_arg):
        spec = campaign_from_toml(spec_arg)
        overrides = {}
        if samples is not None:
            overrides["defaults"] = {**spec.defaults, "n_samples": int(samples)}
        if seed is not None:
            overrides["seed"] = int(seed)
        return dataclasses.replace(spec, **overrides) if overrides else spec
    raise SystemExit(
        f"--spec {spec_arg!r} is neither a built-in campaign "
        f"({', '.join(sorted(BUILTIN_CAMPAIGNS))}) nor a TOML file"
    )


def _campaign_scheduler(args: argparse.Namespace, spec):
    from repro.campaign.scheduler import CampaignScheduler
    from repro.campaign.store import RunStore

    run_dir = args.run_dir or f"campaign-runs/{spec.name}"
    store = RunStore(run_dir)
    progress = sys.stderr.isatty() and not getattr(args, "no_progress", False)
    return CampaignScheduler(
        spec,
        store,
        mc_jobs=args.jobs,
        cache=_cache_from_args(args),
        max_parallel=args.max_parallel,
        progress=progress,
    )


def _chaos_plan_from_args(args: argparse.Namespace):
    """The ``--chaos-seed`` fault plan, or ``None`` when chaos is off."""
    seed = getattr(args, "chaos_seed", None)
    if seed is None:
        return None
    from repro.chaos import FaultPlan

    return FaultPlan.random(int(seed), n_faults=args.chaos_faults)


def _finish_campaign(sched, resume: bool, chaos_plan=None) -> int:
    from repro.campaign.report import render_summary

    if chaos_plan is None:
        result = sched.run(resume=resume)
    else:
        from repro.chaos import InjectedCrash, activate

        print(chaos_plan.describe(), file=sys.stderr)
        try:
            with activate(chaos_plan):
                result = sched.run(resume=resume)
        except InjectedCrash as crash:
            print(
                f"injected crash: {crash} [chaos seed {chaos_plan.seed}; "
                f"replay with FaultPlan.random({chaos_plan.seed})]; "
                f"resume with 'repro campaign resume --run-dir "
                f"{sched.store.run_dir}'",
                file=sys.stderr,
            )
            return 1
    print(render_summary(sched.store), end="")
    if not result.ok:
        msg = "campaign finished with failed/blocked jobs"
        if chaos_plan is not None:
            msg += f" [chaos seed {chaos_plan.seed}]"
        print(msg, file=sys.stderr)
    return result.exit_code


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _load_campaign_spec(args.spec, args.samples, args.seed)
    sched = _campaign_scheduler(args, spec)
    return _finish_campaign(sched, resume=False, chaos_plan=_chaos_plan_from_args(args))


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign.spec import campaign_from_dict
    from repro.campaign.store import RunStore

    store = RunStore(args.run_dir)
    if not store.exists():
        raise SystemExit(f"no campaign manifest under {args.run_dir}")
    spec = campaign_from_dict(store.read_manifest()["spec"])
    sched = _campaign_scheduler(args, spec)
    return _finish_campaign(sched, resume=True, chaos_plan=_chaos_plan_from_args(args))


def _cmd_chaos_points(_args: argparse.Namespace) -> int:
    from repro.chaos import FAULT_POINTS

    for name in sorted(FAULT_POINTS):
        info = FAULT_POINTS[name]
        print(name)
        print(f"  {info.description}")
        print(f"  ctx: {', '.join(info.ctx_keys)}")
        print(f"  recoverable: {', '.join(info.recoverable_actions)}")
        targeted = tuple(
            a for a in info.actions if a not in info.recoverable_actions
        )
        if targeted:
            print(f"  targeted-only: {', '.join(targeted)}")
    return 0


def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    from repro.chaos import builtin_plan
    from repro.chaos.plan import FaultPlan

    if args.builtin is not None:
        print(builtin_plan(args.builtin).describe())
    else:
        print(FaultPlan.random(args.seed, n_faults=args.faults).describe())
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign.report import render_summary
    from repro.campaign.store import RunStore

    store = RunStore(args.run_dir)
    if not store.exists():
        raise SystemExit(f"no campaign manifest under {args.run_dir}")
    print(render_summary(store), end="")
    status = store.read_status()
    if status and status.get("finished") and not status.get("ok"):
        return 1
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign.report import write_report
    from repro.campaign.store import RunStore

    store = RunStore(args.run_dir)
    if not store.exists():
        raise SystemExit(f"no campaign manifest under {args.run_dir}")
    written = write_report(store, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    model = RefreshModel(device_bytes=args.device_gb * 2**30)
    iv = args.interval_min * 60.0
    print(f"device refresh pass: {model.device_refresh_pass_s:.0f} s")
    print(f"device availability: {model.device_availability(iv):.3f}")
    print(f"bank availability:   {model.bank_availability(iv):.3f}")
    print(
        f"write bandwidth left: {1 - model.refresh_write_fraction(iv):.2f} "
        f"of {model.write_throughput_bytes_per_s / 1e6:.0f} MB/s"
    )
    return 0


def _cmd_capacity(_args: argparse.Namespace) -> int:
    for name, c in TABLE3_CAPACITIES.items():
        print(
            f"{name:>12}: {c.data_cells} data + {c.overhead_cells} overhead "
            f"= {c.total_cells} cells -> {c.bits_per_cell:.3f} bits/cell"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ServiceApp, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        seed=args.seed,
        batch_max=args.batch_max,
        batch_deadline_ms=args.batch_deadline_ms,
        queue_depth=args.queue_depth,
        mc_jobs=args.jobs,
        job_workers=args.job_workers,
        work_dir=args.work_dir,
    )
    import asyncio
    import signal

    async def _serve() -> int:
        app = ServiceApp(config)
        host, port = await app.start()
        print(f"repro service listening on http://{host}:{port}", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        # Clean-shutdown contract: stop intake, drain in-flight batches
        # and jobs, then exit 0 — a drained server never loses a request.
        print("repro service draining", file=sys.stderr)
        await app.stop()
        print("repro service stopped", file=sys.stderr)
        return 0

    return asyncio.run(_serve())


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_fig16

    rows = run_fig16(workloads=[args.workload], n_accesses=args.accesses)
    r = rows[0]
    print(f"workload {r.workload} (normalized to 4LC-REF):")
    for variant in r.exec_time:
        print(
            f"  {variant:>12}: time {r.exec_time[variant]:.3f}  "
            f"energy {r.energy[variant]:.3f}  power {r.power[variant]:.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="MLC-PCM drift/nonvolatility analyses (SC'13 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list the canonical cell designs").set_defaults(
        func=_cmd_designs
    )

    c = sub.add_parser("cer", help="drift cell error rate of a design")
    c.add_argument("--design", default="3LCo", choices=sorted(_BLOCK_CELLS))
    c.add_argument("--years", type=float, nargs="+", default=[1.0, 10.0])
    c.add_argument(
        "--mc-samples", type=int, default=0,
        help="use the Monte Carlo engine with this many cells (0 = analytic)",
    )
    c.add_argument("--seed", type=int, default=0, help="MC seed")
    _add_mc_flags(c)
    c.set_defaults(func=_cmd_cer)

    r = sub.add_parser("retention", help="refresh period meeting the target")
    r.add_argument("--design", default="3LCo", choices=sorted(_BLOCK_CELLS))
    r.add_argument("--ecc", type=int, default=1, help="BCH correction strength t")
    r.add_argument("--cells", type=int, default=None, help="block size in cells")
    r.add_argument(
        "--mc-verify", type=int, default=0,
        help="cross-check the retention-point CER with this many MC cells",
    )
    r.add_argument("--seed", type=int, default=0, help="MC seed")
    _add_mc_flags(r)
    r.set_defaults(func=_cmd_retention)

    w = sub.add_parser("sweep", help="Monte Carlo time sweeps (Figures 3 and 8)")
    w.add_argument("--figure", default="fig8", choices=["fig3", "fig8"])
    w.add_argument("--samples", type=int, default=1_000_000, help="MC cells per curve")
    w.add_argument("--seed", type=int, default=0, help="MC seed")
    _add_mc_flags(w)
    w.set_defaults(func=_cmd_sweep)

    b = sub.add_parser(
        "bler",
        help="block error rate: analytic Figure-5 curve or empirical MC",
        description=(
            "Block error rate vs per-cell error rate.  By default, the "
            "exact analytic curve of Figure 5; with --empirical N, "
            "measured by pushing N random blocks per CER point through "
            "the batched 3-ON-2 encode/inject/decode datapath and "
            "cross-checked against the analytic value (exit 1 if any "
            "point's 95% CI excludes it)."
        ),
    )
    b.add_argument(
        "--cer", type=float, nargs="+", default=[1e-3, 3e-3, 1e-2],
        help="per-cell error rate operating points",
    )
    b.add_argument(
        "--cells", type=int, default=354,
        help="block size in cells (analytic mode)",
    )
    b.add_argument(
        "--ecc", type=int, default=1,
        help="BCH correction strength t (analytic mode)",
    )
    b.add_argument(
        "--empirical", type=int, default=0, metavar="N",
        help="measure BLER empirically with N blocks per CER point",
    )
    b.add_argument(
        "--data-bits", type=int, default=512,
        help="data payload per block (empirical mode)",
    )
    b.add_argument(
        "--spare-pairs", type=int, default=6,
        help="mark-and-spare budget (empirical mode)",
    )
    b.add_argument("--seed", type=int, default=0, help="MC seed")
    _add_mc_flags(b)
    b.set_defaults(func=_cmd_bler)

    fl = sub.add_parser(
        "fleet",
        help="population simulation: lifetimes, hazard, energy (docs/FLEET.md)",
        description=(
            "Simulate a heterogeneous population of PCM devices through "
            "epochs of demand writes and scrub-refresh maintenance; "
            "reports lifetime percentiles, the spare-exhaustion hazard "
            "curve, silent-error rates, and the energy split."
        ),
    )
    fl.add_argument(
        "--devices", type=int, default=1000, help="population size (default 1000)"
    )
    fl.add_argument(
        "--epochs", type=int, default=4, help="epochs to simulate (default 4)"
    )
    fl.add_argument(
        "--preset", choices=("default", "stress"), default="stress",
        help="wear model: 'stress' compresses endurance so spare "
        "exhaustion shows within a few epochs (default)",
    )
    fl.add_argument("--seed", type=int, default=0, help="fleet seed (default 0)")
    fl.add_argument(
        "--out", default=None, metavar="FILE", help="also write the summary as JSON"
    )
    _add_mc_flags(fl)
    fl.set_defaults(func=_cmd_fleet)

    k = sub.add_parser(
        "cache",
        help="inspect, clear, or prune the MC result cache",
        description=(
            "Manage the persistent Monte Carlo result cache.  The store "
            "grows without bound as sweeps accumulate; 'prune --max-bytes N' "
            "evicts least-recently-used entries (by mtime) until it fits."
        ),
    )
    k.add_argument("action", choices=["info", "clear", "prune"])
    k.add_argument("--cache-dir", default=None, help="cache directory to operate on")
    k.add_argument(
        "--max-bytes", type=_size_bytes, default=None,
        help="prune: evict LRU entries until the store is at most this "
        "large (accepts suffixes: 512M, 2G, ...)",
    )
    k.set_defaults(func=_cmd_cache)

    g = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns over the MC engine",
        description=(
            "Run a declarative campaign spec (a DAG of sweep/mapping/"
            "retention jobs) with retries, failure isolation, and "
            "crash-safe resume from the run directory."
        ),
    )
    gsub = g.add_subparsers(dest="campaign_cmd", required=True)

    def _add_campaign_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-parallel", type=int, default=None,
            help="concurrent campaign jobs (default: the spec's setting)",
        )
        p.add_argument(
            "--no-progress", action="store_true",
            help="suppress the terminal progress line",
        )
        p.add_argument(
            "--chaos-seed", type=int, default=None, metavar="N",
            help="inject a FaultPlan.random(N) fault schedule (testing aid; "
            "the seed is echoed on failure for exact replay)",
        )
        p.add_argument(
            "--chaos-faults", type=int, default=3, metavar="K",
            help="faults drawn into the --chaos-seed plan (default 3)",
        )
        _add_mc_flags(p)

    cr = gsub.add_parser("run", help="start (or continue) a campaign")
    cr.add_argument(
        "--spec", required=True,
        help="built-in campaign name (bler, fig3, fig8, fig3_fig8, "
        "fleet, retention, smoke) or a TOML spec file",
    )
    cr.add_argument(
        "--run-dir", default=None,
        help="run directory (default: campaign-runs/<name>)",
    )
    cr.add_argument(
        "--samples", type=int, default=None,
        help="override the spec's default MC sample count",
    )
    cr.add_argument("--seed", type=int, default=None, help="override the spec seed")
    _add_campaign_exec_flags(cr)
    cr.set_defaults(func=_cmd_campaign_run)

    cm = gsub.add_parser(
        "resume", help="finish a killed/failed campaign; completed jobs are kept"
    )
    cm.add_argument("--run-dir", required=True)
    _add_campaign_exec_flags(cm)
    cm.set_defaults(func=_cmd_campaign_resume)

    cs = gsub.add_parser("status", help="job states and counters of a run")
    cs.add_argument("--run-dir", required=True)
    cs.set_defaults(func=_cmd_campaign_status)

    cp = gsub.add_parser("report", help="render a run into results/ tables")
    cp.add_argument("--run-dir", required=True)
    cp.add_argument("--out", default="results", help="output directory")
    cp.set_defaults(func=_cmd_campaign_report)

    ch = sub.add_parser(
        "chaos",
        help="deterministic fault-injection harness (docs/TESTING.md)",
        description=(
            "Inspect the chaos harness: the fault-point catalog and "
            "reproducible fault plans (random by seed, or built-in)."
        ),
    )
    chsub = ch.add_subparsers(dest="chaos_cmd", required=True)
    cpt = chsub.add_parser("points", help="catalog of instrumented fault points")
    cpt.set_defaults(func=_cmd_chaos_points)
    cpl = chsub.add_parser("plan", help="show a fault plan (random or built-in)")
    which = cpl.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--seed", type=int, help="derive the random recoverable plan for this seed"
    )
    which.add_argument(
        "--builtin", metavar="NAME",
        help="a named plan from the differential suite (e.g. cache-corruption)",
    )
    cpl.add_argument(
        "--faults", type=int, default=3, help="faults in a random plan (default 3)"
    )
    cpl.set_defaults(func=_cmd_chaos_plan)

    a = sub.add_parser("availability", help="refresh availability model")
    a.add_argument("--device-gb", type=int, default=16)
    a.add_argument("--interval-min", type=float, default=17.0)
    a.set_defaults(func=_cmd_availability)

    sub.add_parser("capacity", help="Table-3 storage densities").set_defaults(
        func=_cmd_capacity
    )

    s = sub.add_parser("simulate", help="run the Figure-16 simulator")
    s.add_argument("--workload", default="STREAM")
    s.add_argument("--accesses", type=int, default=30_000)
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser(
        "serve",
        help="run the device-as-a-service HTTP front end",
        description=(
            "Serve simulated PCM devices over HTTP: create devices, "
            "write/read blocks against persistent virtual-time state, "
            "advance device clocks, and submit/poll BLER/campaign jobs. "
            "Block I/O is dynamically batched into the batch kernels "
            "(docs/SERVICE.md).  SIGINT/SIGTERM drain and exit 0."
        ),
    )
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument(
        "--port", type=int, default=8341, help="listen port (0 = ephemeral)"
    )
    v.add_argument(
        "--seed", type=int, default=0,
        help="base seed for devices created without an explicit seed",
    )
    v.add_argument(
        "--batch-max", type=int, default=64,
        help="flush a batch as soon as it holds this many block ops",
    )
    v.add_argument(
        "--batch-deadline-ms", type=float, default=2.0,
        help="flush a partial batch when its oldest op is this old",
    )
    v.add_argument(
        "--queue-depth", type=int, default=1024,
        help="pending-op limit; excess requests get 503 E_QUEUE_FULL",
    )
    v.add_argument(
        "--jobs", type=_jobs_count, default=1,
        help="MC worker processes inside one bler/campaign job (0 = all cores)",
    )
    v.add_argument(
        "--job-workers", type=int, default=2, help="concurrently running jobs"
    )
    v.add_argument(
        "--work-dir", default=None,
        help="campaign job run directories (default: a temp dir)",
    )
    v.set_defaults(func=_cmd_serve)
    return p


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; failed subcommands exit nonzero.

    Runtime failures (bad design names, missing run dirs, spec errors,
    I/O problems) print one ``error:`` line and return 1 instead of a
    traceback; argparse itself exits 2 for malformed arguments.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
