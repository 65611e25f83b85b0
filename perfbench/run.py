#!/usr/bin/env python3
"""The IoBT benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload geo_streams --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
spans off.  ``--trace 1`` alternates untraced and traced repetitions of
the same world and reports per-layer calls and self time (see
``spans.py``).  Every repetition is checked: simulation workloads compare
a behaviour digest across repetitions and against the digest pinned for
the reference seed; the service workload recomputes every current answer
with a direct composition.  The last line of standard output is the
result object; a failed output check exits 1.

Simulation workloads rebuild the world and run ``Simulator.run`` to a fixed
horizon, cell by cell, repeatedly, until ``--seconds`` have elapsed; times
are the fastest the repetitions achieved (see :func:`fastest_sum`).
The service workload replays one open-loop schedule on fresh worlds for
about ``--seconds``; its ``run_s`` is the process CPU time one replay
consumes (its wall time is fixed by the schedule), estimated the same
way, and its query latencies are printed with their sample counts.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("geo_streams", "aodv_churn_traced", "service_churn")

#: name -> unit, reported with --trace 0 on every workload.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "ev/s",
    "peak_rss_mb": "MB",
}

SERVICE_WHY = (
    "The only workload for repro.service, service.snapshot and core.synthesis: "
    "fresh-cache reads and epoch rebuilds with recompositions hit the same "
    "caches. 150 assets: at 1k the service saturates, at 300 duplicate "
    "recompositions snowball whenever the host slows."
)

#: World builds per service replay; the last serves the replay, the others
#: only add set-up samples (one per replay left the estimate unsteady).
SERVICE_BUILDS = 2

#: Slices of the virtual horizon timed separately, shared among a world's
#: cells (see fastest_sum).  Finer slices let the fastest repetition of
#: each dodge shorter slow stretches of a shared host: on a 2-core host,
#: five aodv_churn_traced seeds spread 0.17 at 16 slices and 0.13 at 128.
RUN_SEGMENTS = 128

perf = time.perf_counter


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        sys.exit(2)


# ------------------------------------------------------------------ helpers


def fastest_sum(segment_times: List[List[float]]) -> float:
    """A run's cost from repetitions of identical work, timed in segments.

    ``segment_times`` holds, per repetition, the time of each segment.
    Host contention only ever adds time, and on a shared host it comes and
    goes within a second (a fixed pure-Python loop reads 136-235 ms in
    ten seconds), so a median or quartile of whole runs moves with the
    share of slow phases a run happened to catch.  Each segment's fastest
    repetition is the closest reading of that segment's own cost; their
    sum is the run's.
    """
    return sum(min(column) for column in zip(*segment_times))


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def query_latency(latencies: List[float]) -> Dict[str, float]:
    """Query latency from due time: sample count and percentiles in ms."""
    ms = [x * 1e3 for x in latencies]
    table = {f"p{q:g}": percentile(ms, q) for q in (50, 90, 99)}
    table["samples"] = len(ms)
    return table


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                h.update(open(path, "rb").read())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_context(args, why: str) -> Dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -------------------------------------------------------------- simulation


def _sim_rep(wl, seed: int, tracing) -> Dict[str, Any]:
    """Build, run and digest one world; traced when ``tracing`` is given."""
    from worlds import behaviour_digest

    gc.collect()
    if tracing is not None:
        tracing.install()
    try:
        gc.collect()
        builds = [wl.build(seed) for _ in range(wl.setup_batch)]
        # Seconds of each build step, summed over a build's cells and
        # averaged over the batch.
        per_build = [
            [sum(step) for step in zip(*(w.setup_laps for w in cells))] for cells in builds
        ]
        setup_laps = [sum(step) / wl.setup_batch for step in zip(*per_build)]
        cells = builds[-1]
        del builds
        gc.collect()
        if tracing is not None:
            tracing.reset()
        slices = RUN_SEGMENTS // len(cells)
        segments = []
        t1 = perf()
        for world in cells:
            for k in range(1, slices + 1):
                t = perf()
                world.sim.run(until=world.horizon * k / slices)
                segments.append(perf() - t)
        t2 = perf()
    finally:
        if tracing is not None:
            tracing.uninstall()
    rep: Dict[str, Any] = {
        "traced": tracing is not None,
        "setup_laps": setup_laps,
        "run_s": t2 - t1,
        "segments": segments,
        "events": sum(w.sim.events_processed for w in cells),
        "trace_records": [len(w.sim.trace) for w in cells],
        "trace_dropped": sum(w.sim.trace.dropped for w in cells),
    }
    try:
        rep["digest"], rep["digest_sizes"] = behaviour_digest(cells)
    except ValueError as exc:
        rep["digest"], rep["error"] = None, str(exc)
    if tracing is not None:
        rep["layers"] = _sim_layer_metrics(cells, tracing, t1, t2)
    return rep


def _sim_layer_metrics(cells, tracing, t1: float, t2: float) -> Dict[str, float]:
    calls, self_s = tracing.rec.totals()
    counters: Dict[str, float] = {}
    for world in cells:
        for name, inst in world.sim.registry.snapshot().items():
            if inst["kind"] == "counter":
                counters[name] = counters.get(name, 0.0) + inst["value"]
    events = sum(w.sim.events_processed for w in cells)
    delivered = sum(len(w.delivered) for w in cells)
    tx = counters.get("net.tx", 0.0)
    sends = tracing.unicasts + tracing.broadcasts
    fates = [f for w in cells for f in getattr(w.transport, "fates", {}).values()]
    out: Dict[str, float] = {}
    for layer in _layers():
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out.update(
        {
            "sim.kernel.events": events,
            "sim.calendar.depth_max": tracing.depth_max,
            "net.stack.fanout_mean": (
                (tracing.broadcast_receivers + tracing.unicasts) / sends if sends else 0.0
            ),
            "net.stack.rx_per_tx": counters.get("net.rx", 0.0) / tx if tx else 0.0,
            "net.routing.tx_per_delivery": tx / delivered if delivered else 0.0,
            "net.routing.dup_frac": (
                tracing.route_dup / tracing.route_rx if tracing.route_rx else 0.0
            ),
            "net.transport.retransmits": sum(f.retransmits for f in fates),
            "faults.node_transitions": counters.get("faults.crashes", 0.0)
            + counters.get("faults.restarts", 0.0),
            "obs.tracing.records": sum(len(w.sim.trace) for w in cells),
            "obs.tracing.us_per_event": (
                self_s.get("obs.tracing", 0.0) / events * 1e6 if events else 0.0
            ),
            "bench.unattributed_frac": 1.0 - tracing.rec.covered_s(t1, t2) / (t2 - t1),
        }
    )
    return out


def run_sim(args) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    from spans import Tracing
    from worlds import REFERENCE_SEED, SIM_WORKLOADS

    wl = SIM_WORKLOADS[args.workload]
    tracing = Tracing() if args.trace else None
    min_reps = 4 if args.trace else 3
    reps: List[Dict[str, Any]] = []
    t_end = perf() + args.seconds
    while len(reps) < min_reps or perf() < t_end:
        traced = tracing is not None and len(reps) % 2 == 1
        reps.append(_sim_rep(wl, args.seed, tracing if traced else None))
    rss = peak_rss_mb()
    reference = _sim_rep(wl, REFERENCE_SEED, None)

    problems: List[str] = [r["error"] for r in reps + [reference] if "error" in r]
    digest = reps[0]["digest"]
    failed = sum(1 for r in reps if r["digest"] != digest or r["digest"] is None)
    if failed:
        problems.append(f"{failed} repetitions digested differently from the first")
    if reference["digest"] != wl.reference_digest:
        failed += 1
        problems.append(
            f"reference seed {REFERENCE_SEED} digest {reference['digest']} "
            f"!= pinned {wl.reference_digest}"
        )
    dropped = sum(r["trace_dropped"] for r in reps)
    if dropped:
        problems.append(f"{dropped} trace records dropped past the in-memory cap")

    plain = [r for r in reps if not r["traced"]]
    run_s = fastest_sum([r["segments"] for r in plain])
    detail: Dict[str, Any] = {
        "digest": digest,
        "digest_sizes": reps[0].get("digest_sizes"),
        "reference_digest": reference["digest"],
        "repetitions": len(plain),
        "traced_repetitions": len(reps) - len(plain),
        "events": reps[0]["events"],
        "trace_records": reps[0]["trace_records"],
        "run_s_all": [r["run_s"] for r in plain],
        "setup_s_all": [sum(r["setup_laps"]) for r in plain],
        "problems": problems,
    }
    if not args.trace:
        metrics = {
            "setup_s": fastest_sum([r["setup_laps"] for r in plain]),
            "run_s": run_s,
            "events_per_s": plain[0]["events"] / run_s,
            "peak_rss_mb": rss,
        }
    else:
        traced = [r for r in reps if r["traced"]]
        metrics = _mean_layers([r["layers"] for r in traced])
        metrics["bench.span_overhead_frac"] = (
            fastest_sum([r["segments"] for r in traced]) / run_s - 1.0
        )
        problems.extend(_missing_layers(metrics, wl.active_layers))
    result = {
        "correct": not problems,
        "attempted": len(reps) + 1,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


# ----------------------------------------------------------------- service


def run_service(args) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Replay one open-loop schedule on a fresh world, about ``--seconds`` long.

    Every replay serves the same arrivals, so, as on the simulations, each
    window's fastest replay reads its own CPU cost and ``run_s`` is their
    sum (see :func:`fastest_sum`); ``setup_s`` is estimated the same way
    from the steps of the world builds before each replay.  In the traced
    run, replays go plain, traced, traced, plain, and so on.  Figures that need the spans (layer calls and self time,
    bulkhead waits, composition times, unattributed time) come from the
    traced replays; query latency, generator lag and the service's own
    counters come from the plain ones, which the spans do not slow.
    """
    import service_load as sl
    from spans import Tracing

    n_replays = max(4 if args.trace else 2, round(args.seconds / sl.REPLAY_S))

    async def replay(tracing=None) -> Dict[str, Any]:
        if tracing is not None:
            tracing.install()
            asyncio.get_running_loop().set_task_factory(tracing.task_factory)
        try:
            laps = []
            for k in range(SERVICE_BUILDS):
                gc.collect()
                world = await sl.build_world(args.seed)
                laps.append(world.setup_laps)
                if k < SERVICE_BUILDS - 1:
                    await world.service.stop()
            gc.collect()
            schedule = sl.build_schedule(args.seed)
            if tracing is not None:
                tracing.reset()
            t0 = perf()
            result = await sl.run_phase(world, schedule)
            t1 = perf()
            await world.service.stop()
        finally:
            if tracing is not None:
                asyncio.get_running_loop().set_task_factory(None)
                tracing.uninstall()
        # Checked off the clock, before the next replay starts.
        rep = {
            "setup_laps": laps,
            "result": result,
            "verdict": sl.check_phase(world, result),
            "epochs": len(world.epochs),
            "traced": False,
        }
        if tracing is not None:
            rep.update(traced=True, spans=_service_span_metrics(tracing, t0, t1))
        return rep

    async def main() -> List[Dict[str, Any]]:
        tracing = Tracing() if args.trace else None
        return [
            await replay(tracing if tracing is not None and k % 4 in (1, 2) else None)
            for k in range(n_replays)
        ]

    replays = asyncio.run(main())
    rss = peak_rss_mb()
    problems = [
        f"{v.mismatched} answers differ from a direct composition, "
        f"{v.non_terminal} queries without a terminal outcome"
        for v in (r["verdict"] for r in replays)
        if v.mismatched or v.non_terminal
    ]
    plain = [r for r in replays if not r["traced"]]
    latencies = [x for r in plain for x in r["result"].latencies]
    lags = [x for r in plain for x in r["result"].lags]
    counts = {
        key: sum(getattr(r["verdict"], key) for r in plain)
        for key in ("submitted", "ok", "degraded", "rejected_or_failed", "non_terminal",
                    "live_pairs")
    }
    counters: Dict[str, float] = {}
    for r in plain:
        for name, value in r["result"].counters.items():
            counters[name] = counters.get(name, 0.0) + value
    run_s = fastest_sum([r["result"].window_cpu_s for r in plain])
    latency = query_latency(latencies)
    detail = {
        **counts,
        "replays": ["traced" if r["traced"] else "plain" for r in replays],
        "epochs": [r["epochs"] for r in replays],
        "query_latency_ms": latency,
        "wall_s": [r["result"].wall_s for r in replays],
        "cpu_s": [r["result"].cpu_s for r in replays],
        "setup_s_all": [sum(laps) for r in replays for laps in r["setup_laps"]],
        "service_counters": counters,
        "problems": problems,
    }
    if not args.trace:
        metrics = {
            "setup_s": fastest_sum([laps for r in plain for laps in r["setup_laps"]]),
            "run_s": run_s,
            "events_per_s": len(plain[0]["result"].outcomes) / run_s,
            "peak_rss_mb": rss,
        }
    else:
        traced = [r for r in replays if r["traced"]]
        metrics = _mean_layers([r["spans"] for r in traced])
        queries = counters.get("service.queries", 0.0)
        live = counters.get("service.live_success", 0.0) + counters.get(
            "service.live_failure", 0.0
        )
        metrics.update(
            {
                "service.query_p50_ms": latency["p50"],
                "service.query_p99_ms": latency["p99"],
                "service.fresh_hit_frac": counters.get("service.ok_cached", 0.0) / queries,
                "service.live_per_key_epoch": (
                    live / counts["live_pairs"] if counts["live_pairs"] else 0.0
                ),
                "service.fail_frac": (counts["rejected_or_failed"] + counts["non_terminal"])
                / counts["submitted"],
                "service.degraded_frac": counts["degraded"] / counts["submitted"],
                "bench.generator_lag_p99_ms": percentile(lags, 99) * 1e3,
                "bench.span_overhead_frac": (
                    fastest_sum([r["result"].window_cpu_s for r in traced]) / run_s - 1.0
                ),
            }
        )
        problems.extend(
            _missing_layers(metrics, ("service", "service.snapshot", "core.synthesis"))
        )
    out = {
        "correct": not problems,
        "attempted": sum(r["verdict"].submitted for r in replays),
        "failed": sum(r["verdict"].failed for r in replays),
        "metrics": metrics,
    }
    return out, detail


def _service_span_metrics(tracing, t0: float, t1: float) -> Dict[str, float]:
    """The figures of one traced replay that only the spans can give."""
    calls, self_s = tracing.rec.totals()
    out: Dict[str, float] = {}
    for layer in _layers():
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out.update(
        {
            "service.bulkhead_wait_p99_ms": percentile(tracing.bulkhead_waits, 99) * 1e3,
            "core.synthesis.compose_ms_p50": percentile(tracing.compose_s, 50) * 1e3,
            "bench.unattributed_frac": 1.0 - tracing.rec.covered_s(t0, t1) / (t1 - t0),
        }
    )
    return out


# -------------------------------------------------------------- per-layer


def _layers():
    from spans import LAYERS

    return LAYERS


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for layer in _layers():
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [
        ("sim.kernel.events", "count"),
        ("sim.calendar.depth_max", "count"),
        ("net.stack.fanout_mean", "rx/tx"),
        ("net.stack.rx_per_tx", "ratio"),
        ("net.routing.tx_per_delivery", "ratio"),
        ("net.routing.dup_frac", "fraction"),
        ("net.transport.retransmits", "count"),
        ("faults.node_transitions", "count"),
        ("obs.tracing.records", "count"),
        ("obs.tracing.us_per_event", "us"),
        ("service.query_p50_ms", "ms"),
        ("service.query_p99_ms", "ms"),
        ("service.fresh_hit_frac", "fraction"),
        ("service.live_per_key_epoch", "ratio"),
        ("service.bulkhead_wait_p99_ms", "ms"),
        ("service.fail_frac", "fraction"),
        ("service.degraded_frac", "fraction"),
        ("core.synthesis.compose_ms_p50", "ms"),
        ("bench.unattributed_frac", "fraction"),
        ("bench.span_overhead_frac", "fraction"),
        ("bench.generator_lag_p99_ms", "ms"),
    ]
    return names


def _mean_layers(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}


def _missing_layers(metrics: Dict[str, float], active) -> List[str]:
    return [
        f"layer {layer} reported 0 calls; an entry point escaped the wrappers"
        for layer in active
        if not metrics.get(f"{layer}.calls")
    ]


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    _load_program()

    if args.workload == "service_churn":
        why, runner = SERVICE_WHY, run_service
    else:
        from worlds import SIM_WORKLOADS

        why, runner = SIM_WORKLOADS[args.workload].why, run_sim
    context = host_context(args, why)
    context["load_before"] = os.getloadavg()
    result, detail = runner(args)
    context["load_after"] = os.getloadavg()

    units = END_TO_END if not args.trace else dict(per_layer_names())
    unknown = set(result["metrics"]) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from the report table: {sorted(unknown)}")
    # A layer metric the workload never reaches (service queues on a
    # simulation, say) reads 0.
    metrics = {
        name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    result["metrics"] = metrics
    for problem in detail.get("problems", []):
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload:>18} {name:<32} {m['value']:>16.6g} {m['unit']}")
    if "query_latency_ms" in detail:
        # Reported, not bounded: the tail swings with each epoch's
        # recomposition burst far more than any bound allows.
        latency = detail["query_latency_ms"]
        for q in ("p50", "p90", "p99"):
            print(
                f"{args.workload:>18} {'query_' + q + '_ms':<32} {latency[q]:>16.6g} ms"
                f"  (n={latency['samples']}, from due time)"
            )
        for key in ("degraded", "rejected_or_failed"):
            frac = detail[key] / detail["submitted"]
            print(f"{args.workload:>18} {'query_' + key + '_frac':<32} {frac:>16.6g} fraction")
    print("RECORD " + json.dumps({"context": context, "detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
