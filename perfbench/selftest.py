#!/usr/bin/env python3
"""The benchmark's test of itself: it must catch what it claims to catch.

    python3 perfbench/selftest.py

Checks, each printed PASS or FAIL (exit 1 on any failure):

* the metric names and units printed by ``run.py`` are the ones
  ``BENCHMARK.json`` declares;
* every pinned digest reproduces, and a different seed changes it;
* a traced run in which one layer's entry points escape the wrappers
  fails with that layer at zero calls;
* a busy-wait injected into ``net.channel`` shows in
  ``net.channel.self_s`` (and in no other layer) and in
  ``aodv_churn_traced``'s ``run_s`` (route-request floods ask the channel
  for every receiver), and not in ``geo_streams``, whose traced channel
  calls cannot carry it (its effect on ``service_churn``, whose epoch
  rebuilds query the channel, is printed as a note);
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

Benchmark runs happen in this process, through ``run.main``; only the
bare-directory check starts a subprocess, because it needs another
working directory.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: Busy-wait per ``net.channel`` call; about +35% on aodv_churn_traced.
INJECT_US = 35.0
SECONDS = 8
SEED = 7

failures: List[str] = []


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}", flush=True)
    if not ok:
        failures.append(name)


def bench(
    workload: str, trace: int, seconds: float = SECONDS, inject_us: float = 0.0
) -> Tuple[int, str]:
    """Run the benchmark in this process; return its exit code and output.

    With ``inject_us``, every ``net.channel`` entry point spins that many
    microseconds for the length of the run.
    """
    import run
    import spans

    patch = spans.inject_busy("net.channel", inject_us) if inject_us else None
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = run.main(
                ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
                 "--trace", str(trace)]
            )
    finally:
        if patch is not None:
            patch.restore()
    return code, buf.getvalue()


def result_of(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def metrics_of(out: Tuple[int, str]) -> Dict[str, float]:
    code, text = out
    result = result_of(text)
    if code != 0 or not result["correct"]:
        raise SystemExit(f"benchmark run failed its output check:\n{text[-3000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_table() -> None:
    import run

    spec = load_spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check("end-to-end table", declared == run.END_TO_END, f"{sorted(declared)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check("per-layer table", declared == dict(run.per_layer_names()), f"{len(declared)} metrics")
    names = [w["name"] for w in spec["workloads"]]
    check("workload list", names == list(run.WORKLOADS), f"{names}")


def test_digests() -> None:
    from worlds import REFERENCE_SEED, SIM_WORKLOADS, behaviour_digest

    for wl in SIM_WORKLOADS.values():
        digests = []
        for seed in (REFERENCE_SEED, REFERENCE_SEED + 1):
            cells = wl.build(seed)
            for world in cells:
                world.run()
            digests.append(behaviour_digest(cells)[0])
        check(
            f"{wl.name} pinned digest",
            digests[0] == wl.reference_digest,
            f"{digests[0][:16]} vs pinned {wl.reference_digest[:16]}",
        )
        check(
            f"{wl.name} seed changes digest",
            digests[0] != digests[1],
            f"seed {REFERENCE_SEED}: {digests[0][:16]}, seed {REFERENCE_SEED + 1}: "
            f"{digests[1][:16]}",
        )


def test_missed_entry_point() -> None:
    """Drop net.mac from the wrapper table: the traced run must fail."""
    import spans

    saved = spans.ENTRY_POINTS["net.mac"]
    spans.ENTRY_POINTS["net.mac"] = []
    try:
        code, text = bench("geo_streams", 1, seconds=1)
    finally:
        spans.ENTRY_POINTS["net.mac"] = saved
    result = result_of(text)
    check(
        "missed entry point fails the traced run",
        code != 0 and not result["correct"] and "net.mac" in text,
        f"exit {code}, correct={result['correct']}",
    )


def test_injected_slowdown() -> None:
    import run

    bound = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}["run_s"]
    run_s: Dict[str, Dict[str, List[float]]] = {}
    for workload in ("aodv_churn_traced", "geo_streams", "service_churn"):
        run_s[workload] = {"plain": [], "inject": []}
        # Two alternating pairs, so host drift hits both arms alike.
        for arm in ("plain", "inject", "inject", "plain"):
            out = bench(workload, 0, inject_us=INJECT_US if arm == "inject" else 0.0)
            run_s[workload][arm].append(metrics_of(out)["run_s"])
    traced = {arm: metrics_of(bench("aodv_churn_traced", 1, inject_us=us))
              for arm, us in (("plain", 0.0), ("inject", INJECT_US))}
    geo_traced = metrics_of(bench("geo_streams", 1))
    svc_traced = metrics_of(bench("service_churn", 1))

    def ratio(workload: str) -> float:
        arms = run_s[workload]
        return statistics.median(arms["inject"]) / statistics.median(arms["plain"])

    calls = traced["inject"]["net.channel.calls"]
    expected_s = calls * INJECT_US * 1e-6
    growth = {
        layer: traced["inject"][f"{layer}.self_s"] - traced["plain"][f"{layer}.self_s"]
        for layer in run._layers()
    }
    top = max(growth, key=growth.get)
    check(
        "aodv_churn_traced net.channel.self_s",
        growth["net.channel"] >= 0.8 * expected_s and top == "net.channel",
        f"+{growth['net.channel']:.3f} s for {calls:.0f} calls x {INJECT_US:g} us "
        f"(expected +{expected_s:.3f} s); largest growth in {top}",
    )
    plain_run = statistics.median(run_s["aodv_churn_traced"]["plain"])
    predicted = 1.0 + expected_s / plain_run
    check(
        "aodv_churn_traced run_s",
        ratio("aodv_churn_traced") >= 1.0 + 0.5 * (predicted - 1.0),
        f"x{ratio('aodv_churn_traced'):.3f} (calls predict x{predicted:.3f})",
    )
    # geo_streams reaches the channel only on PHY pair-cache misses, so the
    # injection cannot show there.
    share = geo_traced["net.channel.calls"] * INJECT_US * 1e-6 / statistics.median(
        run_s["geo_streams"]["plain"]
    )
    check(
        "geo_streams run_s",
        share < 0.02 and ratio("geo_streams") < 1.0 + bound,
        f"x{ratio('geo_streams'):.3f}; {geo_traced['net.channel.calls']:.0f} traced "
        f"channel calls predict +{share:.2%}",
    )
    # service_churn does reach the channel: SnapshotHub.publish builds the
    # topology from per-pair delivery probabilities.  A slower publish
    # blocks the event loop longer, more queries miss the fresh cache at
    # once and recompose the same (goal, epoch), so the CPU cost grows by
    # more than the injected time itself.  Reported, not judged.
    share = svc_traced["net.channel.calls"] * INJECT_US * 1e-6 / statistics.median(
        run_s["service_churn"]["plain"]
    )
    print(
        f"NOTE: service_churn run_s x{ratio('service_churn'):.3f} under the "
        f"injection; its {svc_traced['net.channel.calls']:.0f} traced channel calls "
        f"(all from epoch publishes) cost +{share:.2%} directly",
        flush=True,
    )


def test_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
             "geo_streams", "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    printed_result = any(line.startswith("{") for line in out.stdout.splitlines())
    check(
        "bare directory exits non-zero",
        out.returncode != 0 and not printed_result,
        f"exit {out.returncode}, stderr {out.stderr.strip()[:80]!r}",
    )


if __name__ == "__main__":
    import run

    run._load_program()
    test_metric_table()
    test_bare_directory()
    test_missed_entry_point()
    test_digests()
    test_injected_slowdown()
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)
