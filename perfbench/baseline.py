#!/usr/bin/env python3
"""Record a trajectory point: every workload over ten seeds.

Runs ``run.py`` once per (workload, seed) with ``--trace 0``, then one
traced run per workload, and writes the medians, quartiles and spread
(interquartile range over median) of every metric to ``baseline.json``
beside this script::

    python3 perfbench/baseline.py

Seeds are visited round-robin across workloads so slow drift of the host
spreads over all of them instead of biasing one.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
SECONDS = 30.0
OUT = os.path.join(HERE, "baseline.json")

NOT_COMPARABLE = (
    "The BENCH_pr*.json artifacts used other workloads, schemas and "
    "statistics; their numbers are not comparable with this trajectory."
)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    record = next(
        (json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD ")),
        {},
    )
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        raise SystemExit(
            f"{workload} seed {seed} failed (exit {out.returncode}):\n"
            f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}"
        )
    return {"result": result, "record": record}


def summarize(values: List[float]) -> Dict[str, Any]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            run = run_once(workload, seed, SECONDS, 0)
            runs[workload].append(run)
            values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)

    out: Dict[str, Any] = {"note": NOT_COMPARABLE, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        traced = run_once(workload, SEEDS[0], SECONDS, 1)
        first = runs[workload][0]["record"]["context"]
        metrics = {
            name: dict(summarize([r["result"]["metrics"][name]["value"] for r in runs[workload]]),
                       unit=spec["unit"])
            for name, spec in runs[workload][0]["result"]["metrics"].items()
        }
        out["workloads"][workload] = {
            "why": first["why"],
            "end_to_end": metrics,
            "per_layer_seed": SEEDS[0],
            "per_layer": {
                k: v["value"] for k, v in traced["result"]["metrics"].items()
            },
            "load": [
                (r["record"]["context"]["load_before"][0], r["record"]["context"]["load_after"][0])
                for r in runs[workload]
            ],
        }
        for name, m in metrics.items():
            print(f"{workload:>18} {name:<16} median {m['median']:12.6g} spread {m['spread']:.4f}")
    ctx = runs[WORKLOADS[0]][0]["record"]["context"]
    out["host"] = {k: ctx[k] for k in ("cpu_count", "python", "numpy", "commit", "source_sha256")}
    out["seconds"] = SECONDS
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
