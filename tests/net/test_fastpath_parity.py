"""Run-to-run identity of the network stack, bit for bit.

The stack has one delivery path (scalar verdict compares, batched slab
draws for broadcast fan-out).  These tests pin that it is deterministic
end to end: the AODV + reliable-transport scenario — node churn, a link
cut, a packet gremlin, retransmission timers — and the flooding broadcast
scenario each produce the identical trace fingerprint on two fresh builds,
equal to GOLDEN, and a forensics manifest stamped by one run replays clean
in every later replay.
"""

from __future__ import annotations

import os

from repro.obs.forensics import manifest_path
from repro.obs.report import main as obs_main
from repro.shard.engine import run_serial
from repro.shard.spec import ShardScenarioSpec, WorkloadSpec
from tests.net.stack_scenarios import FINGERPRINT_SCENARIOS
from tests.net.test_stack_fingerprint import GOLDEN


# ------------------------------------------------- scenario-level identity


def test_aodv_churn_fingerprint_identical_across_paths():
    """The full AODV + churn + gremlin world, built twice, against GOLDEN.

    A fresh Network is built for each run, so no state (slab draws, route
    tables, timers) can leak from the first run into the second.
    """
    scenario = FINGERPRINT_SCENARIOS["aodv_reliable"]
    first = scenario()
    second = scenario()
    assert first == second
    assert first == GOLDEN["aodv_reliable"]


def test_flooding_broadcast_fingerprint_identical_across_paths():
    """Broadcast fan-out is the batched slab-draw path; pin it separately."""
    scenario = FINGERPRINT_SCENARIOS["flooding"]
    first = scenario()
    second = scenario()
    assert first == second
    assert first == GOLDEN["flooding"]


# ----------------------------------------------- forensics replay crosses


def _world(seed: int = 42) -> ShardScenarioSpec:
    return ShardScenarioSpec(
        seed=seed,
        kind="uniform",
        n_nodes=10,
        spacing_m=110.0,
        workload=WorkloadSpec(rate_hz=1.5),
    )


def test_fast_run_manifest_replays_clean_under_scalar_path(
    tmp_path, monkeypatch, capsys
):
    """A manifest stamped by a run replays exit-0, and keeps doing so on a
    second replay in the same process — replay leaves no state behind that
    would change a later verdict."""
    ring_dir = tmp_path / "rings"
    monkeypatch.setenv("REPRO_OBS_RING_DIR", str(ring_dir))
    run_serial(_world(), 6.0, checkpoint_interval_s=2.0)
    monkeypatch.delenv("REPRO_OBS_RING_DIR")
    (ring,) = [
        str(ring_dir / name)
        for name in sorted(os.listdir(ring_dir))
        if name.endswith(".ring")
    ]
    manifest = manifest_path(ring)
    assert obs_main(["replay", manifest]) == 0
    assert obs_main(["replay", manifest]) == 0
    out = capsys.readouterr().out
    assert out.count("REPLAY OK") == 2
