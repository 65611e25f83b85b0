"""The ``service_churn`` workload: open-loop queries against a churning hub.

A 150-asset ``standard_scenario``-style inventory is served by a
``SynthesisService`` whose bulkhead width equals the host's core count.
32 surveillance goals get Zipf popularity; arrivals are Poisson at
``RATE_QPS`` and each query has a 1 s deadline.  Every ``EPOCH_EVERY``
arrivals the generator fails 1% of the up nodes and publishes a new
epoch, which blocks the event loop and invalidates every fresh answer, so
reads (fresh-cache hits) and writes (epoch rebuilds followed by
recompositions) hit the same caches.  A run replays the same
``REPLAY_S``-second schedule on fresh worlds and records the process CPU
time of each window of ``WINDOW_ARRIVALS`` arrivals, so windows of
identical work can be compared across replays.

The inventory size keeps the service below saturation.  At 1,000 assets
a live composition takes ~80 ms while holding the interpreter lock, and
the service saturates.  At 300 assets (~15-20 ms) it sits near a tipping
point: every query for a goal that arrives while the goal's first
recomposition after an epoch is still queued recomposes it again, so a
slower host lengthens the burst, which breeds more duplicates; process
CPU per run ranged 5.9-10.9 s over ten seeds (interquartile range 47% of
the median).  At 150 assets a composition takes ~4 ms and the burst stays
short.

Each query is timed from its due time, not from when the generator got
round to sending it, so a stalled loop is charged to the queries it
delays; the generator's own lateness is reported separately.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import ScenarioBuilder, Simulator
from repro.core.mission import MissionGoal, MissionType
from repro.core.synthesis.composer import GreedyComposer
from repro.core.synthesis.optimizer import evaluate_composite
from repro.core.synthesis.requirements import compile_goal
from repro.service import SnapshotHub, SynthesisQuery, SynthesisService
from repro.service.service import OutcomeStatus, QueryOutcome
from repro.service.snapshot import InventorySnapshot
from repro.things.capabilities import SensingModality
from repro.util.geometry import Region

N_ASSETS = 150
N_GOALS = 32
ZIPF_S = 1.1
RATE_QPS = 100.0
EPOCH_EVERY = 125
CHURN_FRACTION = 0.01
#: Open-loop seconds of arrivals in one replay of the schedule.
REPLAY_S = 10.0
#: Arrivals per CPU-time window of a replay.
WINDOW_ARRIVALS = 25
DEADLINE_S = 1.0
MAX_STALE_S = 60.0
#: Seed of the inventory layout, the same for every run.  Layout alone
#: moved set-up and service CPU time by up to 25% between seeds, so the
#: run's seed drives the arrivals, goal picks, churn and the service's own
#: randomness instead.
INVENTORY_SEED = 0

#: Outcome fields compared against a direct composition (``stored_at``
#: and ``epoch`` are bookkeeping, not part of the answer).
ANSWER_FIELDS = (
    "sink",
    "sensors",
    "compute",
    "relays",
    "members",
    "coverage",
    "total_flops",
    "connected_fraction",
    "satisfied",
    "score",
)


def service_width() -> int:
    return len(os.sched_getaffinity(0))


def build_goals(region: Region) -> List[MissionGoal]:
    """32 overlapping surveillance windows on an 8 x 4 lattice."""
    width = region.x_max - region.x_min
    height = region.y_max - region.y_min
    span_x, span_y = 0.4 * width, 0.4 * height
    goals = []
    for i in range(N_GOALS):
        col, row = i % 8, i // 8
        x0 = region.x_min + (width - span_x) * col / 7
        y0 = region.y_min + (height - span_y) * row / 3
        goals.append(
            MissionGoal(
                MissionType.SURVEIL,
                Region(x0, y0, x0 + span_x, y0 + span_y),
                min_coverage=0.3,
                modalities=frozenset(
                    {SensingModality.SEISMIC, SensingModality.ACOUSTIC}
                ),
                name=f"goal-{i}",
            )
        )
    return goals


@dataclass
class Schedule:
    """Arrival offsets (s) and goal indices, generated from the seed."""

    due_s: List[float]
    goal_idx: List[int]
    churn_rng: np.random.Generator


def build_schedule(seed: int) -> Schedule:
    rng = np.random.default_rng([seed, 1])
    n = int(round(RATE_QPS * REPLAY_S))
    due = np.cumsum(rng.exponential(1.0 / RATE_QPS, n))
    # Goal i has popularity rank i + 1 for every seed: composition cost
    # differs between goals, and reshuffling which goals are hot made the
    # tail depend on the seed more than on the service.
    popularity = np.arange(1, N_GOALS + 1, dtype=float) ** -ZIPF_S
    popularity /= popularity.sum()
    picks = rng.choice(N_GOALS, n, p=popularity)
    return Schedule(
        [float(t) for t in due],
        [int(g) for g in picks],
        np.random.default_rng([seed, 2]),
    )


@dataclass
class ServiceWorld:
    hub: SnapshotHub
    service: SynthesisService
    goals: List[MissionGoal]
    #: Every published epoch, kept for the off-the-clock answer check.
    epochs: Dict[int, InventorySnapshot] = field(default_factory=dict)
    #: Seconds of each set-up step: inventory, first epoch, service start,
    #: then one per primed goal.
    setup_laps: List[float] = field(default_factory=list)

    def publish(self) -> None:
        snapshot = self.hub.publish()
        self.epochs[snapshot.epoch] = snapshot


async def build_world(seed: int) -> ServiceWorld:
    """Inventory, first epoch, a started service, every goal primed once."""
    laps: List[float] = []
    t = time.perf_counter()

    def lap() -> None:
        nonlocal t
        now = time.perf_counter()
        laps.append(now - t)
        t = now

    sim = Simulator(seed=INVENTORY_SEED)
    blocks = max(4, int(np.sqrt(N_ASSETS / 2.0)))
    scenario = (
        ScenarioBuilder(sim)
        .urban_grid(blocks=blocks, block_size_m=100.0, density=0.4)
        .population(n_blue=N_ASSETS, n_red=0, n_gray=0)
        .build()
    )
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    service = SynthesisService(
        hub,
        backends={"greedy": GreedyComposer()},
        max_concurrent=service_width(),
        seed=seed,
    )
    world = ServiceWorld(hub, service, build_goals(scenario.region), setup_laps=laps)
    lap()
    world.publish()
    lap()
    await service.start()
    lap()
    for goal in world.goals:
        outcome = await service.submit(SynthesisQuery(goal=goal, deadline_s=60.0))
        if outcome.status is not OutcomeStatus.OK:
            raise RuntimeError(f"priming {goal.name} failed: {outcome.reason}")
        lap()
    return world


@dataclass
class PhaseResult:
    outcomes: List[Optional[QueryOutcome]]
    goal_idx: List[int]
    #: Seconds from each query's due time to its terminal outcome.
    latencies: List[float]
    #: Seconds the generator was late for each arrival.
    lags: List[float]
    wall_s: float
    cpu_s: float
    #: Process CPU seconds per window of ``WINDOW_ARRIVALS`` arrivals; the
    #: last window runs on until every outcome is in.
    window_cpu_s: List[float]
    counters: Dict[str, float]


def _service_counters(service: SynthesisService) -> Dict[str, float]:
    return {
        name: inst["value"]
        for name, inst in service.metrics.snapshot().items()
        if inst["kind"] == "counter"
    }


async def run_phase(world: ServiceWorld, schedule: Schedule) -> PhaseResult:
    """Drive the open-loop schedule and wait for every outcome."""
    loop = asyncio.get_running_loop()
    service, goals = world.service, world.goals
    n = len(schedule.due_s)
    outcomes: List[Optional[QueryOutcome]] = [None] * n
    latencies: List[float] = [0.0] * n
    lags: List[float] = []
    before = _service_counters(service)

    async def one(i: int, due: float) -> None:
        query = SynthesisQuery(
            goal=goals[schedule.goal_idx[i]],
            deadline_s=DEADLINE_S,
            max_stale_s=MAX_STALE_S,
            query_id=str(i),
        )
        outcomes[i] = await service.submit(query)
        latencies[i] = loop.time() - due

    tasks = []
    windows: List[float] = []
    cpu0 = cpu = time.process_time()
    start = loop.time()
    for i, offset in enumerate(schedule.due_s):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - due))
        if i and i % WINDOW_ARRIVALS == 0:
            now = time.process_time()
            windows.append(now - cpu)
            cpu = now
        if i and i % EPOCH_EVERY == 0:
            _churn(world, schedule.churn_rng)
        tasks.append(asyncio.ensure_future(one(i, due)))
    await asyncio.gather(*tasks, return_exceptions=True)
    wall_s = loop.time() - start
    now = time.process_time()
    windows.append(now - cpu)
    cpu_s = now - cpu0
    after = _service_counters(service)
    counters = {k: v - before.get(k, 0.0) for k, v in after.items()}
    return PhaseResult(
        outcomes, schedule.goal_idx, latencies, lags, wall_s, cpu_s, windows, counters
    )


def _churn(world: ServiceWorld, rng: np.random.Generator) -> None:
    """Fail 1% of the up nodes, then publish an epoch (on the loop)."""
    network = world.hub.network
    up = sorted(node.id for node in network.up_nodes())
    k = max(1, int(round(CHURN_FRACTION * len(up))))
    for node_id in rng.choice(up, size=k, replace=False):
        network.fail_node(int(node_id))
    world.publish()


def _expected_answer(goal: MissionGoal, snapshot: InventorySnapshot) -> Dict[str, Any]:
    composite = GreedyComposer().compose(
        compile_goal(goal), snapshot.pool(), snapshot.topology
    )
    return {
        "sink": composite.sink,
        "sensors": list(composite.sensors),
        "compute": list(composite.compute),
        "relays": list(composite.relays),
        "members": composite.size,
        "coverage": composite.coverage,
        "total_flops": composite.total_flops,
        "connected_fraction": composite.connected_fraction,
        "satisfied": bool(composite.satisfies()),
        "score": evaluate_composite(composite),
    }


@dataclass
class Verdict:
    submitted: int
    non_terminal: int
    rejected_or_failed: int
    degraded: int
    ok: int
    mismatched: int
    live_pairs: int

    @property
    def failed(self) -> int:
        """Queries that did not get a correct, current answer."""
        return self.non_terminal + self.rejected_or_failed + self.degraded + self.mismatched


def check_phase(world: ServiceWorld, phase: PhaseResult) -> Verdict:
    """Every query terminal; every current ``ok`` answer recomputed directly.

    Runs after the timed phase, off the clock.  Answers are grouped by
    (goal, epoch) so each distinct question is composed once.
    """
    terminal = {s for s in OutcomeStatus}
    expected: Dict[Tuple[int, int], Dict[str, Any]] = {}
    counts = dict(non_terminal=0, rejected_or_failed=0, degraded=0, ok=0, mismatched=0)
    live_pairs = set()
    for outcome, g in zip(phase.outcomes, phase.goal_idx):
        if outcome is None or outcome.status not in terminal:
            counts["non_terminal"] += 1
        elif outcome.status in (OutcomeStatus.REJECTED, OutcomeStatus.FAILED):
            counts["rejected_or_failed"] += 1
        elif outcome.degraded:
            counts["degraded"] += 1
        else:
            counts["ok"] += 1
            key = (g, outcome.epoch)
            if not outcome.cached:
                live_pairs.add(key)
            if key not in expected:
                expected[key] = _expected_answer(world.goals[g], world.epochs[outcome.epoch])
            want = expected[key]
            if any(outcome.answer.get(f) != want[f] for f in ANSWER_FIELDS):
                counts["mismatched"] += 1
    return Verdict(len(phase.outcomes), live_pairs=len(live_pairs), **counts)
