"""The simulation workloads: world builders and the behaviour digest.

Each builder turns a seed into a world of one or more independent cells,
each with its own nodes, router, transport, faults and traffic schedule.
All benchmark-side randomness (stream pairs, node placement, arrival
times) comes from ``numpy.random.default_rng`` over the cell's seed; the
program receives only the generated schedule plus a ``Simulator`` seeded
with the same number.

The behaviour digest is the output check.  It covers the delivered
``(src, dst, message seq, sim time)`` multiset, every counter on both
metric planes, and per-stream RNG draw counts.  Packet uids come from a
process-global counter, so they are left out: repetitions in one process
must digest identically.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.faults import FaultInjector
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import AodvRouter, GreedyGeoRouter
from repro.net.transport import MessageService, ReliableMessageService
from repro.sim import Simulator
from repro.util.geometry import Point


@dataclass
class World:
    """One built world, ready for ``Simulator.run`` to its horizon."""

    sim: Simulator
    transport: Any
    horizon: float
    #: (src, dst, message seq, sim time) of every delivery.
    delivered: List[Tuple[int, int, int, float]] = field(default_factory=list)
    #: Seconds of each build step, in order (see :class:`Laps`).
    setup_laps: List[float] = field(default_factory=list)

    def run(self) -> None:
        self.sim.run(until=self.horizon)


class Laps(list):
    """Seconds of each step of a world build, appended by ``lap()``."""

    def __init__(self) -> None:
        super().__init__()
        self._t = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.append(now - self._t)
        self._t = now


def _schedule_traffic(
    world: World, schedule: List[Tuple[float, int, int]]
) -> None:
    """Send message ``k`` from ``src`` to ``dst`` at virtual time ``t``."""
    sim, svc = world.sim, world.transport
    delivered = world.delivered

    def on_message(packet) -> None:
        delivered.append((packet.src, packet.dst, packet.payload, sim.now))

    for dst in sorted({d for _, _, d in schedule}):
        svc.on_message(dst, on_message)

    def sender(seq: int, src: int, dst: int) -> Callable[[], None]:
        def send() -> None:
            svc.send(src, dst, payload=seq)

        return send

    for seq, (t, src, dst) in enumerate(schedule):
        sim.call_at(t, sender(seq, src, dst))


def _grid_network(sim: Simulator, side: int, spacing_m: float) -> Network:
    net = Network(sim, Channel(seed=sim.rng.seed))
    node_id = 1
    for row in range(side):
        for col in range(side):
            net.create_node(node_id, Point(col * spacing_m, row * spacing_m))
            node_id += 1
    return net


# ------------------------------------------------------------- geo_streams

GEO_SIDE = 71
GEO_SPACING_M = 60.0
GEO_STREAMS = 256
GEO_MESSAGES = 20_000
GEO_GAP_S = 0.002


def build_geo_streams(seed: int) -> List[World]:
    """Persistent greedy-geo streams, 3-10 grid steps apart, on 5,041 nodes."""
    laps = Laps()
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    net = _grid_network(sim, GEO_SIDE, GEO_SPACING_M)
    laps.lap()
    router = GreedyGeoRouter(net)
    router.attach_all(sorted(net.nodes))
    horizon = GEO_MESSAGES * GEO_GAP_S + 0.5
    world = World(sim, MessageService(router), horizon, setup_laps=laps)
    laps.lap()
    streams = []
    while len(streams) < GEO_STREAMS:
        row, col = (int(v) for v in rng.integers(0, GEO_SIDE, 2))
        drow, dcol = (int(v) for v in rng.integers(-5, 6, 2))
        r2, c2 = row + drow, col + dcol
        if abs(drow) + abs(dcol) < 3 or not (
            0 <= r2 < GEO_SIDE and 0 <= c2 < GEO_SIDE
        ):
            continue
        streams.append((row * GEO_SIDE + col + 1, r2 * GEO_SIDE + c2 + 1))
    schedule = [
        (k * GEO_GAP_S, *streams[k % GEO_STREAMS]) for k in range(GEO_MESSAGES)
    ]
    laps.lap()
    _schedule_traffic(world, schedule)
    laps.lap()
    return [world]


# ------------------------------------------------------- aodv_churn_traced

AODV_CELLS = 4
AODV_SIDE = 9
AODV_NODES = AODV_SIDE * AODV_SIDE - 1
AODV_SPACING_M = 85.0
AODV_JITTER_M = 25.0
AODV_MESSAGES = 100
AODV_TRAFFIC_END_S = 50.0
AODV_HORIZON_S = 60.0


def build_aodv_churn_traced(seed: int) -> List[World]:
    """Four independent AODV + end-to-end ARQ cells under churn, traced.

    Route discoveries and retransmissions make a message's cost
    heavy-tailed, so one cell's run time follows the few messages its
    seed happens to make expensive; four cells of 100 messages nearly
    halve that spread against one cell of 200 (event-count spread 0.06
    against 0.11 over two dozen seeds).  Each cell stays far below the
    trace's in-emit compaction watermark (``COMPACT_WATERMARK``, 262,144
    staged records; a cell stages 100k-155k): a cell that crosses it
    packs every staged record inside ``Simulator.run``, which put 40-80%
    on run time and memory on the seeds whose one 200-message cell did.
    """
    return [_aodv_cell(seed * AODV_CELLS + k) for k in range(AODV_CELLS)]


def _aodv_cell(seed: int) -> World:
    """AODV + end-to-end ARQ on 80 jittered-grid nodes under churn, traced.

    Nodes sit on a 9 x 9 lattice (one site empty) jittered by up to 25 m,
    so every seed gets a connected ~700 m field of similar density; fully
    random placement made the route-discovery load, and with it the run
    time, depend mostly on how connected each seed's topology happened
    to be.
    """
    laps = Laps()
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = Network(sim, Channel(seed=seed))
    for node_id in range(1, AODV_NODES + 1):
        row, col = divmod(node_id - 1, AODV_SIDE)
        dx, dy = rng.uniform(-AODV_JITTER_M, AODV_JITTER_M, 2)
        net.create_node(
            node_id,
            Point(col * AODV_SPACING_M + float(dx), row * AODV_SPACING_M + float(dy)),
        )
    laps.lap()
    router = AodvRouter(net)
    router.attach_all(sorted(net.nodes))
    world = World(sim, ReliableMessageService(router), AODV_HORIZON_S, setup_laps=laps)
    laps.lap()
    injector = FaultInjector(net)
    injector.node_churn(mtbf_s=120.0, mean_downtime_s=15.0)
    injector.link_flaps(n_links=10, mtbf_s=30.0, mean_downtime_s=10.0)
    injector.gremlin(drop_p=0.01, duplicate_p=0.01, delay_p=0.01)
    laps.lap()
    times = np.sort(rng.uniform(0.0, AODV_TRAFFIC_END_S, AODV_MESSAGES))
    schedule = []
    for t in times:
        src, dst = (int(v) + 1 for v in rng.choice(AODV_NODES, 2, replace=False))
        schedule.append((float(t), src, dst))
    laps.lap()
    _schedule_traffic(world, schedule)
    laps.lap()
    return world


# ------------------------------------------------------------------ digest


def behaviour_digest(cells: List[World]) -> Tuple[str, Dict[str, int]]:
    """SHA-256 over deliveries, counters and RNG draws, plus their sizes.

    Sizes are totals over the cells.  Raises ``ValueError`` when any part
    of any cell is empty: a digest of nothing would let a broken world pass.
    """
    digested = []
    sizes: Dict[str, int] = {}
    for world in cells:
        sim = world.sim
        counters = sorted(
            (name, inst["value"])
            for name, inst in sim.registry.snapshot().items()
            if inst["kind"] == "counter"
        )
        recorded = sorted(sim.metrics.counters().items())
        draws = sim.rng.draw_counts()
        parts = {
            "delivered": sorted(world.delivered),
            "counters": counters,
            "recorded": recorded,
            "draws": sorted(draws.items()),
        }
        empty = [name for name, part in parts.items() if not part]
        if empty:
            raise ValueError(f"behaviour digest has empty parts: {', '.join(empty)}")
        for name, part in parts.items():
            sizes[name] = sizes.get(name, 0) + len(part)
        digested.append(parts)
    blob = json.dumps(digested, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), sizes


# ---------------------------------------------------------------- catalog

#: Seed whose digests are pinned below; every run re-derives its world
#: off the clock and compares, so behaviour drift fails any run.
REFERENCE_SEED = 0

_NET_LAYERS = (
    "sim.kernel",
    "sim.calendar",
    "net.stack",
    "net.mac",
    "net.node",
    "net.routing",
    "net.transport",
)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    #: Seed -> the world's independent cells, run one after another.
    build: Callable[[int], List[World]]
    #: Layers the traced run must see called; zero calls means a bound or
    #: inlined entry point escaped the wrappers.
    active_layers: Tuple[str, ...]
    #: Behaviour digest of ``build(REFERENCE_SEED)`` run to its horizon.
    reference_digest: str
    why: str
    #: Worlds built back to back per repetition; each step's set-up sample
    #: is its mean over the batch, so a world that builds in milliseconds
    #: is timed over enough work that timer and scheduler noise averages out.
    setup_batch: int = 1


SIM_WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            "geo_streams",
            build_geo_streams,
            _NET_LAYERS,
            "0819ff7893e0a9bc0bbf4febda637d257636696340c5bb61cea2bca224c94286",
            "Hot-cache regime: persistent streams reuse the calendar queue, the "
            "dispatcher's unicast path and the next-hop/pair memos, so kernel "
            "and queue overhead take the largest share of the lowest-cost events.",
        ),
        SimWorkload(
            "aodv_churn_traced",
            build_aodv_churn_traced,
            _NET_LAYERS + ("net.channel", "faults", "obs.tracing"),
            "941dbfa8edb2635f7e7163c1bd174f963df9f9d61456b60ed8b35a55f828dae9",
            "Churn bumps topology and liveness versions, so memos are written as "
            "often as read; the only workload with RREQ/RERR, end-to-end "
            "retransmission, the fault layer and packet-tracing staging.",
            setup_batch=8,
        ),
    )
}
