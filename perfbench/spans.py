"""Per-layer spans recorded from outside the program.

The benchmark times calls into each layer's public entry points by
replacing those class attributes with timing wrappers for the length of a
traced phase; nothing under ``src/`` is edited.  Three kinds of boundary
are wrapped:

* public methods (``Channel.delivery_verdicts``, ``Router.on_receive``,
  ...) listed in :data:`ENTRY_POINTS`;
* kernel callbacks: every callable handed to ``Simulator.call_in_fast``,
  ``call_in``, ``call_at`` or ``every`` is wrapped at schedule time and
  charged to the layer of the module that defines it, so a packet
  completion closure counts as ``net.stack`` work and not kernel work;
* asyncio task steps: a task factory charges each step of a task whose
  coroutine is defined in the program to that module's layer, so the
  service's internal ``wait_for`` tasks are attributed too.

Wrappers must be installed before a world is built, because some entry
points are bound at construction (transport handlers, scheduled fault
timers).  Each thread keeps its own span stack (compositions run in
executor threads).  Spans are aggregated in memory as they close — calls
and self time (duration minus the time covered by child spans) per layer —
and read out at the end of the phase.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.synthesis.composer import GreedyComposer
from repro.net.channel import Channel
from repro.net.mac import ContentionMac
from repro.net.node import Network
from repro.net.routing import AodvRouter, GreedyGeoRouter
from repro.net.stack import FastPathDispatcher, FaultLayer
from repro.net.transport import MessageService, ReliableMessageService
from repro.obs.tracing import PacketTracer
from repro.service.admission import Bulkhead
from repro.service.service import SynthesisService
from repro.service.snapshot import SnapshotHub
from repro.sim import Simulator
from repro.sim.calendar import CalendarQueue

perf = time.perf_counter

#: Layers in report order, named after the program's modules.
LAYERS = (
    "sim.kernel",
    "sim.calendar",
    "net.stack",
    "net.channel",
    "net.mac",
    "net.node",
    "net.routing",
    "net.transport",
    "faults",
    "obs.tracing",
    "service",
    "service.snapshot",
    "core.synthesis",
)

#: Public entry points timed per layer: (class, attribute names).
ENTRY_POINTS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "sim.kernel": [(Simulator, ("run",))],
    "sim.calendar": [(CalendarQueue, ("push", "pop"))],
    "net.stack": [(FastPathDispatcher, ("unicast", "broadcast"))],
    "net.channel": [
        (
            Channel,
            (
                "delivery_probability",
                "delivery_probability_batch",
                "delivery_verdicts",
            ),
        )
    ],
    "net.mac": [(ContentionMac, ("access",))],
    "net.node": [(Network, ("neighbors", "send", "broadcast"))],
    "net.routing": [
        (cls, ("send", "on_receive"))
        for cls in (GreedyGeoRouter, AodvRouter)
    ],
    "net.transport": [(MessageService, ("send",)), (ReliableMessageService, ("send",))],
    "faults": [(FaultLayer, ("link_blocked", "gremlin_verdict"))],
    "obs.tracing": [
        (
            PacketTracer,
            (
                "stamp_origin",
                "inherit",
                "on_enqueue",
                "on_rx",
                "on_drop",
                "on_drops",
                "drop_unsent",
                "on_retransmit",
                "on_custody",
                "on_route_drop",
                "on_deliver",
            ),
        )
    ],
    "service": [(SynthesisService, ("submit",)), (Bulkhead, ("acquire",))],
    "service.snapshot": [(SnapshotHub, ("publish",))],
    "core.synthesis": [(GreedyComposer, ("compose",))],
}

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.sim.calendar", "sim.calendar"),
    ("repro.sim.", "sim.kernel"),
    ("repro.net.stack", "net.stack"),
    ("repro.net.channel", "net.channel"),
    ("repro.net.mac", "net.mac"),
    ("repro.net.node", "net.node"),
    ("repro.net.routing.", "net.routing"),
    ("repro.net.transport", "net.transport"),
    ("repro.faults.", "faults"),
    ("repro.obs.tracing", "obs.tracing"),
    ("repro.service.snapshot", "service.snapshot"),
    ("repro.service.", "service"),
    ("repro.core.synthesis.", "core.synthesis"),
)

_layer_cache: Dict[str, Optional[str]] = {}


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or ``None`` outside the program."""
    if not module:
        return None
    layer = _layer_cache.get(module, "")
    if layer == "":
        layer = next(
            (name for prefix, name in _MODULE_LAYERS if module.startswith(prefix)),
            None,
        )
        _layer_cache[module] = layer
    return layer


def layer_of_callable(fn: Any) -> Optional[str]:
    if isinstance(fn, functools.partial):
        fn = fn.func
    return layer_of_module(getattr(fn, "__module__", None))


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "top")

    def __init__(self) -> None:
        #: Open spans: [layer, start, time covered by closed children].
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: (start, end) of spans closed with an empty stack.
        self.top: List[Tuple[float, float]] = []


class Recorder:
    """Per-thread span stacks aggregated into per-layer calls and self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                st.calls.clear()
                st.self_s.clear()
                st.top.clear()

    def totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        with self._lock:
            for st in self._states:
                for k, v in st.calls.items():
                    calls[k] = calls.get(k, 0) + v
                for k, v in st.self_s.items():
                    self_s[k] = self_s.get(k, 0.0) + v
        return calls, self_s

    def covered_s(self, t0: float, t1: float) -> float:
        """Wall time inside [t0, t1] covered by some top-level span."""
        with self._lock:
            spans = sorted(
                (max(a, t0), min(b, t1))
                for st in self._states
                for a, b in st.top
                if b > t0 and a < t1
            )
        covered = 0.0
        cur_a = cur_b = None
        for a, b in spans:
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            elif b > cur_b:
                cur_b = b
        if cur_b is not None:
            covered += cur_b - cur_a
        return covered


def _close(st: _ThreadState, layer: str, t0: float, child: float) -> None:
    """Close a span: count it, charge its self time, credit its parent.

    ``span_sync`` inlines the same steps, since it runs once per call on
    the simulator's hot path."""
    t1 = perf()
    dur = t1 - t0
    st.calls[layer] = st.calls.get(layer, 0) + 1
    st.self_s[layer] = st.self_s.get(layer, 0.0) + dur - child
    stack = st.stack
    if stack:
        stack[-1][2] += dur
    else:
        st.top.append((t0, t1))


def span_sync(rec: Recorder, layer: str, fn: Callable, hook=None) -> Callable:
    """Wrap a plain callable in a span; ``hook(args, result)`` observes it."""
    local, state = rec._local, rec.state

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            st = local.state
        except AttributeError:
            st = state()
        stack = st.stack
        frame = [layer, 0.0, 0.0]
        stack.append(frame)
        frame[1] = t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            dur = t1 - t0
            calls = st.calls
            calls[layer] = calls.get(layer, 0) + 1
            self_s = st.self_s
            self_s[layer] = self_s.get(layer, 0.0) + dur - frame[2]
            if stack:
                stack[-1][2] += dur
            else:
                st.top.append((t0, t1))
        if hook is not None:
            hook(args, result)
        return result

    return wrapper


class _TimedSteps:
    """Await a coroutine, timing each of its steps as one span."""

    __slots__ = ("coro", "layer", "rec")

    def __init__(self, coro, layer: str, rec: Recorder):
        self.coro, self.layer, self.rec = coro, layer, rec

    def __await__(self):
        coro, layer, rec = self.coro, self.layer, self.rec
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            st = rec.state()
            frame = [layer, perf(), 0.0]
            st.stack.append(frame)
            try:
                yielded = coro.send(value) if exc is None else coro.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                st.stack.pop()
                _close(st, layer, frame[1], frame[2])
            try:
                value = yield yielded
                exc = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as thrown:  # forwarded into the coroutine
                value, exc = None, thrown


def span_async(rec: Recorder, layer: str, fn: Callable, hook=None) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        t0 = perf()
        try:
            return await _TimedSteps(fn(*args, **kwargs), layer, rec)
        finally:
            if hook is not None:
                hook(args, perf() - t0)

    return wrapper


class Patcher:
    """Replaces class attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def set(self, cls: type, name: str, value: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def restore(self) -> None:
        while self._saved:
            cls, name, value = self._saved.pop()
            setattr(cls, name, value)


class Tracing:
    """One traced phase: wrappers, span recorder and layer counters.

    ``install()`` before the world is built, ``reset()`` when the measured
    phase starts, ``uninstall()`` when it ends, then read ``rec.totals()``
    and the counters the hooks keep.
    """

    def __init__(self) -> None:
        self.rec = Recorder()
        self._patch = Patcher()
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.depth_max = 0
        self.broadcasts = 0
        self.broadcast_receivers = 0
        self.unicasts = 0
        self.route_rx = 0
        self.route_dup = 0
        self._route_seen: set = set()
        self.bulkhead_waits: List[float] = []
        self.compose_s: List[float] = []

    def reset(self) -> None:
        self.rec.reset()
        self._reset_counters()

    # ------------------------------------------------------------ hooks

    def _on_push(self, args, _result) -> None:
        depth = len(args[0])
        if depth > self.depth_max:
            self.depth_max = depth

    def _on_broadcast(self, _args, receivers) -> None:
        self.broadcasts += 1
        self.broadcast_receivers += receivers

    def _on_unicast(self, _args, _result) -> None:
        self.unicasts += 1

    def _route_receive(self, fn: Callable) -> Callable:
        """Count receptions of a packet uid a node has already received."""
        tracing = self

        @functools.wraps(fn)
        def on_receive(router, node, packet, from_id):
            key = (id(router), node.id, packet.uid)
            tracing.route_rx += 1
            if key in tracing._route_seen:
                tracing.route_dup += 1
            else:
                tracing._route_seen.add(key)
            return fn(router, node, packet, from_id)

        return on_receive

    def _on_acquire(self, _args, wait_s) -> None:
        self.bulkhead_waits.append(wait_s)

    def _on_compose(self, fn: Callable) -> Callable:
        tracing = self

        @functools.wraps(fn)
        def compose(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracing.compose_s.append(perf() - t0)

        return compose

    # ---------------------------------------------------------- install

    def install(self) -> None:
        rec, patch = self.rec, self._patch
        hooks = {
            (CalendarQueue, "push"): self._on_push,
            (FastPathDispatcher, "broadcast"): self._on_broadcast,
            (FastPathDispatcher, "unicast"): self._on_unicast,
            (Bulkhead, "acquire"): self._on_acquire,
        }
        for layer, targets in ENTRY_POINTS.items():
            for cls, names in targets:
                for name in names:
                    fn = cls.__dict__[name]
                    if name == "on_receive":
                        fn = self._route_receive(fn)
                    elif cls is GreedyComposer:
                        fn = self._on_compose(fn)
                    hook = hooks.get((cls, name))
                    wrap = span_async if asyncio.iscoroutinefunction(fn) else span_sync
                    patch.set(cls, name, wrap(rec, layer, fn, hook))
        self._install_callbacks()

    def _wrap_callback(self, fn: Callable) -> Callable:
        layer = layer_of_callable(fn)
        if layer is None:
            return fn
        return span_sync(self.rec, layer, fn)

    def _install_callbacks(self) -> None:
        wrap = self._wrap_callback
        call_in_fast = Simulator.call_in_fast
        call_in = Simulator.call_in
        call_at = Simulator.call_at
        every = Simulator.every

        def traced_call_in_fast(sim, delay, fn, priority=0):
            return call_in_fast(sim, delay, wrap(fn), priority)

        def traced_call_in(sim, delay, fn):
            return call_in(sim, delay, wrap(fn))

        def traced_call_at(sim, when, fn):
            return call_at(sim, when, wrap(fn))

        def traced_every(sim, interval, fn, **kwargs):
            return every(sim, interval, wrap(fn), **kwargs)

        self._patch.set(Simulator, "call_in_fast", traced_call_in_fast)
        self._patch.set(Simulator, "call_in", traced_call_in)
        self._patch.set(Simulator, "call_at", traced_call_at)
        self._patch.set(Simulator, "every", traced_every)

    def task_factory(self, loop, coro, **kwargs):
        """asyncio task factory charging program-defined task steps."""
        frame = getattr(coro, "cr_frame", None)
        module = frame.f_globals.get("__name__") if frame is not None else None
        layer = layer_of_module(module)
        if layer is not None:
            coro = _timed_task(coro, layer, self.rec)
        return asyncio.Task(coro, loop=loop, **kwargs)

    def uninstall(self) -> None:
        self._patch.restore()


async def _timed_task(coro, layer: str, rec: Recorder):
    return await _TimedSteps(coro, layer, rec)


def busy_wait(us: float) -> Callable[[Callable], Callable]:
    """Decorator adding ``us`` microseconds of spinning to every call."""
    spin = us * 1e-6

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            end = perf() + spin
            while perf() < end:
                pass
            return fn(*args, **kwargs)

        return slowed

    return deco


def inject_busy(layer: str, us: float) -> Patcher:
    """Slow every public entry point of ``layer`` by ``us`` microseconds.

    Used by the benchmark's self-test to check that a slowdown in one
    named layer is attributed to that layer and to the workloads that
    exercise it.
    """
    if layer not in ENTRY_POINTS:
        raise SystemExit(f"unknown layer {layer!r}; choose from {', '.join(LAYERS)}")
    patch = Patcher()
    slow = busy_wait(us)
    for cls, names in ENTRY_POINTS[layer]:
        for name in names:
            fn = cls.__dict__[name]
            if asyncio.iscoroutinefunction(fn):
                raise SystemExit(f"cannot inject into coroutine {cls.__name__}.{name}")
            patch.set(cls, name, slow(fn))
    return patch
