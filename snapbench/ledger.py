"""Per-layer self-time ledger, built by wrapping layer entry points.

The traced run must execute the code the untraced run benchmarks, so
nothing here passes a tracer or ``record_trace`` into a ``Cluster`` or
``Network`` (that would select the instrumented send path).  Instead,
:class:`Ledger` replaces layer entry points *where their callers look
them up* — class attributes for methods, module attributes for
functions imported by name — with thin wrappers, and restores the
originals on exit.  Every wrapped call is a span of its layer.  A
layer's self time is the time its spans are open minus the time their
child spans (any other wrapped call) are open.  Self time is kept with
one clock read per span boundary: on every boundary the time since the
previous boundary is charged to the layer that was running.  The
wrapper's own cost is measured once per ledger (:meth:`Ledger.calibrate`)
and taken back out: each span charges a fixed amount to its own layer
and another to the layer that opened it.

Two things are charged to their caller, by design:

- the compiled fast send (``Network.send``/``broadcast`` are bound per
  instance at construction, and wrapping them would mean compiling a
  different network), so message sends count as ``runtime`` time; the
  ``net`` layer's work is counted from ``repro.sim.fastpath.STATS``;
- closures the program schedules or registers as callbacks (for
  example the shard service's arrival callback), which run inside the
  span of whatever layer calls them.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: layers, as the dotted package names under ``repro``; the longest
#: matching prefix of a function's module names its layer
LAYERS = ("sim", "net", "runtime", "core", "core.views", "baselines", "spec", "shard", "chaos")

#: op methods whose generator bodies are protocol work (run by the
#: runtime's ``gen.send``), and the message handler
OP_METHODS = ("update", "scan")
HANDLER = "on_message"

#: module-level entry points, as (module the caller resolves them in,
#: attribute name, layer)
FUNCTIONS = (
    ("repro.spec.order", "order_check", "spec"),
    ("repro.chaos.runner", "order_check", "spec"),
    ("repro.chaos.runner", "effective_ops", "spec"),
    ("repro.chaos.runner", "brute_force_linearizable", "spec"),
    ("repro.chaos.runner", "brute_force_sequentially_consistent", "spec"),
    ("repro.chaos.runner", "run_plan", "chaos"),
    ("repro.chaos.runner", "build_cluster", "chaos"),
    ("repro.chaos.runner", "check_history", "chaos"),
    ("repro.chaos.runner", "build_crash_plan", "chaos"),
    ("repro.chaos.runner", "build_delay_model", "chaos"),
    ("repro.shard.service", "_run_shard_task", "shard"),
)

#: methods wrapped on their defining class, as (module, class, names)
METHODS = (
    ("repro.sim.kernel", "Simulator", ("run",)),
    ("repro.net.network", "Network", ("_arrive_fast", "_arrive_batch")),
    ("repro.net.rbc", "BrachaRBC", ("rbc_broadcast", "handle")),
    (
        "repro.runtime.cluster",
        "Cluster",
        ("__init__", "_begin", "_deliver", "crash", "run", "run_until_complete"),
    ),
    ("repro.shard.service", "ShardedSnapshotService", ("run_arrivals",)),
)

#: the view plane: every method its classes define
VIEW_CLASSES = ("ViewVector", "BitsetViewVector", "ReferenceViewVector", "ValueInterner")

#: classes whose instances the ledger keeps a list of while it is active
RECORDED = ("Cluster", "ValueInterner")

#: packages whose ProtocolNode subclasses get their handler and op
#: methods wrapped
PROTOCOL_PACKAGES = ("repro.core", "repro.baselines", "repro.net", "repro.chaos")


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    name = module.removeprefix("repro.")
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best or name.split(".")[0]


class _OpProxy:
    """Generator stand-in that opens a span around each resumption."""

    __slots__ = ("_gen", "_enter", "_exit")

    def __init__(self, gen: Any, enter: Callable[[], int], exit_: Callable[[int], None]):
        self._gen = gen
        self._enter = enter
        self._exit = exit_

    def __iter__(self) -> "_OpProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        start = self._enter()
        try:
            return self._gen.send(value)
        finally:
            self._exit(start)

    def throw(self, *exc: Any) -> Any:
        start = self._enter()
        try:
            return self._gen.throw(*exc)
        finally:
            self._exit(start)

    def close(self) -> None:
        self._gen.close()


class Ledger:
    """Self time per layer plus call counts and inclusive time per entry
    point.  Use as a context manager: wrappers exist only inside it."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        #: spans opened while each layer was running
        self.opened: dict[str, int] = defaultdict(int)
        #: wrapper cost per span charged to the callee / the caller (ns)
        self.cost_in = self.cost_out = 0.0
        #: clusters and value interners built since the last :meth:`reset_built`
        self.built: dict[str, list[Any]] = {name: [] for name in RECORDED}
        self._current = ""  # "" = outside any span
        self._last = 0
        self._stack: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------
    def _span(self, layer: str, key: str) -> tuple[Callable[[], int], Callable[[int], None]]:
        self_ns, calls, incl_ns, stack = self.self_ns, self.calls, self.incl_ns, self._stack
        opened = self.opened

        def enter() -> int:
            now = perf_counter_ns()
            self_ns[self._current] += now - self._last
            opened[self._current] += 1
            stack.append(self._current)
            self._current = layer
            self._last = now
            return now

        def exit_(start: int) -> None:
            end = perf_counter_ns()
            self_ns[layer] += end - self._last
            self._current = stack.pop()
            self._last = end
            calls[key] += 1
            incl_ns[key] += end - start

        return enter, exit_

    def _wrap(self, fn: Callable[..., Any], layer: str, key: str) -> Callable[..., Any]:
        enter, exit_ = self._span(layer, key)

        def wrapper(*args: Any, **kw: Any) -> Any:
            start = enter()
            try:
                return fn(*args, **kw)
            finally:
                exit_(start)

        return wrapper

    def _wrap_op(self, fn: Callable[..., Any], layer: str, key: str) -> Callable[..., Any]:
        enter, exit_ = self._span(layer, key)

        def wrapper(*args: Any, **kw: Any) -> Any:
            return _OpProxy(fn(*args, **kw), enter, exit_)

        return wrapper

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    # -- installation ----------------------------------------------------
    def _entry_points(self) -> Iterator[tuple[Any, str, str, bool]]:
        """(owner, attribute, layer, is_op_generator) for every entry point."""
        for module, name, layer in FUNCTIONS:
            yield importlib.import_module(module), name, layer, False
        for module, cls_name, names in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for name in names:
                yield cls, name, layer_of(module), False
        views = importlib.import_module("repro.core.views")
        for cls_name in VIEW_CLASSES:
            cls = getattr(views, cls_name)
            for name, value in vars(cls).items():
                if inspect.isfunction(value) and name not in ("__new__", "__len__"):
                    yield cls, name, "core.views", False
        from repro.runtime.protocol import ProtocolNode

        seen: set[type] = set()
        todo = list(ProtocolNode.__subclasses__())
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if not cls.__module__.startswith(PROTOCOL_PACKAGES):
                continue
            layer = layer_of(cls.__module__)
            for name in (HANDLER, *OP_METHODS):
                if inspect.isfunction(vars(cls).get(name)):
                    yield cls, name, layer, name != HANDLER

    def __enter__(self) -> "Ledger":
        for owner, name, layer, is_op in self._entry_points():
            original = owner.__dict__[name]
            owner_name = getattr(owner, "__qualname__", getattr(owner, "__name__", "?"))
            key = f"{layer}:{owner_name}.{name}"
            if name == "__init__" and owner_name in RECORDED:
                original = self._recording(original, self.built[owner_name])
            wrap = self._wrap_op if is_op else self._wrap
            self._patch(owner, name, wrap(original, layer, key))
        self.calibrate()
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @staticmethod
    def _recording(init: Callable[..., None], into: list[Any]) -> Callable[..., None]:
        def recording_init(obj: Any, *args: Any, **kw: Any) -> None:
            init(obj, *args, **kw)
            into.append(obj)

        return recording_init

    def calibrate(self, spans: int = 20000, rounds: int = 5) -> None:
        """Measure what one span costs its own layer and its parent's, as
        the median over ``rounds`` loops of ``spans`` empty wrapped calls."""
        ins, outs = [], []
        for _ in range(rounds):
            probe = Ledger()
            leaf = probe._wrap(lambda: None, "leaf", "leaf")

            def loop() -> None:
                for _ in range(spans):
                    leaf()

            probe._last = perf_counter_ns()
            probe._wrap(loop, "root", "root")()
            ins.append(probe.self_ns["leaf"] / spans)
            outs.append(probe.self_ns["root"] / spans)
        self.cost_in = statistics.median(ins)
        self.cost_out = statistics.median(outs)
        self._last = perf_counter_ns()

    # -- queries ---------------------------------------------------------
    def reset_built(self) -> None:
        for objs in self.built.values():
            objs.clear()

    def live_values(self) -> int:
        """Values held by the interners built since the last reset."""
        return sum(i.mask_stats()["interned"] for i in self.built["ValueInterner"])

    def all_networks_fast(self) -> bool:
        """Whether every cluster built since the last reset runs the
        compiled fast send path (the path the untraced run measures)."""
        return all(is_fast_network(c.network) for c in self.built["Cluster"])

    def layer_ns(self, layer: str) -> float:
        """Self time of a layer with the wrapper cost taken out."""
        spans = sum(c for k, c in self.calls.items() if k.startswith(layer + ":"))
        raw = self.self_ns.get(layer, 0)
        return max(0.0, raw - spans * self.cost_in - self.opened.get(layer, 0) * self.cost_out)

    def self_share(self, layer: str) -> float:
        total = sum(self.layer_ns(name) for name in self.self_ns if name)
        return self.layer_ns(layer) / total if total else 0.0

    def calls_matching(self, predicate: Callable[[str], bool]) -> tuple[int, int]:
        """(calls, inclusive ns) summed over entry points whose key matches."""
        keys = [k for k in self.calls if predicate(k)]
        return sum(self.calls[k] for k in keys), sum(self.incl_ns[k] for k in keys)


def is_fast_network(network: Any) -> bool:
    """Whether a network runs the compiled fast send path."""
    return "send" in vars(network) and "broadcast" in vars(network)


__all__ = ["LAYERS", "Ledger", "is_fast_network", "layer_of"]
