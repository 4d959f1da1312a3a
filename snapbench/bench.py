"""Measurement logic of the benchmark: passes, gates and metrics.

Entry point is ``run.py``, which checks that the program's sources are
present and puts them on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import LAYERS, Ledger
from repro.core import messages as core_messages
from repro.sim.fastpath import STATS
from workloads import WORKLOADS, BenchError

HERE = Path(__file__).resolve().parent

#: a pass is repeated until --seconds have elapsed, but at least this
#: many times (the per-unit median needs repeats) and at most MAX_PASSES
MIN_PASSES = 3
MAX_PASSES = 40

#: fresh interpreters timed for ``setup_s`` (the median is reported)
SETUP_PROBES = 5

#: Host-speed reference.  This host's speed drifts by +-20% over seconds
#: to minutes, for every process alike, so raw CPU times of identical
#: work differ by that much between runs.  Every unit is preceded by one
#: reference slice — a fixed integer loop that allocates nothing, so the
#: program's heap cannot slow it — and CPU times are reported in
#: *reference seconds*: seconds on a host where one slice takes exactly
#: REF_NS.  Each unit is scaled by the median slice of its own quarter of
#: its own pass, which also keeps first- and last-quarter units
#: comparable when the host drifts within a pass.
REF_LOOP = 10_000
REF_NS = 1_000_000


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def clear_message_intern() -> None:
    """Empty the process-wide wire-message intern table so that every
    repeat of a unit starts from the same table (its hit counter,
    ``STATS.messages_packed``, is part of the determinism gate)."""
    core_messages._intern.clear()


def reference_slice() -> int:
    """CPU ns of one host-speed reference slice."""
    start = time.process_time_ns()
    x = 0
    for i in range(REF_LOOP):
        x = (x * 31 + i) & 0xFFFFFF
    return time.process_time_ns() - start


def quarters(units: list) -> dict:
    """Unit -> quarter (0-3) of the pass it falls in."""
    return {u: i * 4 // len(units) for i, u in enumerate(units)}


def timed(fn, *args, **kw):
    """Call ``fn`` and return ``(result, cpu_ns)``: the one place the
    benchmark reads the clock around program code."""
    start = time.process_time_ns()
    result = fn(*args, **kw)
    return result, time.process_time_ns() - start


REPLAY = "replay"


def schedule(workload, replay: bool) -> list:
    """The units of one pass in run order.  With ``replay``, a workload
    of independent sessions ends its pass by re-running its first
    quarter's inputs, so that ``cost_growth`` compares identical work
    early and late in a pass (an ageing check) instead of two different
    samples of inputs."""
    units = workload.units()
    if not replay or workload.growth_quarter(units[0]) is not None:
        return units
    return units + [(REPLAY, u) for u in units[: len(units) // 4]]


def is_replay(unit) -> bool:
    return isinstance(unit, tuple) and unit[0] == REPLAY


class Pass:
    """Every unit of a workload run once, in order.

    ``results``/``stats`` hold the workload's own units; replayed units
    only add their CPU time (``replay_cpu``) after their outputs were
    checked against the original's."""

    def __init__(self, workload, ledger=None, replay: bool = True) -> None:
        self.results = {}
        self.stats = {}
        self.replay_cpu = {}
        self.ref = {}
        self.live_values = 0
        for unit in schedule(workload, replay):
            base = unit[1] if is_replay(unit) else unit
            if workload.starts_fresh(base):
                clear_message_intern()
                if ledger is not None:
                    ledger.reset_built()
            self.ref[unit] = reference_slice()
            before = STATS.counters()
            result = workload.run_unit(base, timed)
            after = STATS.counters()
            stats = {k: after[k] - before[k] for k in after}
            if ledger is not None:
                if not ledger.all_networks_fast():
                    raise BenchError("traced run left the compiled fast send path")
                self.live_values = max(self.live_values, ledger.live_values())
            if is_replay(unit):
                if (result.digest, stats) != (self.results[base].digest, self.stats[base]):
                    raise BenchError(f"replay of unit {base!r} differs from its first run")
                self.replay_cpu[unit] = result.cpu_ns
            else:
                self.results[unit], self.stats[unit] = result, stats
        self.digest = workload.end_pass()

    def cpu_ns(self) -> int:
        return sum(r.cpu_ns for r in self.results.values())

    def ref_cpu_ns(self) -> dict:
        """Unit (replays included) -> its CPU time in reference ns (see
        REF_NS), scaled by the reference slices of its quarter of the pass."""
        quarter = quarters(list(self.ref))
        slices = [[ns for u, ns in self.ref.items() if quarter[u] == k] for k in range(4)]
        speed = [statistics.median(s) for s in slices]
        cpu = {u: r.cpu_ns for u, r in self.results.items()} | self.replay_cpu
        return {u: ns * REF_NS / speed[quarter[u]] for u, ns in cpu.items()}

    def total(self, field: str):
        return sum(getattr(r, field) for r in self.results.values())

    def pooled(self, field: str) -> list[float]:
        return [x for r in self.results.values() for x in getattr(r, field)]

    def pooled_layer(self, key: str) -> list[float]:
        return [x for r in self.results.values() for x in r.layer.get(key, ())]

    def layer_total(self, key: str) -> float:
        return sum(r.layer.get(key, 0) for r in self.results.values())

    def layer_mean(self, key: str) -> float:
        values = [r.layer[key] for r in self.results.values() if key in r.layer]
        return statistics.fmean(values) if values else 0.0

    def stat(self, name: str) -> int:
        return sum(s[name] for s in self.stats.values())

    def same_outputs(self, other: "Pass") -> str | None:
        """None if both passes produced identical outputs and counters,
        else a description of the first difference."""
        for unit, res in self.results.items():
            if res.digest != other.results[unit].digest:
                return f"unit {unit!r}: output digest differs"
            if self.stats[unit] != other.stats[unit]:
                return f"unit {unit!r}: STATS counters differ"
        if self.digest != other.digest:
            return "whole-history digest differs"
        return None


def end_to_end(workload, passes: list[Pass], setup: list[float], rss_mb: float):
    """The end-to-end metrics from the untraced passes."""
    units = workload.units()
    first = passes[0]
    scaled = [p.ref_cpu_ns() for p in passes]
    med = {u: statistics.median(s[u] for s in scaled) for u in scaled[0]}
    ok_ops = first.total("ok_ops")

    def ns_per_op(part):
        return sum(med[u] for u in part) / sum(first.results[u].attempted for u in part)

    if first.replay_cpu:
        replays = list(first.replay_cpu)
        growth = sum(med[u] for u in replays) / sum(med[u] for _, u in replays)
    else:
        quarter = {u: workload.growth_quarter(u) for u in units}
        growth = ns_per_op([u for u in units if quarter[u] == 3]) / ns_per_op(
            [u for u in units if quarter[u] == 0]
        )

    ops = first.pooled("op_latency")
    scans = first.pooled("scan_latency")
    metrics = {
        "ops_per_s": (ok_ops / (sum(med[u] for u in units) / 1e9), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_latency_D_p50": (percentile(ops, 50), "D"),
        "op_latency_D_p99": (percentile(ops, 99), "D"),
        "scan_latency_D_p50": (percentile(scans, 50), "D"),
        "scan_latency_D_p90": (percentile(scans, 90), "D"),
        "cost_growth": (growth, "ratio"),
    }
    spreads = [(max(s[u] for s in scaled) - min(s[u] for s in scaled)) / med[u] for u in med]
    print(
        f"{workload.name}: {len(passes)} passes x {len(med)} units "
        f"({len(first.replay_cpu)} of them replays); "
        f"{ok_ops} ops per pass; per-unit (max-min)/median: "
        f"median {statistics.median(spreads):.3f}, max {max(spreads):.3f}"
    )
    print(
        f"latency samples: op n={len(ops)} (p99 leaves {len(ops) - math.ceil(0.99 * len(ops))} "
        f"beyond), scan n={len(scans)} (p90 leaves {len(scans) - math.ceil(0.9 * len(scans))} beyond); "
        f"setup probes {[round(s, 4) for s in setup]}"
    )
    return metrics


def per_layer(workload, plain: Pass, traced: Pass, ledger) -> dict:
    """The per-layer metrics from the traced pass."""
    ops = max(1, traced.total("ok_ops"))
    msgs = traced.stat("messages")
    metrics = {f"{layer}.self_share": (ledger.self_share(layer), "ratio") for layer in LAYERS}

    def per_call_us(pred):
        calls, ns = ledger.calls_matching(pred)
        return ns / calls / 1e3 if calls else 0.0

    def handler(layer):
        return lambda k: k.startswith(layer + ":") and k.endswith(".on_message")

    unpack_calls, unpack_ns = ledger.calls_matching(lambda k: k.endswith("ValueInterner.unpack"))
    spec_ns = ledger.layer_ns("spec")
    _, brute_ns = ledger.calls_matching(lambda k: ".brute_force_" in k)
    checks, check_ns = ledger.calls_matching(lambda k: k.endswith(".order_check"))
    scanned, saved = traced.stat("eq_rows_scanned"), traced.stat("eq_rows_saved")
    waits = traced.pooled_layer("queue_waits")
    composites = traced.layer_total("composites")
    attempted = max(1, traced.total("attempted"))
    metrics.update(
        {
            "sim.events_per_op": (traced.stat("events") / ops, "count"),
            "net.msgs_per_op": (msgs / ops, "count"),
            "net.packed_frac": (traced.stat("messages_packed") / msgs if msgs else 0.0, "ratio"),
            "runtime.cluster_build_us": (per_call_us(lambda k: k.endswith("Cluster.__init__")), "us"),
            "core.handler_us_per_msg": (per_call_us(handler("core")), "us"),
            "core.views.unpack_calls_per_op": (unpack_calls / ops, "count"),
            "core.views.unpack_us_per_op": (unpack_ns / 1e3 / ops, "us"),
            "core.views.eq_rows_saved_frac": (
                saved / (scanned + saved) if scanned + saved else 0.0,
                "ratio",
            ),
            "core.views.values_interned_per_op": (traced.stat("values_interned") / ops, "count"),
            "core.views.live_values_end": (traced.live_values, "count"),
            "baselines.handler_us_per_msg": (per_call_us(handler("baselines")), "us"),
            "spec.check_ms_per_history": (check_ns / checks / 1e6 if checks else 0.0, "ms"),
            "spec.brute_share": (brute_ns / spec_ns if spec_ns else 0.0, "ratio"),
            "shard.queue_wait_D_p99": (percentile(waits, 99) if waits else 0.0, "D"),
            "shard.imbalance": (traced.layer_mean("imbalance"), "ratio"),
            "shard.partial_composite_frac": (
                traced.layer_total("partial_composites") / composites if composites else 0.0,
                "ratio",
            ),
            "chaos.crash_aborted_frac": (traced.total("crash_aborted") / attempted, "ratio"),
            "chaos.failed_plans": (traced.layer_total("failed_plans"), "count"),
            "trace.overhead": (traced.cpu_ns() / plain.cpu_ns(), "ratio"),
        }
    )
    shares = sorted(
        ((ledger.self_share(layer), layer) for layer in LAYERS), reverse=True
    )
    print(f"{workload.name}: self shares " + ", ".join(f"{l} {s:.3f}" for s, l in shares))
    print(f"span cost taken out: {ledger.cost_in:.0f} ns to the callee, {ledger.cost_out:.0f} ns to the caller")
    return metrics


def setup_probes(workload: str, seed: int) -> list[float]:
    """Reference seconds from interpreter start to the first timed call,
    each in a fresh interpreter (imports cannot be repeated in one)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        cpu_s, ref_ns = (float(x) for x in done.stdout.split()[-2:])
        out.append(cpu_s * REF_NS / ref_ns)
    return out


def setup_probe(name: str, seed: int) -> int:
    """Set a workload up as a measured run would, then print the CPU
    seconds this process has used so far and the host's current median
    reference slice (ns)."""
    WORKLOADS[name](seed)
    cpu_s = time.process_time()
    print(cpu_s, statistics.median(reference_slice() for _ in range(21)))
    return 0


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload; print the report; return the exit code."""
    workload = WORKLOADS[name](seed)
    try:
        if trace:
            plain = Pass(workload, replay=False)
            with Ledger() as ledger:
                traced = Pass(workload, ledger, replay=False)
            diff = plain.same_outputs(traced)
            if diff is not None:
                raise BenchError(f"traced run differs from untraced run: {diff}")
            metrics = per_layer(workload, plain, traced, ledger)
            result = plain
        else:
            deadline = time.perf_counter() + seconds
            passes = [Pass(workload)]
            while len(passes) < MIN_PASSES or (
                time.perf_counter() < deadline and len(passes) < MAX_PASSES
            ):
                gc.collect()
                passes.append(Pass(workload))
                diff = passes[0].same_outputs(passes[-1])
                if diff is not None:
                    raise BenchError(f"repeat {len(passes) - 1} differs from repeat 0: {diff}")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(workload, passes, setup_probes(name, seed), rss_mb)
            result = passes[0]
        verified = workload.verify()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = result.total("attempted")
    failed = result.total("failed") if verified else attempted
    print(
        f"attempted {attempted}, failed {failed}, "
        f"crash-aborted {result.total('crash_aborted')}, final history verified: {verified}"
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0
