"""In-memory spans around aoqmap's public functions, for the traced run.

Each public function is wrapped wherever a module of the package binds it,
so a call made through any module's global (``aoqmap.selection.circuit_cost``
called from ``select_layout``, ``aoqmap.sim.simulate`` called from
``verify``) opens a span whose parent is the innermost open span. A span's
self time is its duration minus the durations of its direct children.

Counts that belong to a layer (basis gates emitted, layouts enumerated,
partial-routing candidates, trajectories) are taken in the same wrappers
from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("aoqmap", "aoqmap.cli", "aoqmap.circuits", "aoqmap.hamiltonians", "aoqmap.routing",
           "aoqmap.schedules", "aoqmap.selection", "aoqmap.sim", "aoqmap.topology")


def _count_basis_gates(counts, duration, args, kwargs, result):
    counts["circuits.basis_gates"] += len(result.gates)


def _count_layouts(counts, duration, args, kwargs, result):
    counts["topology.layouts"] += len(result)


def _count_amp_gate_ops(counts, duration, args, kwargs, result):
    circuit = args[0] if args else kwargs["circuit"]
    counts["sim.amp_gate_ops"] += len(circuit.gates) << circuit.n


def _count_partial(counts, duration, args, kwargs, result):
    h, params = args[0], args[1]
    floor = 2 * len(h.zz) * params.p
    counts["routing.partial.candidates"] += result.report.candidates
    counts["routing.partial.cx"] += result.report.cx_count
    counts["routing.partial.floor"] += floor
    counts["routing.partial.floor_stops"] += result.report.cx_count <= floor
    counts["routing.partial.ns"] += round(duration * 1e9)


def _count_shots(counts, duration, args, kwargs, result):
    shots = args[1] if len(args) > 1 else kwargs["shots"]
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    counts["sim.shots"] += shots
    if noise is not None and not noise.is_trivial:
        counts["sim.trajectories"] += shots
    counts["sim.sample.ns"] += round(duration * 1e9)


# (defining module, function, span name, count hook)
TARGETS = (
    ("aoqmap.cli", "main", "cli", None),
    ("aoqmap.circuits", "decompose_to_basis", "circuits.decompose", _count_basis_gates),
    ("aoqmap.circuits", "gate_counts", "circuits.gate_counts", None),
    ("aoqmap.circuits", "circuit_from_dict", "circuits.from_dict", None),
    ("aoqmap.circuits", "circuit_to_dict", "circuits.to_dict", None),
    ("aoqmap.circuits", "emit_qasm", "circuits.emit_qasm", None),
    ("aoqmap.hamiltonians", "brute_force_extrema", "hamiltonians.brute_force", None),
    ("aoqmap.hamiltonians", "build_maxcut_hamiltonian", "hamiltonians.build_maxcut", None),
    ("aoqmap.hamiltonians", "counts_from_json", "hamiltonians.counts_from_json", None),
    ("aoqmap.hamiltonians", "energy", "hamiltonians.energy", None),
    ("aoqmap.hamiltonians", "expectation", "hamiltonians.expectation", None),
    ("aoqmap.hamiltonians", "hamiltonian_from_dict", "hamiltonians.from_dict", None),
    ("aoqmap.hamiltonians", "hamiltonian_to_dict", "hamiltonians.to_dict", None),
    ("aoqmap.hamiltonians", "is_feasible", "hamiltonians.is_feasible", None),
    ("aoqmap.hamiltonians", "metrics", "hamiltonians.metrics", None),
    ("aoqmap.routing", "route_qaoa_linear", "routing.route", None),
    ("aoqmap.routing", "route_qaoa_subtop", "routing.route", None),
    ("aoqmap.routing", "route_vqe_linear", "routing.route", None),
    ("aoqmap.routing", "swapnk_baseline", "routing.route", None),
    ("aoqmap.routing", "route_qaoa_partial", "routing.route", _count_partial),
    ("aoqmap.schedules", "schedule_for", "schedules.schedule_for", None),
    ("aoqmap.selection", "circuit_cost", "selection.cost", None),
    ("aoqmap.selection", "select_layout", "selection.select", None),
    ("aoqmap.selection", "postselect", "selection.postselect", None),
    ("aoqmap.selection", "device_from_dict", "selection.device_from_dict", None),
    ("aoqmap.sim", "simulate", "sim.simulate", _count_amp_gate_ops),
    ("aoqmap.sim", "distribution", "sim.distribution", None),
    ("aoqmap.sim", "verify", "sim.verify", None),
    ("aoqmap.sim", "reference_circuit", "sim.reference", None),
    ("aoqmap.sim", "sample", "sim.sample", _count_shots),
    ("aoqmap.topology", "template", "topology.template", None),
    ("aoqmap.topology", "enumerate_layouts", "topology.enumerate", _count_layouts),
)


class Tracer:
    """Spans and counts of one pass; `reset` starts the next pass.

    A span is ``[name, parent index, start, end, time covered by children]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, perf_counter(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[3] - span[2]
            if hook is not None:
                hook(counts, span[3] - span[2], args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every binding of each target in the package's modules."""
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._restore:
            module, key, original = self._restore.pop()
            setattr(module, key, original)

    def summary(self) -> dict:
        """Per span name: call count and self seconds."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, _, start, end, child in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child
        return dict(out)

    def dump(self) -> list:
        """Spans as ``[name, parent, start_us, duration_us]`` relative to the first."""
        if not self.spans:
            return []
        t0 = self.spans[0][2]
        return [[name, parent, round((start - t0) * 1e6, 1), round((end - start) * 1e6, 1)]
                for name, parent, start, end, _ in self.spans]


LAYER_UNITS = {
    "selection.cost.calls": "count", "selection.cost.self_ms": "ms",
    "circuits.decompose.calls": "count", "circuits.decompose.self_ms": "ms",
    "circuits.basis_gates": "count",
    "sim.simulate.calls": "count", "sim.simulate.self_ms": "ms", "sim.verify.calls": "count",
    "sim.amp_gate_ops": "count",
    "sim.sample.self_ms": "ms", "sim.trajectories": "count", "sim.us_per_shot": "us",
    "routing.partial.candidates": "count", "routing.partial.us_per_candidate": "us",
    "routing.partial.cx_over_floor": "ratio", "routing.partial.floor_stops": "count",
    "routing.route.calls": "count", "routing.route.self_ms": "ms",
    "schedules.schedule_for.self_ms": "ms",
    "topology.enumerate.self_ms": "ms", "topology.layouts": "count",
    "hamiltonians.self_ms": "ms", "hamiltonians.brute_force.calls": "count",
    "cli.self_ms": "ms", "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
}


# Timings of layers that some workloads never call. They read 0 on every run
# of those workloads, so they are printed but left out of the result line,
# which may carry no timing that is constant across runs; the call counts of
# the same layers stay in it.
IDLE_TIMINGS = frozenset({"selection.cost.self_ms", "sim.sample.self_ms", "sim.us_per_shot",
                          "routing.partial.us_per_candidate", "topology.enumerate.self_ms"})


def layer_metrics(summary: dict, counts: Counter, bytes_written: int) -> dict:
    """The per-layer metrics of one traced pass, by benchmark metric name
    (`trace.wall_s` is added by the caller from all passes)."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_ms(name):
        return summary.get(name, {}).get("self_s", 0.0) * 1e3

    candidates = counts["routing.partial.candidates"]
    shots = counts["sim.shots"]
    floor = counts["routing.partial.floor"]
    return {
        "selection.cost.calls": calls("selection.cost"),
        "selection.cost.self_ms": self_ms("selection.cost"),
        "circuits.decompose.calls": calls("circuits.decompose"),
        "circuits.decompose.self_ms": self_ms("circuits.decompose"),
        "circuits.basis_gates": counts["circuits.basis_gates"],
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.simulate.self_ms": self_ms("sim.simulate"),
        "sim.verify.calls": calls("sim.verify"),
        "sim.amp_gate_ops": counts["sim.amp_gate_ops"],
        "sim.sample.self_ms": self_ms("sim.sample"),
        "sim.trajectories": counts["sim.trajectories"],
        "sim.us_per_shot": counts["sim.sample.ns"] / 1e3 / shots if shots else 0.0,
        "routing.partial.candidates": candidates,
        "routing.partial.us_per_candidate": (counts["routing.partial.ns"] / 1e3 / candidates
                                             if candidates else 0.0),
        "routing.partial.cx_over_floor": counts["routing.partial.cx"] / floor if floor else 0.0,
        "routing.partial.floor_stops": counts["routing.partial.floor_stops"],
        "routing.route.calls": calls("routing.route"),
        "routing.route.self_ms": self_ms("routing.route"),
        "schedules.schedule_for.self_ms": self_ms("schedules.schedule_for"),
        "topology.enumerate.self_ms": self_ms("topology.enumerate"),
        "topology.layouts": counts["topology.layouts"],
        "hamiltonians.self_ms": sum(row["self_s"] for name, row in summary.items()
                                    if name.startswith("hamiltonians.")) * 1e3,
        "hamiltonians.brute_force.calls": calls("hamiltonians.brute_force"),
        "cli.self_ms": self_ms("cli"),
        "cli.bytes_written": bytes_written,
    }
