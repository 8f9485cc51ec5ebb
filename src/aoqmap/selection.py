"""Noise-aware layout scoring, best-layout selection, and postselection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, decompose_to_basis
from .hamiltonians import ProblemHamiltonian, expectation
from .topology import CouplingGraph, SubtopologyTemplate, enumerate_layouts, graph_from_dict


class CalibrationError(ValueError):
    """A touched qubit or edge has no calibration entry."""


@dataclass(frozen=True)
class Calibration:
    """Per-qubit readout/single-qubit error rates and per-edge two-qubit rates."""

    readout_error: tuple[float, ...]
    sq_error: tuple[float, ...]
    edge_error: dict

    def __post_init__(self):
        for name, rates in (("readout", self.readout_error), ("single-qubit", self.sq_error)):
            if any(not 0.0 <= r <= 1.0 for r in rates):
                raise ValueError(f"{name} error rates must lie in [0, 1]")
        norm = {}
        for (u, v), e in self.edge_error.items():
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"two-qubit error {e} out of [0, 1]")
            norm[(min(u, v), max(u, v))] = float(e)
        object.__setattr__(self, "edge_error", norm)


def uniform_calibration(num_qubits: int, graph: CouplingGraph, readout: float = 0.01,
                        sq: float = 0.001, tq: float = 0.01) -> Calibration:
    return Calibration(
        readout_error=(readout,) * num_qubits,
        sq_error=(sq,) * num_qubits,
        edge_error={e: tq for e in graph.edges},
    )


@dataclass(frozen=True)
class CostReport:
    layout: tuple[int, ...]
    cost: float
    gate_error_product: float
    measurement_error_product: float
    gate_count: int = 0


def layout_costs(circuit: Circuit, layouts, cal: Calibration) -> list[CostReport]:
    """Estimated-error cost C = 1 - prod(1 - p_gate) * prod(1 - p_meas) of each
    layout in order, all scored from one basis decomposition of the circuit;
    every position is measured, so each adds its readout error.

    All layouts are scored at once, one gathered factor per gate, yet the
    result is bit-identical to scoring one layout at a time in plain floats:
    each layout's products start at 1.0 and take their factors in circuit
    order (readout in position order), so each rounding step is the same.
    The test suite asserts `==` on every field against that scalar loop,
    `tests/oracles.py::layout_costs_scalar`. A qubit or edge with no
    calibration, a negative qubit included, raises CalibrationError for the
    first such layout at its first such gate (readout last). A layout that
    covers fewer positions than the circuit raises ValueError, unless an
    earlier layout failed first.
    """
    gates = decompose_to_basis(circuit).gates
    layouts = [tuple(layout) for layout in layouts]
    short = next((k for k, layout in enumerate(layouts) if len(layout) < circuit.n),
                 len(layouts))
    reports = []
    if short:
        gate_product, meas_product = _products(gates, circuit.n, layouts[:short], cal)
        costs = (1.0 - gate_product * meas_product).tolist()
        reports = [CostReport(layout=layout, cost=cost, gate_error_product=gate,
                              measurement_error_product=meas, gate_count=len(gates))
                   for layout, cost, gate, meas in zip(layouts, costs, gate_product.tolist(),
                                                       meas_product.tolist())]
    if short < len(layouts):
        raise ValueError(f"layout covers {len(layouts[short])} positions, "
                         f"circuit needs {circuit.n}")
    return reports


def _products(gates, n: int, layouts, cal: Calibration):
    """The gate and readout `1 - error` products of every layout, as float
    arrays; a factor with no calibration is NaN, and any NaN raises."""
    m = len(layouts)
    # physical qubits relabelled 0..k-1, so the tables grow with the qubits used
    table = np.array([layout[:n] for layout in layouts])  # (m, n)
    qubits = sorted(set(table.ravel().tolist()))  # not np.unique, which imports numpy.ma
    columns = np.searchsorted(np.array(qubits, dtype=np.int64), table.T)  # (n, m)
    sq = np.array([1.0 - cal.sq_error[q] if 0 <= q < len(cal.sq_error) else math.nan
                   for q in qubits])
    readout = np.array([1.0 - cal.readout_error[q] if 0 <= q < len(cal.readout_error)
                        else math.nan for q in qubits])
    k = len(qubits)
    tq = np.full((k, k), math.nan)
    pairs = sorted({g.qubits for g in gates if g.is_two_qubit})
    if pairs:
        a, b = np.array(pairs).T
        for code in set((columns[a] * k + columns[b]).ravel().tolist()):
            i, j = divmod(code, k)
            u, v = qubits[i], qubits[j]
            error = cal.edge_error.get((min(u, v), max(u, v))) if min(u, v) >= 0 else None
            if error is not None:
                tq[i, j] = 1.0 - error

    factors = {}  # qubits of a basis gate -> its factor in every layout
    gate_product = np.ones(m)
    for g in gates:
        factor = factors.get(g.qubits)
        if factor is None:
            factor = factors[g.qubits] = (tq[columns[g.qubits[0]], columns[g.qubits[1]]]
                                          if g.is_two_qubit else sq[columns[g.qubits[0]]])
        gate_product *= factor
    meas_product = np.ones(m)
    for p in range(n):
        meas_product *= readout[columns[p]]

    bad = np.isnan(gate_product) | np.isnan(meas_product)
    if bad.any():
        first = int(bad.argmax())
        layout = layouts[first]
        for g in gates:
            if math.isnan(factors[g.qubits][first]):
                if g.is_two_qubit:
                    a, b = g.qubits
                    raise CalibrationError(f"no two-qubit calibration for edge "
                                           f"({layout[a]},{layout[b]})")
                raise CalibrationError(f"no single-qubit calibration for qubit "
                                       f"{layout[g.qubits[0]]}")
        p = next(p for p in range(n) if math.isnan(readout[columns[p][first]]))
        raise CalibrationError(f"no readout calibration for qubit {layout[p]}")
    return gate_product, meas_product


def circuit_cost(circuit: Circuit, layout, cal: Calibration) -> CostReport:
    """The `layout_costs` report of one layout."""
    return layout_costs(circuit, [layout], cal)[0]


def score_layouts(circuit: Circuit, tmpl: SubtopologyTemplate, graph: CouplingGraph,
                  cal: Calibration) -> list[CostReport]:
    """The `layout_costs` report of every monomorphism of `tmpl` into `graph`,
    in enumeration (lexicographic) order. A two-qubit gate off the template's
    edges raises ValueError, and so does a template that does not embed."""
    tmpl.check_gates(circuit.gates)
    layouts = enumerate_layouts(tmpl, graph)
    if not layouts:
        raise ValueError(f"{tmpl.kind}-{tmpl.n} template is not embeddable in the device graph")
    return layout_costs(circuit, layouts, cal)


def cheapest(reports: list[CostReport]) -> CostReport:
    """The minimal-cost report; ties go to the earliest, which for
    `score_layouts` order is the lexicographically smallest layout."""
    return min(reports, key=lambda report: report.cost)


def select_layout(circuit: Circuit, tmpl: SubtopologyTemplate, graph: CouplingGraph,
                  cal: Calibration):
    """Argmin-cost layout over all monomorphisms, as (layout, report)."""
    best = cheapest(score_layouts(circuit, tmpl, graph, cal))
    return best.layout, best


def postselect(variants, h: ProblemHamiltonian):
    """Pick the (label, counts) variant with minimal problem expectation.

    Ties resolve to the earliest variant in input order.
    """
    scored = [(expectation(h, counts), label) for label, counts in variants]
    if not scored:
        raise ValueError("postselect needs at least one variant")
    value, label = min(scored, key=lambda item: item[0])
    return label, value


def calibration_from_dict(data: dict) -> Calibration:
    qubits = data["qubits"]
    return Calibration(
        readout_error=tuple(float(q["readout_error"]) for q in qubits),
        sq_error=tuple(float(q["sq_error"]) for q in qubits),
        edge_error={tuple(e["pair"]): float(e["error"]) for e in data["edges"]},
    )


def device_from_dict(data: dict):
    """Device JSON -> (CouplingGraph, Calibration | None); validates that
    every device edge carries a two-qubit error entry when calibration is
    present."""
    graph = graph_from_dict(data)
    cal = None
    if "calibration" in data:
        cal = calibration_from_dict(data["calibration"])
        if len(cal.readout_error) != graph.num_qubits:
            raise ValueError("calibration qubit list does not match num_qubits")
        missing = [e for e in graph.edges if e not in cal.edge_error]
        if missing:
            raise ValueError(f"calibration missing two-qubit entries for edges {sorted(missing)}")
    return graph, cal
