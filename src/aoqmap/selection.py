"""Noise-aware layout scoring, best-layout selection, and postselection."""

from __future__ import annotations

from dataclasses import dataclass

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

    def two_qubit_error(self, u: int, v: int) -> float:
        try:
            return self.edge_error[(min(u, v), max(u, v))]
        except KeyError:
            raise CalibrationError(f"no two-qubit calibration for edge ({u},{v})") from None


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
    every position is measured, so each adds its readout error."""
    gates = decompose_to_basis(circuit).gates
    reports = []
    for layout in map(tuple, layouts):
        if len(layout) < circuit.n:
            raise ValueError(f"layout covers {len(layout)} positions, circuit needs {circuit.n}")
        gate_product = 1.0
        for g in gates:
            if g.is_two_qubit:
                a, b = g.qubits
                gate_product *= 1.0 - cal.two_qubit_error(layout[a], layout[b])
            else:
                q = layout[g.qubits[0]]
                try:
                    gate_product *= 1.0 - cal.sq_error[q]
                except IndexError:
                    raise CalibrationError(f"no single-qubit calibration for qubit {q}") from None
        meas_product = 1.0
        for q in layout[:circuit.n]:
            try:
                meas_product *= 1.0 - cal.readout_error[q]
            except IndexError:
                raise CalibrationError(f"no readout calibration for qubit {q}") from None
        reports.append(CostReport(layout=layout, cost=1.0 - gate_product * meas_product,
                                  gate_error_product=gate_product,
                                  measurement_error_product=meas_product,
                                  gate_count=len(gates)))
    return reports


def circuit_cost(circuit: Circuit, layout, cal: Calibration) -> CostReport:
    """The `layout_costs` report of one layout."""
    return layout_costs(circuit, [layout], cal)[0]


def select_layout(circuit: Circuit, tmpl: SubtopologyTemplate, graph: CouplingGraph,
                  cal: Calibration):
    """Argmin-cost layout over all monomorphisms; ties go to the
    lexicographically smallest layout (layouts come sorted, and `min` keeps
    the first of equal costs). A two-qubit gate off the template's edges
    raises ValueError."""
    tmpl.check_gates(circuit.gates)
    layouts = enumerate_layouts(tmpl, graph)
    if not layouts:
        raise ValueError(f"{tmpl.kind}-{tmpl.n} template is not embeddable in the device graph")
    best = min(layout_costs(circuit, layouts, cal), key=lambda report: report.cost)
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
