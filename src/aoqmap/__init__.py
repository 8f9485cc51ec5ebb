"""Subtopology-targeted routing for variational circuits.

Compile dense QAOA/VQE interaction structure onto linear, T- and H-shaped
device substructures with depth-optimal swap-layer schedules, score layouts
against calibration data, and verify routed circuits by exact simulation.
"""

__version__ = "0.1.0"

from .circuits import (BASIS_KINDS, Circuit, CircuitBuilder, Gate, GateCounts, Permutation,
                       UnknownGateError, circuit_from_dict, circuit_to_dict, decompose_to_basis,
                       depth, emit_qasm, gate_counts)
from .hamiltonians import (MetricReport, PortfolioSpec, ProblemHamiltonian, QaoaParams,
                           brute_force_extrema, build_maxcut_hamiltonian,
                           build_portfolio_hamiltonian, counts_from_json, energy, expectation,
                           hamiltonian_from_dict, hamiltonian_to_dict, is_feasible, metrics)
from .routing import (MIRROR_ALTERNATE, REPEAT, RoutedCircuit, RoutingError, RoutingReport,
                      optimal_cx_target, route_qaoa_linear, route_qaoa_partial, route_qaoa_subtop,
                      route_vqe_linear, swapnk_baseline)
from .schedules import (SwapSchedule, connectivity_closure, consumed_layer_bound, depth_one_period,
                        h_layers, linear_layers, order_after, schedule_for, t_layers)
from .selection import (Calibration, CalibrationError, CostReport, circuit_cost,
                        calibration_from_dict, device_from_dict, layout_costs, postselect,
                        select_layout, uniform_calibration)
from .sim import (Distribution, NoiseModel, SIMULATOR_QUBIT_CAP, SimulationCapError, Statevector,
                  VerifyReport, distribution, hellinger, permute_to_logical, reference_circuit,
                  sample, simulate, verify)
from .topology import (CouplingGraph, SubtopologyTemplate, builtin_device, enumerate_layouts,
                       graph_from_dict, graph_to_dict, layout_respects, template)
