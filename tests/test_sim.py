"""Statevector simulation, sampling, noise unraveling, and verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoqmap import (Circuit, CircuitBuilder, NoiseModel, ProblemHamiltonian, QaoaParams,
                    SimulationCapError, build_maxcut_hamiltonian, distribution, energy,
                    expectation, hellinger, reference_circuit, route_qaoa_linear,
                    route_qaoa_partial, sample, simulate, verify)
from aoqmap import sim

from oracles import dm_logical_probs, logical_probs


def test_hadamard_amplitudes():
    psi = simulate(CircuitBuilder(1).h(0).build()).amplitudes
    assert np.allclose(psi, [1 / math.sqrt(2)] * 2)


def test_swap_moves_amplitude():
    # prepare |01> (qubit 0 = 1), swap -> |10> (qubit 1 = 1)
    psi = simulate(CircuitBuilder(2).x(0).swap(0, 1).build()).amplitudes
    assert psi[2] == pytest.approx(1.0)  # index 2 = bit 1 set


def test_zz_phases_by_parity():
    theta = 0.7
    c = CircuitBuilder(2).h(0).h(1).zz(0, 1, theta).build()
    psi = simulate(c).amplitudes * 2.0  # undo the 1/2 amplitude
    assert psi[0] == pytest.approx(np.exp(-0.5j * theta))
    assert psi[3] == pytest.approx(np.exp(-0.5j * theta))
    assert psi[1] == pytest.approx(np.exp(0.5j * theta))
    assert psi[2] == pytest.approx(np.exp(0.5j * theta))


def test_simulator_cap():
    with pytest.raises(SimulationCapError):
        simulate(Circuit(17))


def test_norm_preserved_through_long_circuit():
    rng = np.random.default_rng(2)
    b = CircuitBuilder(4)
    for _ in range(120):
        q = int(rng.integers(3))
        b.zzswap(q, q + 1, float(rng.uniform(-3, 3)))
        b.rx(q, float(rng.uniform(-3, 3)))
    psi = simulate(b.build()).amplitudes
    assert abs(np.linalg.norm(psi) - 1.0) < 1.2e-10 * (240 / 100)


def test_norm_drift_raises(monkeypatch):
    # an explicit check, so it also holds under python -O
    run = sim._run
    monkeypatch.setattr(sim, "_run", lambda circuit: 1.5 * run(circuit))
    b = CircuitBuilder(2)
    b.h(0)
    with pytest.raises(RuntimeError, match="norm"):
        simulate(b.build())


def test_distribution_point_mass_and_permutation():
    d = distribution(Circuit(3))
    assert d.as_dict() == {"000": 1.0}
    # swapped wire reads back through the measurement map unchanged
    c = CircuitBuilder(2).x(0).swap(0, 1).build()
    assert distribution(c).as_dict() == {"10": 1.0}
    assert np.allclose(distribution(c).probs, logical_probs(c))


def test_trailing_swap_removal_leaves_distribution():
    base = CircuitBuilder(3).h(0).zz(0, 1, 0.4).zzswap(1, 2, 0.8)
    with_swap = base.build()
    without = CircuitBuilder(3).h(0).zz(0, 1, 0.4).zz(1, 2, 0.8).build()
    a, b = distribution(with_swap), distribution(without)
    assert hellinger(a, b) < 1e-12


def test_sampling_reproducible_and_noiseless_bell():
    c = CircuitBuilder(2).h(0).cx(0, 1).build()
    counts = sample(c, 10_000, seed=42)
    assert set(counts) <= {"00", "11"}
    assert counts == sample(c, 10_000, seed=42)
    assert counts != sample(c, 10_000, seed=43)


def test_eps_zero_equals_noiseless():
    c = CircuitBuilder(2).h(0).zz(0, 1, 0.3).rx(1, 0.5).build()
    a = sample(c, 500, seed=9)
    b = sample(c, 500, noise=NoiseModel(0.0), seed=9)
    assert a == b


def test_noise_model_defaults_and_validation():
    nm = NoiseModel(0.02)
    assert nm.eps_1q == pytest.approx(0.002)
    with pytest.raises(ValueError):
        NoiseModel(1.5)


def test_noisy_sampling_reproducible():
    c = CircuitBuilder(2).h(0).cx(0, 1).build()
    nm = NoiseModel(0.05, seed=3)
    assert sample(c, 200, noise=nm) == sample(c, 200, noise=nm)
    noisy = sample(c, 2000, noise=NoiseModel(0.2), seed=1)
    assert set(noisy) - {"00", "11"}  # errors leak outside the Bell support


def test_trajectory_average_matches_density_matrix():
    eps = 0.08
    b = CircuitBuilder(2).h(0).zz(0, 1, 0.9).rx(0, 0.4).ry(1, 1.1)
    circuit = b.build()
    h = ProblemHamiltonian(2, ((0, 1, 1.0),), ((0, 0.5), (1, -0.25)))
    probs = dm_logical_probs(circuit, eps, eps / 10)
    energies = np.array([energy(h, format(k, "02b")[::-1]) for k in range(4)])
    want = float(probs @ energies)
    var = float(probs @ (energies - want) ** 2)
    shots = 20_000
    counts = sample(circuit, shots, noise=NoiseModel(eps), seed=11)
    got = expectation(h, counts)
    assert abs(got - want) < 3 * math.sqrt(var / shots)


def test_hellinger_units():
    assert hellinger(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert hellinger(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    got = hellinger(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert got == pytest.approx(math.sqrt(1 - math.sqrt(0.5)), abs=1e-12)
    with pytest.raises(ValueError):
        hellinger(np.array([1.0]), np.array([0.5, 0.5]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_hellinger_symmetry(ws1, ws2):
    p = np.array(ws1) / sum(ws1)
    q = np.array(ws2) / sum(ws2)
    assert hellinger(p, q) == pytest.approx(hellinger(q, p), abs=1e-12)
    assert hellinger(p, p) < 2e-8  # sqrt of float rounding in the normalization


def test_reference_circuit_structure():
    h = ProblemHamiltonian(3, ((0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)),
                           ((0, 0.3), (1, 0.3), (2, 0.3)))
    ref = reference_circuit(h, QaoaParams((0.4,), (0.2,)))
    kinds = [g.kind for g in ref.gates]
    assert kinds.count("h") == 3 and kinds.count("zz") == 3
    assert kinds.count("rz") == 3 and kinds.count("rx") == 3

    mc = build_maxcut_hamiltonian([(0, 1), (1, 2)], 3)
    ref_mc = reference_circuit(mc, QaoaParams((0.4,), (0.2,)), kind="maxcut")
    assert all(g.kind != "rz" for g in ref_mc.gates)

    ref_vqe = reference_circuit(4, kind="vqe", thetas=[0.1] * 8)
    assert sum(1 for g in ref_vqe.gates if g.kind == "cz") == 6


def test_verify_pass_and_perturbation_fail():
    h = build_maxcut_hamiltonian([(0, 1), (0, 2), (1, 2)], 3)
    params = QaoaParams((0.6,), (0.9,))
    routed = route_qaoa_linear(h, params)
    ref = reference_circuit(h, params)
    assert verify(routed, ref).passed

    gates = list(routed.circuit.gates)
    at = next(i for i, g in enumerate(gates) if g.kind == "zz")
    gates[at] = type(gates[at])(gates[at].kind, gates[at].qubits, gates[at].angle + 0.1)
    perturbed = Circuit(3, tuple(gates))
    assert not verify(perturbed, ref).passed

    with pytest.raises(ValueError):
        verify(routed, reference_circuit(build_maxcut_hamiltonian([(0, 1)], 2), params))


def test_verify_simulates_each_circuit_once(monkeypatch):
    h = build_maxcut_hamiltonian([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
    params = QaoaParams((0.6,), (0.9,))
    routed, ref = route_qaoa_partial(h, params), reference_circuit(h, params)
    calls = []
    real = sim.simulate
    monkeypatch.setattr(sim, "simulate", lambda circuit: calls.append(circuit) or real(circuit))
    report = verify(routed, ref)
    assert report.passed
    assert calls == [routed.circuit, ref]
    assert report.hellinger == hellinger(distribution(routed.circuit), distribution(ref))


def test_sampled_hellinger_lands_in_shot_noise_band():
    # finite sampling puts distances in the 1e-3..1e-2 range, unlike the
    # exact-distribution check which is ~0
    h = build_maxcut_hamiltonian([(0, 1), (0, 2), (1, 2)], 3)
    params = QaoaParams((0.6,), (0.9,))
    routed = route_qaoa_linear(h, params)
    ref = reference_circuit(h, params)
    a = sample(routed.circuit, 8192, seed=1)
    b = sample(ref, 8192, seed=2)
    dim = 1 << 3
    pa = np.array([a.get(format(k, "03b")[::-1], 0) for k in range(dim)], dtype=float) / 8192
    pb = np.array([b.get(format(k, "03b")[::-1], 0) for k in range(dim)], dtype=float) / 8192
    d = hellinger(pa, pb)
    assert 1e-4 < d < 5e-2
