"""Statevector simulation, sampling, noise unraveling, and verification."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoqmap import (Circuit, CircuitBuilder, NoiseModel, ProblemHamiltonian, QaoaParams,
                    SimulationCapError, build_maxcut_hamiltonian, decompose_to_basis,
                    distribution, energy, expectation, hellinger, reference_circuit,
                    route_qaoa_linear, route_qaoa_partial, route_qaoa_subtop, route_vqe_linear,
                    sample, simulate, swapnk_baseline, verify)
from aoqmap import sim
from aoqmap.circuits import GATE_KINDS, ROTATION_KINDS, SINGLE_QUBIT_KINDS

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
    nm = NoiseModel(0.05)
    assert sample(c, 200, noise=nm, seed=3) == sample(c, 200, noise=nm, seed=3)
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
    ref_mc = reference_circuit(mc, QaoaParams((0.4,), (0.2,)))
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


def _random_circuit(n, seed, gates=40):
    """Hadamard layer then `gates` random gates of every kind the width allows,
    on a shuffled initial order."""
    rng = np.random.default_rng(seed)
    kinds = sorted(GATE_KINDS if n > 1 else SINGLE_QUBIT_KINDS)
    b = CircuitBuilder(n, initial_order=[int(q) for q in rng.permutation(n)])
    for q in range(n):
        b.h(q)
    for _ in range(gates):
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = rng.choice(n, size=1 if kind in SINGLE_QUBIT_KINDS else 2, replace=False)
        b.add(kind, [int(q) for q in qubits],
              float(rng.uniform(-3, 3)) if kind in ROTATION_KINDS else None)
    return b.build()


def _dense_h(n, seed):
    rng = np.random.default_rng(seed)
    zz = tuple((i, j, float(rng.uniform(-1, 1))) for i in range(n - 1) for j in range(i + 1, n))
    return ProblemHamiltonian(n, zz, tuple((i, float(rng.uniform(-1, 1))) for i in range(n)))


def _sparse_h(n, seed):
    rng = np.random.default_rng(seed)
    pool = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    idx = sorted(rng.choice(len(pool), size=len(pool) // 3, replace=False))
    return ProblemHamiltonian(n, tuple((*pool[int(k)], float(rng.uniform(-1, 1))) for k in idx))


def _golden_circuits():
    """(case id, circuit): every gate kind, shuffled initial orders, every router,
    and the basis decomposition of each routed circuit."""
    yield "empty-n0", Circuit(0)
    for n, seed in itertools.product((1, 2, 3, 5, 8), (0, 1)):
        yield f"random-n{n}-s{seed}", _random_circuit(n, seed)
    params = QaoaParams((0.3, 0.4), (0.6, 0.5))
    routed = []
    for kind, (n, p), mirror in itertools.product(("linear", "t", "h"), ((7, 2), (9, 1)),
                                                  (False, True)):
        h, pp = _dense_h(n, n), QaoaParams(params.gammas[:p], params.betas[:p])
        r = (route_qaoa_linear(h, pp, mirror=mirror) if kind == "linear"
             else route_qaoa_subtop(h, pp, kind, mirror=mirror))
        routed.append((f"{kind}{'-mirror' if mirror else ''}-n{n}-p{p}", r.circuit))
    routed.append(("linear-n12-p1",
                   route_qaoa_linear(_dense_h(12, 12), QaoaParams((0.3,), (0.6,))).circuit))
    routed.append(("swapnk-n6-p2", swapnk_baseline(_dense_h(6, 6), params).circuit))
    routed.append(("vqe-n4-p2", route_vqe_linear(4, 2, [0.1 * k for k in range(12)]).circuit))
    routed.append(("vqe-n7-p1", route_vqe_linear(7, 1, [0.1 * k for k in range(14)]).circuit))
    for kind, n, strategy in (("linear", 6, "exhaustive"), ("t", 7, "sampled"), ("h", 9, "sampled")):
        r = route_qaoa_partial(_sparse_h(n, n), params, kind=kind, strategy=strategy,
                               samples=100, seed=5)
        routed.append((f"partial-{strategy}-{kind}-n{n}", r.circuit))
    for case, circuit in routed:
        yield case, circuit
        yield f"{case}-basis", decompose_to_basis(circuit)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:10]


def test_simulation_golden():
    """Amplitudes, probabilities and seeded counts pinned bit for bit: a change
    to any float operation or to the RNG's consumption shows here."""
    got = {}
    for case, c in _golden_circuits():
        got[case] = " ".join((
            _digest(simulate(c).amplitudes.tobytes()),
            _digest(distribution(c).probs.tobytes()),
            _digest(json.dumps(sample(c, 500, seed=3), sort_keys=True).encode()),
            _digest(json.dumps(sample(c, 40, noise=NoiseModel(0.05), seed=7),
                               sort_keys=True).encode())))
    assert got == SIM_GOLDEN


# sha256 prefixes per _golden_circuits case: amplitudes, probabilities,
# noiseless counts (500 shots), noisy counts (eps 0.05, 40 shots)
SIM_GOLDEN = {
    "empty-n0": "3239b05c38 6c3c396ed6 6a1fc16880 e03c89607b",
    "random-n1-s0": "ea7915bdbd 75771fa512 9ef3e3991e 872cddcb30",
    "random-n1-s1": "8be889acd1 9d5ff2f667 a465f26e3d c2e3fa5456",
    "random-n2-s0": "2aae75d4c1 6724d6716f 03c7c1cad2 9dd0ee8ce5",
    "random-n2-s1": "9d198b59a5 93150dddac db46f84d9b bf0be1ab44",
    "random-n3-s0": "8fc93cd4bf 903251d1c1 8220551bc8 e24b62c7b6",
    "random-n3-s1": "a1c94f3b29 b3c383eaf7 9fdf5658af 890de12203",
    "random-n5-s0": "2603fa6edd ea46f5104b b9db91757c 0b925e5628",
    "random-n5-s1": "41699b9844 9cf624efc5 eae26b0346 fc264271d5",
    "random-n8-s0": "6a3fca9dc8 351e82c84e 71ac5e3258 a9f6e7fd94",
    "random-n8-s1": "15e35ab1ae fd08b28880 2d2c76e732 1acbb19c4c",
    "linear-n7-p2": "6c77b017ba cfe1afe6b3 a8408f49b5 740eccadcc",
    "linear-n7-p2-basis": "afe596c3ab 459e85bffe a8408f49b5 4a9d5dff36",
    "linear-mirror-n7-p2": "5360ad78f0 8a0a928a15 a8408f49b5 25d1f4013d",
    "linear-mirror-n7-p2-basis": "a2b0d928d4 92829b00e9 a8408f49b5 8000a17c5e",
    "linear-n9-p1": "d1f9cd0d3b c1f33761d6 9f4d6074b6 36ef55aa81",
    "linear-n9-p1-basis": "1926ae910e 15006e66e3 9f4d6074b6 49ba000380",
    "linear-mirror-n9-p1": "d1f9cd0d3b c1f33761d6 9f4d6074b6 36ef55aa81",
    "linear-mirror-n9-p1-basis": "1926ae910e 15006e66e3 9f4d6074b6 49ba000380",
    "t-n7-p2": "b3445301d8 3bf5092376 a8408f49b5 dcd85ebd48",
    "t-n7-p2-basis": "7f75181aa5 f459da2c3d a8408f49b5 e2381acedc",
    "t-mirror-n7-p2": "3b8dc7a1a6 4c4b6c9a7b a8408f49b5 fbdb859906",
    "t-mirror-n7-p2-basis": "caedc6e5c2 c8c78b576e a8408f49b5 f30aa5fe6f",
    "t-n9-p1": "78f75cb438 728453947a 9f4d6074b6 50b74b13a8",
    "t-n9-p1-basis": "6b1d54cc53 41dd6337c6 9f4d6074b6 50c9f9f292",
    "t-mirror-n9-p1": "78f75cb438 728453947a 9f4d6074b6 50b74b13a8",
    "t-mirror-n9-p1-basis": "6b1d54cc53 41dd6337c6 9f4d6074b6 50c9f9f292",
    "h-n7-p2": "012b38664d ca544d3aa8 a8408f49b5 c72fd9aa21",
    "h-n7-p2-basis": "09e86c03f1 4a38d050d4 a8408f49b5 a7e5381a3a",
    "h-mirror-n7-p2": "cbcf383bf8 725e4e2ac4 a8408f49b5 e2c52f4b0a",
    "h-mirror-n7-p2-basis": "02f9ef92fa f594148c8b a8408f49b5 95f4867f2d",
    "h-n9-p1": "dd6c2fe38a 4bae26771a 9f4d6074b6 c8c5152695",
    "h-n9-p1-basis": "b5c401d109 88f7efd5a6 9f4d6074b6 f2b5f3d034",
    "h-mirror-n9-p1": "dd6c2fe38a 4bae26771a 9f4d6074b6 c8c5152695",
    "h-mirror-n9-p1-basis": "b5c401d109 88f7efd5a6 9f4d6074b6 f2b5f3d034",
    "linear-n12-p1": "9310c7bdac 1eb16b7f00 8ef9223b1b 4f0c2f9f6c",
    "linear-n12-p1-basis": "2bb2c5b012 3d057c1985 8ef9223b1b 1b76c4d4fb",
    "swapnk-n6-p2": "41f32f922b 4e2fd4f435 fe963a81d7 85317c8958",
    "swapnk-n6-p2-basis": "0fa2271167 1dc82e6b9a fe963a81d7 14a5900ef8",
    "vqe-n4-p2": "f8cd9dc909 524f0cbfdf 93fea06c61 1113b41c4f",
    "vqe-n4-p2-basis": "8b08ca6052 3acdc8c005 93fea06c61 b6f796a025",
    "vqe-n7-p1": "baf5093af0 d61e1f16f9 2211dbe41c 139eba3f5f",
    "vqe-n7-p1-basis": "7e3287fc0d 75426e8467 2211dbe41c 4eca68ade7",
    "partial-exhaustive-linear-n6": "e3269221e5 2213cb2ac4 704081a44a 00bc4e47f5",
    "partial-exhaustive-linear-n6-basis": "25c263dac9 4435900430 704081a44a 1e0108e4ac",
    "partial-sampled-t-n7": "c055902064 c86ee29088 baf7bb71e3 741a68bce3",
    "partial-sampled-t-n7-basis": "db3ee63d47 07e1d75f44 baf7bb71e3 83c98ad595",
    "partial-sampled-h-n9": "3300a241b5 578e78cd79 c2043a7a7d 628135b6f9",
    "partial-sampled-h-n9-basis": "7bec6a2798 d6511c6215 c2043a7a7d 9705554738",
}
