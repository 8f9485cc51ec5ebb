"""Circuit IR: decomposition, depth, counts, QASM, order tracking."""

import json
import math

import numpy as np
import pytest

from aoqmap import (Circuit, CircuitBuilder, Gate, Permutation, UnknownGateError,
                    circuit_from_dict, circuit_to_dict, decompose_to_basis, depth, emit_qasm,
                    gate_counts, simulate)

from oracles import statevector as oracle_statevector


def _cx_count(circuit):
    return sum(1 for g in circuit.gates if g.kind == "cx")


def test_gate_validation():
    with pytest.raises(UnknownGateError):
        Gate("toffoli", (0, 1))
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("h", (0,), angle=0.5)
    with pytest.raises(ValueError):
        Gate("rz", (0,))


def test_permutation_invariants():
    p = Permutation([2, 0, 1])
    assert list(p) == [2, 0, 1] and len(p) == 3 and p[0] == 2
    assert p == Permutation((2, 0, 1)) and p != Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_zz_decomposition_counts():
    c = CircuitBuilder(2).zz(0, 1, 0.3).build()
    dec = decompose_to_basis(c)
    assert _cx_count(dec) == 2
    assert sum(1 for g in dec.gates if g.kind == "rz") == 1


def test_zzswap_is_one_extra_cx():
    for angle in (0.3, -1.7, 0.0, math.pi):
        zz = decompose_to_basis(CircuitBuilder(2).zz(0, 1, angle).build())
        fused = decompose_to_basis(CircuitBuilder(2).zzswap(0, 1, angle).build())
        assert _cx_count(fused) == _cx_count(zz) + 1 == 3


def test_czswap_is_one_extra_cx():
    cz = decompose_to_basis(CircuitBuilder(2).cz(0, 1).build())
    fused = decompose_to_basis(CircuitBuilder(2).czswap(0, 1).build())
    assert _cx_count(cz) == 1
    assert _cx_count(fused) == 2


def test_empty_circuit_decomposes_to_empty():
    c = Circuit(3)
    assert decompose_to_basis(c).gates == ()
    assert gate_counts(c) == gate_counts(decompose_to_basis(c))


def test_bare_swap_is_three_cx():
    dec = decompose_to_basis(CircuitBuilder(2).swap(0, 1).build())
    assert [g.kind for g in dec.gates] == ["cx", "cx", "cx"]


@pytest.mark.parametrize("seed", range(8))
def test_decomposition_preserves_statevector(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    b = CircuitBuilder(n)
    two = ["cx", "cz", "swap", "zz", "zzswap", "czswap"]
    one = ["h", "x", "rx", "ry", "rz"]
    for _ in range(14):
        if rng.random() < 0.5:
            kind = one[int(rng.integers(len(one)))]
            angle = float(rng.uniform(-3, 3)) if kind.startswith("r") else None
            b.add(kind, (int(rng.integers(n)),), angle)
        else:
            kind = two[int(rng.integers(len(two)))]
            q = int(rng.integers(n - 1))
            angle = float(rng.uniform(-3, 3)) if kind.startswith("zz") else None
            b.add(kind, (q, q + 1), angle)
    c = b.build()
    psi = simulate(c).amplitudes
    psi_dec = simulate(decompose_to_basis(c)).amplitudes
    assert abs(np.vdot(psi, psi_dec)) ** 2 > 1 - 1e-12
    # macro simulation agrees with the independent matrix oracle
    assert np.allclose(psi, oracle_statevector(c), atol=1e-10)


def test_final_order_replays_swaps():
    b = CircuitBuilder(4)
    b.zz(0, 1, 0.2).zzswap(1, 2, 0.4).swap(0, 1).czswap(2, 3)
    c = b.build()
    order = list(range(4))
    for g in c.gates:
        if g.kind in ("swap", "zzswap", "czswap"):
            i, j = g.qubits
            order[i], order[j] = order[j], order[i]
    assert list(c.final_order) == order


def test_depth_trivial_cases():
    assert depth(Circuit(1)) == 0
    c = CircuitBuilder(2).h(0).h(1).build()
    assert depth(c) == 1
    c = CircuitBuilder(3).cx(0, 1).cx(1, 2).build()
    assert depth(c) == 2


def test_gate_counts_examples():
    assert gate_counts(Circuit(2)) == gate_counts(Circuit(2))
    counts = gate_counts(Circuit(2))
    assert (counts.cx, counts.total, counts.depth) == (0, 0, 0)
    counts = gate_counts(CircuitBuilder(2).cz(0, 1).build())
    assert (counts.cx, counts.total) == (1, 3)


def test_qasm_single_qubit():
    c = CircuitBuilder(1).h(0).build()
    text = emit_qasm(c)
    assert "h q[0];" in text
    assert "measure q[0] -> c[0];" in text
    assert text.startswith("OPENQASM 2.0;")


def test_qasm_measurement_permutation():
    c = CircuitBuilder(2).swap(0, 1).build()
    text = emit_qasm(decompose_to_basis(c))
    assert "measure q[0] -> c[1];" in text
    assert "measure q[1] -> c[0];" in text


def test_qasm_rejects_macro_gates():
    c = CircuitBuilder(2).zz(0, 1, 0.5).build()
    with pytest.raises(UnknownGateError):
        emit_qasm(c)


def test_qasm_gate_line_count_matches_total():
    b = CircuitBuilder(3)
    b.h(0).zz(0, 1, 0.3).zzswap(1, 2, 0.7).rx(2, 0.1)
    dec = decompose_to_basis(b.build())
    lines = emit_qasm(dec).strip().splitlines()
    gate_lines = [ln for ln in lines[4:] if not ln.startswith("measure")]
    assert len(gate_lines) == gate_counts(dec).total


def test_circuit_json_roundtrip():
    b = CircuitBuilder(3)
    b.h(0).zzswap(0, 1, 0.25).rz(2, -0.5)
    c = b.build()
    again = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(c))))
    assert again.n == c.n
    assert again.gates == c.gates
    assert again.final_order == c.final_order
    # decomposed circuits keep their measurement map through the roundtrip
    dec = decompose_to_basis(c)
    again_dec = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(dec))))
    assert again_dec.final_order == c.final_order
