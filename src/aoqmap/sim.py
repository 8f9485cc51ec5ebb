"""Exact statevector simulation, seeded sampling with optional depolarizing
noise, and distribution-level verification of routed circuits.

States are little-endian: bit k of a basis index is the value of wire
position k. Distributions and counts live in logical-qubit space, i.e. the
measurement permutation (final_order) is already applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, CircuitBuilder, Permutation

SIMULATOR_QUBIT_CAP = 16


class SimulationCapError(ValueError):
    """Circuit exceeds the exact-simulation qubit cap."""


@dataclass(frozen=True)
class Statevector:
    """Flat complex amplitudes, little-endian over wire positions."""

    amplitudes: np.ndarray
    n: int


@dataclass(frozen=True)
class Distribution:
    """Probabilities per logical bitstring, little-endian indexed."""

    probs: np.ndarray
    n: int

    def __post_init__(self):
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("distribution does not sum to 1")

    def as_dict(self, tol: float = 0.0) -> dict[str, float]:
        out = {}
        for idx, p in enumerate(self.probs):
            if p > tol:
                out[_bits(idx, self.n)] = float(p)
        return out


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing channel strengths; applied after each gate to each touched
    qubit (X, Y, Z each with probability eps/4)."""

    eps_2q: float
    eps_1q: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.eps_2q <= 1.0:
            raise ValueError("eps_2q must lie in [0, 1]")
        eps1 = self.eps_2q / 10.0 if self.eps_1q is None else float(self.eps_1q)
        if not 0.0 <= eps1 <= 1.0:
            raise ValueError("eps_1q must lie in [0, 1]")
        object.__setattr__(self, "eps_1q", eps1)

    @property
    def is_trivial(self) -> bool:
        return self.eps_2q == 0.0 and self.eps_1q == 0.0


def _bits(index: int, n: int) -> str:
    return "".join(str((index >> k) & 1) for k in range(n))


_SQ2 = 1.0 / math.sqrt(2.0)
_MAT_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_MAT_X = np.array([[0, 1], [1, 0]], dtype=complex)
_MAT_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_MAT_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_MAT_X, _MAT_Y, _MAT_Z)


@lru_cache(maxsize=4096)
def _mat_rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


@lru_cache(maxsize=4096)
def _mat_ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


@lru_cache(maxsize=4096)
def _mat_rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    state = np.tensordot(mat, state, axes=([1], [q]))
    return np.moveaxis(state, 0, q)


def _idx(n, assignments):
    sl: list = [slice(None)] * n
    for q, v in assignments.items():
        sl[q] = v
    return tuple(sl)


def _apply_cx(state, a, b):
    n = state.ndim
    out = state.copy()
    out[_idx(n, {a: 1, b: 0})] = state[_idx(n, {a: 1, b: 1})]
    out[_idx(n, {a: 1, b: 1})] = state[_idx(n, {a: 1, b: 0})]
    return out


def _apply_cz(state, a, b):
    n = state.ndim
    state = state.copy()
    state[_idx(n, {a: 1, b: 1})] *= -1.0
    return state


def _apply_swap(state, a, b):
    n = state.ndim
    out = state.copy()
    out[_idx(n, {a: 0, b: 1})] = state[_idx(n, {a: 1, b: 0})]
    out[_idx(n, {a: 1, b: 0})] = state[_idx(n, {a: 0, b: 1})]
    return out


def _apply_zz(state, a, b, theta):
    n = state.ndim
    state = state.copy()
    even, odd = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    state[_idx(n, {a: 0, b: 0})] *= even
    state[_idx(n, {a: 1, b: 1})] *= even
    state[_idx(n, {a: 0, b: 1})] *= odd
    state[_idx(n, {a: 1, b: 0})] *= odd
    return state


def _apply_gate(state, gate):
    kind = gate.kind
    if kind == "h":
        return _apply_1q(state, _MAT_H, gate.qubits[0])
    if kind == "x":
        return _apply_1q(state, _MAT_X, gate.qubits[0])
    if kind == "rx":
        return _apply_1q(state, _mat_rx(gate.angle), gate.qubits[0])
    if kind == "ry":
        return _apply_1q(state, _mat_ry(gate.angle), gate.qubits[0])
    if kind == "rz":
        return _apply_1q(state, _mat_rz(gate.angle), gate.qubits[0])
    a, b = gate.qubits
    if kind == "cx":
        return _apply_cx(state, a, b)
    if kind == "cz":
        return _apply_cz(state, a, b)
    if kind == "swap":
        return _apply_swap(state, a, b)
    if kind == "zz":
        return _apply_zz(state, a, b, gate.angle)
    if kind == "zzswap":
        return _apply_swap(_apply_zz(state, a, b, gate.angle), a, b)
    if kind == "czswap":
        return _apply_swap(_apply_cz(state, a, b), a, b)
    raise ValueError(f"cannot simulate gate kind {kind!r}")


def _check_cap(n: int):
    if n > SIMULATOR_QUBIT_CAP:
        raise SimulationCapError(f"exact simulation capped at {SIMULATOR_QUBIT_CAP} qubits, got {n}")


def _run(circuit: Circuit) -> np.ndarray:
    state = np.zeros([2] * circuit.n, dtype=complex)
    state[(0,) * circuit.n] = 1.0
    for g in circuit.gates:
        state = _apply_gate(state, g)
    return state


def simulate(circuit: Circuit) -> Statevector:
    """Exact state after all gates (macro and basis kinds both supported)."""
    _check_cap(circuit.n)
    state = _run(circuit)
    flat = state.transpose(*reversed(range(circuit.n))).reshape(-1) if circuit.n else state.reshape(-1)
    norm = float(np.linalg.norm(flat))
    drift = 1e-10 * max(1.0, len(circuit.gates) / 100.0)
    if not abs(norm - 1.0) < max(drift, 1e-10):
        raise RuntimeError(f"statevector norm drifted to {norm}")
    return Statevector(flat, circuit.n)


def _logical_index_map(n: int, order: Permutation) -> np.ndarray:
    """Map position-space basis indices to logical-space ones: bit p of the
    input becomes bit order[p] of the output."""
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(idx)
    for p in range(n):
        out |= ((idx >> p) & 1) << order[p]
    return out


def permute_to_logical(state: Statevector, order: Permutation) -> np.ndarray:
    """Amplitudes re-indexed so bit k belongs to logical qubit k."""
    mapping = _logical_index_map(state.n, order)
    out = np.empty_like(state.amplitudes)
    out[mapping] = state.amplitudes
    return out


def _born(amplitudes: np.ndarray, n: int) -> Distribution:
    """Normalized outcome probabilities of logical-space amplitudes."""
    probs = np.abs(amplitudes) ** 2
    return Distribution(probs / float(probs.sum()), n)


def distribution(circuit: Circuit) -> Distribution:
    """Exact outcome probabilities over logical bitstrings (measurement map
    applied)."""
    return _born(permute_to_logical(simulate(circuit), circuit.final_order), circuit.n)


def hellinger(p, q) -> float:
    """H(P, Q) = (1 - sum_j sqrt(p_j q_j))^(1/2)."""
    pa = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    qa = q.probs if isinstance(q, Distribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"distribution size mismatch: {pa.shape} vs {qa.shape}")
    affinity = float(np.sqrt(pa * qa).sum())
    return math.sqrt(max(0.0, 1.0 - affinity))


def _sample_exact(circuit, shots, rng) -> dict[str, int]:
    dist = distribution(circuit)
    draws = rng.multinomial(shots, dist.probs)
    return {_bits(i, circuit.n): int(c) for i, c in enumerate(draws) if c > 0}


def _trajectory(circuit, rng, noise) -> int:
    """One noisy run; returns the measured position-space basis index."""
    state = np.zeros([2] * circuit.n, dtype=complex)
    state[(0,) * circuit.n] = 1.0
    for g in circuit.gates:
        state = _apply_gate(state, g)
        eps = noise.eps_2q if g.is_two_qubit else noise.eps_1q
        if eps > 0.0:
            for q in g.qubits:
                r = rng.random()
                if r < 0.75 * eps:
                    state = _apply_1q(state, _PAULIS[int(r / (0.25 * eps))], q)
    probs = np.abs(state.reshape(-1)) ** 2
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


def sample(circuit: Circuit, shots: int, noise: NoiseModel | None = None,
           seed: int | None = None) -> dict[str, int]:
    """Measurement counts over logical bitstrings.

    Noiseless (or eps = 0) sampling draws from the exact distribution; any
    nonzero strength switches to per-shot trajectory unraveling with one RNG
    stream per trajectory, spawned from (seed, shot index).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_cap(circuit.n)
    if seed is None and noise is not None:
        seed = noise.seed
    if noise is None or noise.is_trivial:
        return _sample_exact(circuit, shots, np.random.default_rng(seed))

    # tensor index -> little-endian position index -> logical index
    n = circuit.n
    weights = np.array([1 << (n - 1 - axis) for axis in range(n)], dtype=np.int64)
    logical = _logical_index_map(n, circuit.final_order)
    counts: dict[str, int] = {}
    for child in np.random.SeedSequence(seed).spawn(shots):
        rng = np.random.default_rng(child)
        raw = _trajectory(circuit, rng, noise)
        pos_index = 0
        for axis in range(n):
            if raw & weights[axis]:
                pos_index |= 1 << axis
        bits = _bits(int(logical[pos_index]), n)
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def reference_circuit(h, params=None, kind: str = "qaoa", thetas=None) -> Circuit:
    """All-to-all unrouted circuit built straight from the problem terms.

    QAOA/MaxCut: Hadamard layer, then per depth the ZZ terms in ascending
    pair order, RZ for nonzero linear terms, and the RX mixer. VQE: RY
    layers around brickwork-free all-pair CZ blocks; pass `thetas` with
    (p+1)*n entries and `h` may be a qubit count.
    """
    kind = kind.lower()
    if kind in ("qaoa", "maxcut"):
        if params is None:
            raise ValueError("QAOA reference needs params")
        b = CircuitBuilder(h.n, label=f"reference-{kind}-n{h.n}-p{params.p}")
        for q in range(h.n):
            b.h(q)
        z_items = [(i, c) for i, c in sorted(h.z_coeffs().items()) if c != 0.0]
        for d in range(params.p):
            for i, j, c in h.zz:
                b.zz(i, j, 2.0 * params.gammas[d] * c)
            for i, c in z_items:
                b.rz(i, 2.0 * params.gammas[d] * c)
            for q in range(h.n):
                b.rx(q, 2.0 * params.betas[d])
        return b.build()

    if kind == "vqe":
        n = h if isinstance(h, int) else h.n
        if thetas is None:
            raise ValueError("VQE reference needs thetas")
        thetas = tuple(float(t) for t in thetas)
        if len(thetas) % n != 0 or len(thetas) < 2 * n:
            raise ValueError("thetas length must be (p+1)*n with p >= 1")
        p = len(thetas) // n - 1
        b = CircuitBuilder(n, label=f"reference-vqe-n{n}-p{p}")
        for q in range(n):
            b.ry(q, thetas[q])
        for d in range(1, p + 1):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    b.cz(i, j)
            for q in range(n):
                b.ry(q, thetas[d * n + q])
        return b.build()

    raise ValueError(f"unknown reference kind {kind!r}")


@dataclass(frozen=True)
class VerifyReport:
    hellinger: float
    fidelity: float
    passed: bool


def verify(routed, reference: Circuit) -> VerifyReport:
    """Exact-distribution Hellinger plus permutation-adjusted state fidelity."""
    circuit = getattr(routed, "circuit", routed)
    if circuit.n != reference.n:
        raise ValueError(f"qubit count mismatch: {circuit.n} vs {reference.n}")
    _check_cap(circuit.n)
    psi_r = permute_to_logical(simulate(circuit), circuit.final_order)
    psi_ref = permute_to_logical(simulate(reference), reference.final_order)
    h_dist = hellinger(_born(psi_r, circuit.n), _born(psi_ref, reference.n))
    fid = float(abs(np.vdot(psi_ref, psi_r)) ** 2)
    return VerifyReport(hellinger=h_dist, fidelity=fid,
                        passed=h_dist < 1e-6 and fid > 1 - 1e-9)
