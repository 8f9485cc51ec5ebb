"""Exact statevector simulation, seeded sampling with optional depolarizing
noise, and distribution-level verification of routed circuits.

One state layout: an n-axis tensor of shape (2,) * n whose axis k is wire
position k. A SWAP, and the swap half of ZZSWAP and CZSWAP, is
`swapaxes`: a relabeling of two axes, with no arithmetic and no copy. The
other two-qubit kinds edit slices of the tensor in place; one-qubit kinds
contract a 2x2 matrix into one axis. `Statevector` amplitudes are this
tensor with its axes reversed and flattened, so they are little-endian:
bit k of a basis index is the value of position k.

A noisy trajectory is measured on the tensor flattened as it stands, so
its flat index is big-endian (bit n-1-k is position k). That is kept on
purpose: `rng.choice` walks the probabilities in array order, so any other
order would change every noisy count drawn for a fixed seed.

Distributions and counts live in logical-qubit space, i.e. the
measurement permutation (final_order) is already applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuits import SWAPPING_KINDS, Circuit, CircuitBuilder, Permutation

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

    def as_dict(self) -> dict[str, float]:
        """Nonzero probabilities keyed by logical bitstring."""
        return {_bits(idx, self.n): float(p) for idx, p in enumerate(self.probs) if p > 0.0}


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing channel strengths; applied after each gate to each touched
    qubit (X, Y, Z each with probability eps/4). One-qubit gates get
    eps_1q = eps_2q / 10; it is stored, not derived per read, because every
    gate of every trajectory reads it."""

    eps_2q: float
    eps_1q: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.eps_2q <= 1.0:
            raise ValueError("eps_2q must lie in [0, 1]")
        object.__setattr__(self, "eps_1q", self.eps_2q / 10.0)

    @property
    def is_trivial(self) -> bool:
        return self.eps_2q == 0.0


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


_MATS_1Q = {"h": lambda _: _MAT_H, "x": lambda _: _MAT_X,
            "rx": _mat_rx, "ry": _mat_ry, "rz": _mat_rz}


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, state, axes=([1], [q])), 0, q)


def _apply_gate(state: np.ndarray, gate) -> np.ndarray:
    """The position tensor after `gate`: `state` edited in place, a view of it,
    or (1-qubit kinds) a new tensor."""
    kind = gate.kind
    if kind in _MATS_1Q:
        return _apply_1q(state, _MATS_1Q[kind](gate.angle), gate.qubits[0])
    a, b = gate.qubits
    ix = [slice(None)] * state.ndim

    def at(u, v):  # the slice where position a has index u and b has v
        ix[a], ix[b] = u, v
        return tuple(ix)

    if kind == "cx":  # numpy copies the overlapping right-hand side first
        state[at(1, slice(None))] = state[at(1, slice(None, None, -1))]
    elif kind in ("cz", "czswap"):
        state[at(1, 1)] *= -1.0
    elif kind in ("zz", "zzswap"):
        even, odd = np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)
        state[at(0, 0)] *= even
        state[at(1, 1)] *= even
        state[at(0, 1)] *= odd
        state[at(1, 0)] *= odd
    elif kind != "swap":
        raise ValueError(f"cannot simulate gate kind {kind!r}")
    return state.swapaxes(a, b) if kind in SWAPPING_KINDS else state


def _check_cap(n: int):
    if n > SIMULATOR_QUBIT_CAP:
        raise SimulationCapError(f"exact simulation capped at {SIMULATOR_QUBIT_CAP} qubits, got {n}")


def _run(circuit: Circuit, noise: NoiseModel | None = None, rng=None) -> np.ndarray:
    """Position tensor after every gate, starting from |0...0>. With `noise`,
    one depolarizing trajectory: after each gate, one `rng` uniform per
    touched qubit picks X, Y or Z (each eps/4) or nothing."""
    state = np.zeros([2] * circuit.n, dtype=complex)
    state[(0,) * circuit.n] = 1.0
    for g in circuit.gates:
        state = _apply_gate(state, g)
        eps = 0.0 if noise is None else (noise.eps_2q if g.is_two_qubit else noise.eps_1q)
        if eps > 0.0:
            for q in g.qubits:
                r = rng.random()
                if r < 0.75 * eps:
                    state = _apply_1q(state, _PAULIS[int(r / (0.25 * eps))], q)
    return state


def simulate(circuit: Circuit) -> Statevector:
    """Exact state after all gates (macro and basis kinds both supported)."""
    _check_cap(circuit.n)
    flat = _run(circuit).transpose().reshape(-1)
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
    if noise is None or noise.is_trivial:
        draws = np.random.default_rng(seed).multinomial(shots, distribution(circuit).probs)
        return {_bits(i, circuit.n): int(c) for i, c in enumerate(draws) if c > 0}

    # a trajectory's flat index is big-endian: bit p is position n-1-p
    n = circuit.n
    logical = _logical_index_map(n, Permutation(circuit.final_order.map[::-1]))
    counts: dict[str, int] = {}
    for child in np.random.SeedSequence(seed).spawn(shots):
        rng = np.random.default_rng(child)
        probs = np.abs(_run(circuit, noise, rng).reshape(-1)) ** 2
        probs /= probs.sum()
        bits = _bits(int(logical[rng.choice(len(probs), p=probs)]), n)
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def reference_circuit(h, params=None, kind: str = "qaoa", thetas=None) -> Circuit:
    """All-to-all unrouted circuit built straight from the problem terms.

    QAOA (MaxCut included): Hadamard layer, then per depth the ZZ terms in
    ascending pair order, RZ for nonzero linear terms, and the RX mixer. VQE:
    RY layers around brickwork-free all-pair CZ blocks; pass `thetas` with
    (p+1)*n entries and `h` may be a qubit count.
    """
    if kind == "qaoa":
        if params is None:
            raise ValueError("QAOA reference needs params")
        b = CircuitBuilder(h.n, label=f"reference-qaoa-n{h.n}-p{params.p}")
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
