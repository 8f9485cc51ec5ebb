"""Circuit IR: parameterized gates over wire positions with qubit-order tracking.

A circuit acts on n wire positions. ``initial_order[k]`` names the logical
qubit stored at position k before the first gate; every SWAP-like gate
exchanges two entries, and ``final_order`` is the resulting map consumed by
the measurement stage. The fused macro gates (ZZSWAP, CZSWAP) keep a
two-qubit interaction glued to its trailing SWAP so decomposition can cancel
CX pairs instead of paying the full 3-CX SWAP cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hamiltonians import _number

SINGLE_QUBIT_KINDS = frozenset({"h", "x", "rx", "ry", "rz"})
TWO_QUBIT_KINDS = frozenset({"cx", "cz", "swap", "zz", "zzswap", "czswap"})
GATE_KINDS = SINGLE_QUBIT_KINDS | TWO_QUBIT_KINDS
ROTATION_KINDS = frozenset({"rx", "ry", "rz", "zz", "zzswap"})
SWAPPING_KINDS = frozenset({"swap", "zzswap", "czswap"})
BASIS_KINDS = frozenset({"h", "x", "rx", "ry", "rz", "cx"})


class UnknownGateError(ValueError):
    """Gate kind outside the supported set."""


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, 1-2 position indices, and an angle for rotations."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise UnknownGateError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        arity = 1 if self.kind in SINGLE_QUBIT_KINDS else 2
        if len(self.qubits) != arity or len(set(self.qubits)) != arity:
            raise ValueError(f"{self.kind} needs {arity} distinct qubit(s), got {self.qubits}")
        if (self.angle is None) == (self.kind in ROTATION_KINDS):
            raise ValueError(f"{self.kind}: angle must be present iff the kind is rotation-like")

    @property
    def is_two_qubit(self) -> bool:
        return self.kind in TWO_QUBIT_KINDS


class Permutation:
    """Position -> logical-qubit bijection on {0..n-1}."""

    __slots__ = ("map",)

    def __init__(self, entries):
        m = tuple(int(v) for v in entries)
        if sorted(m) != list(range(len(m))):
            raise ValueError(f"not a permutation of 0..{len(m) - 1}: {m}")
        self.map = m

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    def __len__(self):
        return len(self.map)

    def __getitem__(self, k: int) -> int:
        return self.map[k]

    def __iter__(self):
        return iter(self.map)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.map == other.map

    def __hash__(self):
        return hash(self.map)

    def __repr__(self):
        return f"Permutation({list(self.map)})"


def _replay_order(order: Permutation, gates) -> Permutation:
    m = list(order.map)
    for g in gates:
        if g.kind in SWAPPING_KINDS:
            i, j = g.qubits
            m[i], m[j] = m[j], m[i]
    return Permutation(m)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list over n positions plus initial/final qubit orders.

    ``final_order`` is derived by replaying the swap transpositions when not
    given. Basis-decomposed circuits realize their swaps as CX chains the
    replay cannot see, so decomposition passes the original map explicitly.
    """

    n: int
    gates: tuple[Gate, ...] = ()
    initial_order: Permutation | None = None
    final_order: Permutation | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.n or q < 0 for q in g.qubits):
                raise ValueError(f"gate {g} out of range for n={self.n}")
        init = self.initial_order if self.initial_order is not None else Permutation.identity(self.n)
        if len(init) != self.n:
            raise ValueError("initial_order size mismatch")
        fin = self.final_order if self.final_order is not None else _replay_order(init, self.gates)
        if len(fin) != self.n:
            raise ValueError("final_order size mismatch")
        object.__setattr__(self, "initial_order", init)
        object.__setattr__(self, "final_order", fin)

    def __len__(self):
        return len(self.gates)


@dataclass(frozen=True)
class GateCounts:
    cx: int
    total: int
    depth: int


class CircuitBuilder:
    """Mutable helper that tracks the live qubit order while emitting gates."""

    def __init__(self, n: int, initial_order=None, label: str = ""):
        self.n = n
        self.label = label
        self._initial = tuple(initial_order) if initial_order is not None else tuple(range(n))
        self._order = list(self._initial)
        self._gates: list[Gate] = []

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(self._order)

    def add(self, kind: str, qubits, angle: float | None = None):
        g = Gate(kind, tuple(qubits), angle)
        self._gates.append(g)
        if kind in SWAPPING_KINDS:
            i, j = g.qubits
            self._order[i], self._order[j] = self._order[j], self._order[i]
        return self

    def h(self, q):
        return self.add("h", (q,))

    def x(self, q):
        return self.add("x", (q,))

    def rx(self, q, angle):
        return self.add("rx", (q,), angle)

    def ry(self, q, angle):
        return self.add("ry", (q,), angle)

    def rz(self, q, angle):
        return self.add("rz", (q,), angle)

    def cx(self, a, b):
        return self.add("cx", (a, b))

    def cz(self, a, b):
        return self.add("cz", (a, b))

    def swap(self, a, b):
        return self.add("swap", (a, b))

    def zz(self, a, b, angle):
        return self.add("zz", (a, b), angle)

    def zzswap(self, a, b, angle):
        return self.add("zzswap", (a, b), angle)

    def czswap(self, a, b):
        return self.add("czswap", (a, b))

    def build(self) -> Circuit:
        return Circuit(self.n, tuple(self._gates), Permutation(self._initial), label=self.label)


def _basis_expansion(g: Gate) -> list[Gate]:
    a = g.qubits[0] if g.is_two_qubit else None
    b = g.qubits[1] if g.is_two_qubit else None
    if g.kind in BASIS_KINDS:
        return [g]
    if g.kind == "cz":
        return [Gate("h", (b,)), Gate("cx", (a, b)), Gate("h", (b,))]
    if g.kind == "swap":
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    if g.kind == "zz":
        return [Gate("cx", (a, b)), Gate("rz", (b,), g.angle), Gate("cx", (a, b))]
    if g.kind == "zzswap":
        # ZZ followed by SWAP on the same pair; the middle CX pair cancels.
        return [Gate("cx", (a, b)), Gate("rz", (b,), g.angle), Gate("cx", (b, a)), Gate("cx", (a, b))]
    if g.kind == "czswap":
        # CZ followed by SWAP; the second Hadamard lands on the other wire.
        return [Gate("h", (b,)), Gate("cx", (b, a)), Gate("cx", (a, b)), Gate("h", (a,))]
    raise UnknownGateError(f"unknown gate kind {g.kind!r}")


def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite to {H, X, RX, RY, RZ, CX}, preserving the unitary and order maps."""
    out: list[Gate] = []
    for g in circuit.gates:
        out.extend(_basis_expansion(g))
    return Circuit(circuit.n, tuple(out), circuit.initial_order, circuit.final_order,
                   label=circuit.label)


def depth(circuit: Circuit) -> int:
    """Layered depth: longest chain of gates sharing qubits, every gate counts 1."""
    level = [0] * circuit.n
    for g in circuit.gates:
        d = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = d
    return max(level, default=0) if circuit.n else 0


def gate_counts(circuit: Circuit) -> GateCounts:
    """Counts on the basis-decomposed circuit."""
    dec = decompose_to_basis(circuit)
    cx = sum(1 for g in dec.gates if g.kind == "cx")
    return GateCounts(cx=cx, total=len(dec.gates), depth=depth(dec))


def emit_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text; requires a basis-decomposed circuit.

    Classical bit ``final_order[p]`` records the measurement of position p,
    so bit k always carries logical qubit k.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.n}];", f"creg c[{circuit.n}];"]
    for g in circuit.gates:
        if g.kind not in BASIS_KINDS:
            raise UnknownGateError(f"cannot emit non-basis gate {g.kind!r}; decompose first")
        args = ", ".join(f"q[{q}]" for q in g.qubits)
        if g.angle is not None:
            lines.append(f"{g.kind}({g.angle!r}) {args};")
        else:
            lines.append(f"{g.kind} {args};")
    for p in range(circuit.n):
        lines.append(f"measure q[{p}] -> c[{circuit.final_order[p]}];")
    return "\n".join(lines) + "\n"


def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "n": circuit.n,
        "gates": [
            {"kind": g.kind, "qubits": list(g.qubits), "angle": g.angle}
            for g in circuit.gates
        ],
        "initial_order": list(circuit.initial_order),
        "final_order": list(circuit.final_order),
        "label": circuit.label,
    }


def _angle(value, k: int):
    return None if value is None else _number(value, f"gates[{k}].angle")


def circuit_from_dict(data: dict) -> Circuit:
    n = data["n"]
    if type(n) is not int:  # bool is a subclass of int
        raise ValueError(f"field 'n' must be an integer, got {n!r}")
    gates = tuple(Gate(g["kind"], tuple(g["qubits"]), _angle(g.get("angle"), k))
                  for k, g in enumerate(data["gates"]))
    final = Permutation(data["final_order"]) if "final_order" in data else None
    return Circuit(n, gates, Permutation(data["initial_order"]), final,
                   label=data.get("label", ""))
