"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with plain matrix/list machinery,
separate from the package's tensor simulator and routers, so the two sides
can disagree when one of them is wrong.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _rot(axis: str, t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)


def _local_matrix(gate) -> np.ndarray:
    """Gate matrix over local index v_first + 2*v_second (or 2x2 for 1q)."""
    k, ang = gate.kind, gate.angle
    if k == "h":
        return _H
    if k == "x":
        return _X
    if k in ("rx", "ry", "rz"):
        return _rot(k[1], ang)
    cx = np.zeros((4, 4), dtype=complex)
    cx[0, 0] = cx[2, 2] = 1.0
    cx[3, 1] = cx[1, 3] = 1.0
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = 1.0
    swap[2, 1] = swap[1, 2] = 1.0
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if k == "cx":
        return cx
    if k == "cz":
        return cz
    if k == "swap":
        return swap
    zz = np.diag([np.exp(-0.5j * ang), np.exp(0.5j * ang),
                  np.exp(0.5j * ang), np.exp(-0.5j * ang)]) if ang is not None else None
    if k == "zz":
        return zz
    if k == "zzswap":
        return swap @ zz
    if k == "czswap":
        return swap @ cz
    raise ValueError(k)


def embed(n: int, mat: np.ndarray, qubits) -> np.ndarray:
    """Expand a local gate matrix to the full 2^n little-endian space."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    if len(qubits) == 1:
        (a,) = qubits
        for col in range(dim):
            vin = (col >> a) & 1
            base = col & ~(1 << a)
            for vout in range(2):
                full[base | (vout << a), col] += mat[vout, vin]
        return full
    a, b = qubits
    for col in range(dim):
        lin = ((col >> a) & 1) + 2 * ((col >> b) & 1)
        base = col & ~(1 << a) & ~(1 << b)
        for lout in range(4):
            if mat[lout, lin] != 0:
                row = base | ((lout & 1) << a) | (((lout >> 1) & 1) << b)
                full[row, col] += mat[lout, lin]
    return full


def circuit_unitary(circuit) -> np.ndarray:
    """Full unitary by explicit matrix products (little-endian indices)."""
    dim = 1 << circuit.n
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        u = embed(circuit.n, _local_matrix(g), g.qubits) @ u
    return u


def statevector(circuit) -> np.ndarray:
    return circuit_unitary(circuit)[:, 0]


def logical_probs(circuit) -> np.ndarray:
    """Outcome probabilities over logical bitstrings via the matrix oracle."""
    probs_pos = np.abs(statevector(circuit)) ** 2
    n = circuit.n
    out = np.zeros_like(probs_pos)
    for idx, p in enumerate(probs_pos):
        j = 0
        for pos in range(n):
            if (idx >> pos) & 1:
                j |= 1 << circuit.final_order[pos]
        out[j] += p
    return out


def dm_logical_probs(circuit, eps2: float, eps1: float) -> np.ndarray:
    """Density-matrix evolution with a depolarizing channel after each gate
    on each touched qubit; returns logical-bitstring probabilities."""
    n = circuit.n
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    paulis = {q: [embed(n, m, (q,)) for m in (_X, _Y, _Z)] for q in range(n)}
    for g in circuit.gates:
        u = embed(n, _local_matrix(g), g.qubits)
        rho = u @ rho @ u.conj().T
        eps = eps2 if len(g.qubits) == 2 else eps1
        if eps > 0:
            for q in g.qubits:
                mix = sum(p @ rho @ p.conj().T for p in paulis[q])
                rho = (1 - 0.75 * eps) * rho + 0.25 * eps * mix
    probs_pos = np.real(np.diag(rho)).clip(min=0.0)
    out = np.zeros(dim)
    for idx, p in enumerate(probs_pos):
        j = 0
        for pos in range(n):
            if (idx >> pos) & 1:
                j |= 1 << circuit.final_order[pos]
        out[j] += p
    return out / out.sum()


def bitstring(index: int, n: int) -> str:
    return "".join(str((index >> k) & 1) for k in range(n))


# --- graph/layout oracles ---------------------------------------------------


def count_simple_paths(num_qubits: int, edges, k: int) -> int:
    """Undirected simple paths with k vertices, counted once per vertex set
    orientation (endpoints unordered)."""
    adj = {v: set() for v in range(num_qubits)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0

    def walk(path):
        nonlocal count
        if len(path) == k:
            if path[0] < path[-1]:
                count += 1
            return
        for nxt in adj[path[-1]]:
            if nxt not in path:
                walk(path + [nxt])

    for start in range(num_qubits):
        walk([start])
    return count


def claw_layout_count(num_qubits: int, edges) -> int:
    """Ordered monomorphism count of the 4-vertex T template: one degree>=3
    center with 3 ordered leaves plus... for the claw exactly
    sum deg*(deg-1)*(deg-2)."""
    deg = [0] * num_qubits
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sum(d * (d - 1) * (d - 2) for d in deg)


def connected_labeled_graphs(n: int):
    """Every connected labeled graph on vertices 0..n-1, as edge tuples."""
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        edges = [e for k, e in enumerate(all_edges) if (bits >> k) & 1]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) == n:
            yield tuple(edges)


# --- partial-routing replay oracle -------------------------------------------


def _linear_schedule(n):
    return [[(q, q + 1) for q in range(1 if s % 2 else 0, n - 1, 2)] for s in range(1, n - 1)]


def partial_route_cx(n: int, order0, gate_pairs) -> int:
    """CX count of the linear-template sparse route for one initial order.

    Mirrors the documented contract with independent list code: walk the
    interior brickwork layers with eager swaps, stop once every interaction
    is placed (the last fused placement keeps no swap), fold leading swaps
    into the initial order, then strip trailing swaps, demoting fused ones.
    """
    layers = _linear_schedule(n)
    edges = [(k, k + 1) for k in range(n - 1)]
    order = list(order0)
    left = {tuple(sorted(p)) for p in gate_pairs}
    ops = []  # (kind, wires)

    step = 0
    while left and step <= len(layers):
        layer = layers[step] if step < len(layers) else []
        for a, b in edges:
            if (a, b) in layer:
                continue
            pair = tuple(sorted((order[a], order[b])))
            if pair in left:
                left.discard(pair)
                ops.append(("zz", (a, b)))
        if not left:
            break
        for i, j in layer:
            pair = tuple(sorted((order[i], order[j])))
            if pair in left:
                left.discard(pair)
                if not left:
                    ops.append(("zz", (i, j)))
                    break
                ops.append(("zzswap", (i, j)))
            else:
                ops.append(("swap", (i, j)))
            order[i], order[j] = order[j], order[i]
        step += 1
    assert not left, "oracle walk failed to place all interactions"

    # leading swaps commute to the front (only their own zz may precede them)
    blocked = set()
    folded = []
    for kind, (i, j) in ops:
        if kind == "swap" and i not in blocked and j not in blocked:
            continue
        if kind == "zzswap" and i not in blocked and j not in blocked:
            folded.append(("zz", (i, j)))
            blocked.update((i, j))
            continue
        blocked.update((i, j))
        folded.append((kind, (i, j)))

    # trailing strip with demotion
    while True:
        used = set()
        action = None
        for at in range(len(folded) - 1, -1, -1):
            kind, (i, j) = folded[at]
            if kind in ("swap", "zzswap") and i not in used and j not in used:
                action = (at, kind)
                break
            used.update((i, j))
        if action is None:
            break
        at, kind = action
        if kind == "swap":
            folded.pop(at)
        else:
            folded[at] = ("zz", folded[at][1])

    price = {"zz": 2, "zzswap": 3, "swap": 3}
    return sum(price[kind] for kind, _ in folded)


def best_partial_cx(n: int, gate_pairs) -> int:
    """Brute-force minimum over the n!/2 reversal-canonical initial orders."""
    best = None
    for perm in itertools.permutations(range(n)):
        if perm > perm[::-1]:
            continue
        cx = partial_route_cx(n, perm, gate_pairs)
        if best is None or cx < best:
            best = cx
    return best


def layout_costs_scalar(circuit, layouts, cal):
    """`aoqmap.layout_costs` one layout at a time in plain Python floats: the
    products start at 1.0 and take one factor per basis gate in circuit
    order, then one readout factor per position. A negative physical qubit
    counts as uncalibrated rather than indexing from the end."""
    from aoqmap import CalibrationError, CostReport, decompose_to_basis

    def table(rates, q, what):
        if not 0 <= q < len(rates):
            raise CalibrationError(f"no {what} calibration for qubit {q}")
        return rates[q]

    gates = decompose_to_basis(circuit).gates
    reports = []
    for layout in map(tuple, layouts):
        if len(layout) < circuit.n:
            raise ValueError(f"layout covers {len(layout)} positions, circuit needs {circuit.n}")
        gate_product = 1.0
        for g in gates:
            if g.is_two_qubit:
                u, v = (layout[q] for q in g.qubits)
                error = cal.edge_error.get((min(u, v), max(u, v))) if min(u, v) >= 0 else None
                if error is None:
                    raise CalibrationError(f"no two-qubit calibration for edge ({u},{v})")
                gate_product *= 1.0 - error
            else:
                gate_product *= 1.0 - table(cal.sq_error, layout[g.qubits[0]], "single-qubit")
        meas_product = 1.0
        for q in layout[:circuit.n]:
            meas_product *= 1.0 - table(cal.readout_error, q, "readout")
        reports.append(CostReport(layout=layout, cost=1.0 - gate_product * meas_product,
                                  gate_error_product=gate_product,
                                  measurement_error_product=meas_product,
                                  gate_count=len(gates)))
    return reports
