"""Routers: compile QAOA/VQE interaction structure onto subtopology schedules.

One walker, `_walk`, places ZZ interactions for every QAOA router. It walks
swap layers keeping a live position->logical order: before each layer,
pending pairs sitting on a free template edge are emitted bare; each slot of
the layer then fuses its pair into a ZZSWAP when pending and swaps bare
otherwise; a closing free sweep follows the last layer, and the walk stops
once every pair is placed. Full routers pass all pairs and the layers of
`schedules.full_routing_layers`, which holds H's closing rule; the
swap-network baseline passes the full brickwork and no free edges, so every
slot is fused. Swap emission is kept lazy at the tail: standalone SWAPs with
no later gates on their wires are dropped, and the partial router
additionally demotes trailing fused gates and folds leading swaps into the
initial order.

One emitter, `_qaoa_circuit`, builds every QAOA circuit: Hadamards, then per
depth a router-supplied two-qubit block and the mixer layer. Mirror routing
(and every partial route) alternates one block with its reverse. The VQE
router emits its brickwork CZ/CZSWAP layers directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, CircuitBuilder, SWAPPING_KINDS, gate_counts
from .hamiltonians import ProblemHamiltonian, QaoaParams
from .schedules import brickwork_layers, consumed_layer_bound, full_routing_layers, schedule_for
from .topology import SubtopologyTemplate, template

REPEAT = "repeat"
MIRROR_ALTERNATE = "mirror-alternate"

_OP_CX = {"zz": 2, "zzswap": 3, "swap": 3}


class RoutingError(RuntimeError):
    """Internal placement invariant violated."""


@dataclass(frozen=True)
class RoutingReport:
    swap_count: int
    cx_count: int
    depth: int
    final_order: tuple[int, ...]
    zz_gates_placed: int
    initial_order: tuple[int, ...]
    consumed_layers: int
    strategy: str | None = None
    seed: int | None = None
    candidates: int | None = None


@dataclass(frozen=True)
class RoutedCircuit:
    circuit: Circuit
    template: SubtopologyTemplate
    schedule_kind: str
    report: RoutingReport

    def __post_init__(self):
        try:
            self.template.check_gates(self.circuit.gates)
        except ValueError as exc:
            raise RoutingError(str(exc)) from None


# ---------------------------------------------------------------------------
# placement primitives; ops are (kind, (i, j), logical_pair) with kind in
# zz / zzswap / swap and logical_pair None for bare swaps


def _free_placements(order, edges, exclude, pending):
    """Pending pairs sitting on template edges outside the upcoming swap layer,
    in ascending logical-pair order."""
    found = []
    for a, b in edges:
        if (a, b) in exclude:
            continue
        u, v = order[a], order[b]
        pair = (u, v) if u < v else (v, u)
        if pair in pending:
            found.append((pair, (a, b)))
    found.sort()
    return found


def _walk(start_order, edges, layers, pairs):
    """Place every pair along the swap layers; returns the op list.

    Stops right after the last placement, so the op list may end mid-layer;
    raises RoutingError if the layers and the closing sweep leave a pair.
    """
    order = list(start_order)
    pending = set(pairs)
    ops = []
    for layer in (*layers, ()):
        for pair, (a, b) in _free_placements(order, edges, set(layer), pending):
            pending.discard(pair)
            ops.append(("zz", (a, b), pair))
        if not pending:
            return ops
        for i, j in layer:
            u, v = order[i], order[j]
            pair = (u, v) if u < v else (v, u)
            if pair in pending:
                pending.discard(pair)
                ops.append(("zzswap", (i, j), pair))
                if not pending:
                    return ops
            else:
                ops.append(("swap", (i, j), None))
            order[i], order[j] = order[j], order[i]
    raise RoutingError(f"{len(pending)} interactions unplaced after {len(layers)} layers: "
                       f"{sorted(pending)}")


def _strip_trailing(ops, demote_fused: bool):
    """Drop trailing standalone SWAPs; optionally demote trailing ZZSWAP to ZZ.

    A swap is trailing when no later op acts on either of its wires. One
    backward walk finds them all: a dropped swap touches no wire, and a
    demoted ZZSWAP still touches both of its wires.
    """
    kept = []
    touched: set[int] = set()
    for op in reversed(ops):
        kind, (i, j), pair = op
        free = i not in touched and j not in touched
        if kind == "swap" and free:
            continue
        if kind == "zzswap" and demote_fused and free:
            op = ("zz", (i, j), pair)
        touched.update((i, j))
        kept.append(op)
    return kept[::-1]


def _op_cx(ops) -> int:
    return sum(_OP_CX[kind] for kind, _, _ in ops)


def _swap_gate_count(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind in SWAPPING_KINDS)


def _build_report(circuit, placed, consumed, **extra) -> RoutingReport:
    counts = gate_counts(circuit)
    return RoutingReport(
        swap_count=_swap_gate_count(circuit),
        cx_count=counts.cx,
        depth=counts.depth,
        final_order=tuple(circuit.final_order),
        zz_gates_placed=placed,
        initial_order=tuple(circuit.initial_order),
        consumed_layers=consumed,
        **extra,
    )


def _require_complete(h: ProblemHamiltonian, router: str):
    if not h.is_complete():
        raise ValueError(f"{router} needs all n(n-1)/2 ZZ terms; "
                         "use route_qaoa_partial for sparse interactions")


def _qaoa_circuit(h: ProblemHamiltonian, params: QaoaParams, label: str, block,
                  initial_order=None) -> Circuit:
    """The QAOA skeleton every QAOA router shares: a Hadamard layer, then per
    depth d the two-qubit ops `block(d, live order)` followed by the mixer."""
    zz_coeff = h.zz_coeffs()
    z_coeff = h.z_coeffs()
    builder = CircuitBuilder(h.n, initial_order=initial_order, label=label)
    for q in range(h.n):
        builder.h(q)
    for d in range(params.p):
        gamma = params.gammas[d]
        for kind, (i, j), pair in block(d, builder.order):
            if kind == "swap":
                builder.swap(i, j)
            else:  # zz or zzswap
                builder.add(kind, (i, j), 2.0 * gamma * zz_coeff[pair])
        order = builder.order
        for k in range(h.n):
            c = z_coeff.get(order[k], 0.0)
            if c != 0.0:
                builder.rz(k, 2.0 * gamma * c)
            builder.rx(k, 2.0 * params.betas[d])
    return builder.build()


def _route_qaoa_full(h, params, kind, mirror):
    tmpl = template(kind, h.n)
    _require_complete(h, f"route_qaoa {kind}")
    layers = full_routing_layers(kind, h.n)
    pairs = tuple(h.zz_coeffs())
    walked = None

    def block(d, order):
        # Mirror routing walks once: the unstripped block followed by its
        # reverse (ZZ and SWAP on a pair commute) brings the order home.
        nonlocal walked
        if walked is None or not mirror:
            walked = _walk(order, tmpl.edges, layers, pairs)
        ops = walked[::-1] if mirror and d % 2 else walked
        return _strip_trailing(ops, demote_fused=False) if d == params.p - 1 else ops

    label = f"qaoa-{kind}{'-mirror' if mirror else ''}-n{h.n}-p{params.p}"
    circuit = _qaoa_circuit(h, params, label, block)
    report = _build_report(circuit, placed=len(h.zz) * params.p,
                           consumed=consumed_layer_bound(kind, h.n))
    return RoutedCircuit(circuit, tmpl, MIRROR_ALTERNATE if mirror else REPEAT, report)


def route_qaoa_linear(h: ProblemHamiltonian, params: QaoaParams, mirror: bool = False) -> RoutedCircuit:
    """Fully connected QAOA on the linear chain (mirror=True alternates the
    schedule with its reverse across depths)."""
    return _route_qaoa_full(h, params, "linear", mirror)


def route_qaoa_subtop(h: ProblemHamiltonian, params: QaoaParams, kind: str,
                      mirror: bool = False) -> RoutedCircuit:
    """Fully connected QAOA on the T- or H-shaped template."""
    if kind not in ("t", "h"):
        raise ValueError(f"route_qaoa_subtop expects kind 't' or 'h', got {kind!r}")
    return _route_qaoa_full(h, params, kind, mirror)


# ---------------------------------------------------------------------------
# partial connectivity (Exhaustive / Sampled initial-order search)


def _absorb_leading_swaps(ops, start_order):
    """Fold swaps whose wires carry no earlier gate into the initial order.

    A fused gate's own ZZ commutes with its swap, so the swap may move to the
    circuit front and vanish into the starting arrangement.
    """
    order = list(start_order)
    out = []
    touched: set[int] = set()
    for kind, (i, j), pair in ops:
        if kind in ("swap", "zzswap") and i not in touched and j not in touched:
            order[i], order[j] = order[j], order[i]
            if kind == "zzswap":
                out.append(("zz", (i, j), pair))
                touched.update((i, j))
            continue
        touched.update((i, j))
        out.append((kind, (i, j), pair))
    return out, tuple(order)


def _partial_candidate(tmpl, layers, start_order, pairs):
    """Per-order routing functional: (cx, ops, adjusted initial order).

    All schedule swaps are available (so closure guarantees completion); the
    very last placement needs no swap, so a final fused gate is demoted
    before leading swaps are absorbed.
    """
    ops = _walk(start_order, tmpl.edges, layers, pairs)
    if ops and ops[-1][0] == "zzswap":
        ops[-1] = ("zz",) + ops[-1][1:]
    ops, adjusted = _absorb_leading_swaps(ops, start_order)
    ops = _strip_trailing(ops, demote_fused=True)
    return _op_cx(ops), ops, adjusted


def _canonical_orders_exhaustive(n):
    for perm in itertools.permutations(range(n)):
        if perm <= perm[::-1]:
            yield perm


def _canonical_orders_sampled(n, samples, seed):
    yield tuple(range(n))
    rng = np.random.default_rng(seed)
    seen = {tuple(range(n))}
    for _ in range(samples):
        perm = tuple(int(v) for v in rng.permutation(n))
        canon = min(perm, perm[::-1])
        if canon not in seen:
            seen.add(canon)
            yield canon


def route_qaoa_partial(h: ProblemHamiltonian, params: QaoaParams, kind: str = "linear",
                       strategy: str = "exhaustive", samples: int = 5000,
                       seed: int = 0) -> RoutedCircuit:
    """QAOA with an arbitrary ZZ edge set: search initial orders minimizing CX.

    Exhaustive scans the n!/2 reversal-canonical orders (n <= 8); Sampled
    draws `samples` random orders (identity always included). Depth p > 1 is
    built by mirror alternation, so the order returns home every two depths.
    """
    tmpl = template(kind, h.n)
    if strategy not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown order strategy {strategy!r}")
    if strategy == "exhaustive" and h.n > 8:
        raise ValueError("exhaustive order search is capped at n <= 8; use strategy='sampled'")
    if strategy == "sampled" and samples < 1:
        raise ValueError(f"sampled order search needs samples >= 1, got {samples}")
    layers = schedule_for(kind, h.n).layers[:consumed_layer_bound(kind, h.n)]
    pairs = tuple(sorted((i, j) for i, j, _ in h.zz))
    floor = 2 * len(pairs)

    orders = (_canonical_orders_exhaustive(h.n) if strategy == "exhaustive"
              else _canonical_orders_sampled(h.n, samples, seed))
    best = None
    tried = 0
    for start in orders:
        tried += 1
        cx, ops, adjusted = _partial_candidate(tmpl, layers, start, pairs)
        key = (cx, start)
        if best is None or key < best[0]:
            best = (key, ops, adjusted)
            if cx <= floor:
                break
    (best_cx, _), ops, initial = best

    circuit = _qaoa_circuit(h, params, f"qaoa-partial-{kind}-n{h.n}-p{params.p}",
                            lambda d, _: ops[::-1] if d % 2 else ops, initial_order=initial)
    report = _build_report(circuit, placed=len(h.zz) * params.p,
                           consumed=len(layers), strategy=strategy,
                           seed=seed if strategy == "sampled" else None,
                           candidates=tried)
    return RoutedCircuit(circuit, tmpl, MIRROR_ALTERNATE, report)


def route_vqe_linear(n: int, p: int, thetas) -> RoutedCircuit:
    """Fully entangled hardware-style ansatz on the linear chain.

    Brickwork CZ layers with fused CZSWAP on the interior layers; RY layers
    read their angles through the live order. Costs exactly p(n-1)^2 CX.
    """
    thetas = tuple(float(t) for t in thetas)
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if len(thetas) != (p + 1) * n:
        raise ValueError(f"expected (p+1)*n = {(p + 1) * n} angles, got {len(thetas)}")
    tmpl = template("linear", n)
    builder = CircuitBuilder(n, label=f"vqe-linear-n{n}-p{p}")
    for q in range(n):
        builder.ry(q, thetas[q])
    for d in range(1, p + 1):
        for s, layer in enumerate(brickwork_layers(n)):
            gate = builder.czswap if 0 < s < n - 1 else builder.cz
            for i, j in layer:
                gate(i, j)
        order = builder.order
        for k in range(n):
            builder.ry(k, thetas[d * n + order[k]])
    circuit = builder.build()
    report = _build_report(circuit, placed=p * n * (n - 1) // 2,
                           consumed=consumed_layer_bound("linear", n))
    return RoutedCircuit(circuit, tmpl, REPEAT, report)


def swapnk_baseline(h: ProblemHamiltonian, params: QaoaParams) -> RoutedCircuit:
    """Full brickwork swap network: every slot of all n layers is a fused
    ZZSWAP, n(n-1)/2 swaps per depth."""
    _require_complete(h, "swapnk_baseline")
    n = h.n
    tmpl = template("linear", n)
    layers = brickwork_layers(n)
    pairs = tuple(h.zz_coeffs())
    # every pair meets exactly once in the n brickwork layers, so the walker
    # (given no free edges) fuses every slot
    circuit = _qaoa_circuit(h, params, f"swapnk-n{n}-p{params.p}",
                            lambda d, order: _walk(order, (), layers, pairs))
    report = _build_report(circuit, placed=len(h.zz) * params.p, consumed=n)
    return RoutedCircuit(circuit, tmpl, REPEAT, report)


def optimal_cx_target(edges, n: int, kind: str = "linear") -> int:
    """CX count of the idealized consecutive-layer packing.

    First- and last-layer gates ride free (their swaps fold into the initial
    or measurement order); interior gates cost one extra CX each. Advisory
    only: the order search exits early solely at the certified 2|E| floor.
    """
    pairs = {(min(u, v), max(u, v)) for u, v in edges}
    m = len(pairs)
    if m == 0:
        return 0
    tmpl = template(kind, n)
    layers = schedule_for(kind, n).layers[:consumed_layer_bound(kind, n)]
    ne = len(tmpl.edges)
    if layers:
        caps = [ne - len(layers[0])] + [len(l) for l in layers] + [ne - len(layers[-1])]
    else:
        caps = [ne]
    cum = 0
    last = len(caps) - 1
    for t, c in enumerate(caps):
        cum += c
        if cum >= m:
            last = t
            break
    if last == 0:
        return 2 * m
    g_first = min(m, caps[0])
    rem = m - g_first
    g_last = min(rem, caps[last])
    return 2 * m + (rem - g_last)
