"""Swap-layer schedules for linear, T- and H-shaped templates.

A schedule is an ordered list of layers; each layer is a set of
vertex-disjoint position pairs drawn from the template's edges. Linear
schedules hold the n-2 interior layers of the n-layer brickwork; T and H
schedules hold the full n-layer 4-phase cycles, of which routers consume a
prefix (n-2 for T, n-1 for H). `full_routing_layers` gives the layers one
fully connected QAOA depth walks, with H's closing rule: of its last layer
only the first slot whose pair has not yet met is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .circuits import Permutation
from .topology import SubtopologyTemplate, template


@dataclass(frozen=True)
class SwapSchedule:
    template_kind: str
    n: int
    layers: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        edges = set(template(self.template_kind, self.n).edges)
        for layer in self.layers:
            seen: set[int] = set()
            for i, j in layer:
                if (min(i, j), max(i, j)) not in edges:
                    raise ValueError(f"pair {(i, j)} is not a {self.template_kind}-{self.n} edge")
                if i in seen or j in seen:
                    raise ValueError(f"layer {layer} has overlapping pairs")
                seen.update((i, j))

    def __len__(self):
        return len(self.layers)


def brickwork_layers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All n brickwork layers of the chain; layer s starts at position s % 2."""
    return tuple(tuple((q, q + 1) for q in range(s % 2, n - 1, 2)) for s in range(n))


def linear_layers(n: int) -> SwapSchedule:
    """The n-2 interior brickwork layers (brickwork layers 1..n-2)."""
    if n < 2:
        raise ValueError("linear schedule needs n >= 2")
    return SwapSchedule("linear", n, brickwork_layers(n)[1:-1])


def t_layers(n: int) -> SwapSchedule:
    """n layers cycling through the 4 phases anchored at the branch center."""
    if n < 4:
        raise ValueError("T schedule needs n >= 4")
    m_odd = (n - 1) - 1 + (n - 1) % 2
    m_even = (n - 1) - (n - 1) % 2
    center = tuple((k, k + 1) for k in range(2, m_odd, 2))
    arm0 = ((0, 2),) + tuple((k, k + 1) for k in range(3, m_even, 2))
    arm1 = ((1, 2),) + tuple((k, k + 1) for k in range(3, m_even, 2))
    cycle = (center, arm0, center, arm1)
    return SwapSchedule("t", n, tuple(cycle[j % 4] for j in range(n)))


def h_layers(n: int) -> SwapSchedule:
    """n layers for the two-center template, parity-split 4-phase cycles.

    The elided pair lists are step-2 progressions between the stated anchor
    pairs, resolved so every layer is disjoint and edge-valid.
    """
    if n < 6:
        raise ValueError("H schedule needs n >= 6")
    m_odd = (n - 1) - 1 + (n - 1) % 2
    m_even = (n - 1) - (n - 1) % 2
    if n % 2:
        p0 = ((0, 2),) + tuple((k, k + 1) for k in range(3, m_odd - 1, 2))
        p1 = tuple((k, k + 1) for k in range(2, m_even - 1, 2))
        p2 = ((1, 2),) + tuple((k, k + 1) for k in range(3, m_odd - 1, 2))
        p3 = tuple((k, k + 1) for k in range(2, m_even - 3, 2)) + ((m_even - 2, m_even),)
    else:
        p0 = tuple((k, k + 1) for k in range(2, m_even - 1, 2))
        p1 = tuple((k, k + 1) for k in range(1, m_odd - 1, 2))
        p2 = p0
        p3 = ((0, 2),) + tuple((k, k + 1) for k in range(3, m_odd - 3, 2)) + ((m_odd - 2, m_odd),)
    cycle = (p0, p1, p2, p3)
    return SwapSchedule("h", n, tuple(cycle[j % 4] for j in range(n)))


def schedule_for(kind: str, n: int) -> SwapSchedule:
    if kind == "linear":
        return linear_layers(n)
    if kind == "t":
        return t_layers(n)
    if kind == "h":
        return h_layers(n)
    raise ValueError(f"unknown template kind {kind!r}")


def consumed_layer_bound(kind: str, n: int) -> int:
    """Layers a full-connectivity router consumes per depth."""
    if kind in ("linear", "t"):
        return max(n - 2, 0)
    if kind == "h":
        return n - 1
    raise ValueError(f"unknown template kind {kind!r}")


def full_routing_layers(kind: str, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Layers one fully connected QAOA depth walks.

    Linear and T walk their first n-2 schedule layers. H walks n-2 full
    layers and then, of layer n-1, only the first slot whose pair has not yet
    met; that slot is appended to layer n-2. Which tokens have met depends on
    the positions alone, not on the start order, so the slot is found once
    from the identity order.
    """
    layers = schedule_for(kind, n).layers[:consumed_layer_bound(kind, n)]
    if kind != "h":
        return layers
    met = connectivity_closure(SwapSchedule(kind, n, layers[:-2]), template(kind, n))
    order = order_after(SwapSchedule(kind, n, layers[:-1]), Permutation.identity(n))
    closing = next((i, j) for i, j in layers[-1]
                   if (min(order[i], order[j]), max(order[i], order[j])) not in met)
    return layers[:-2] + (layers[-2] + (closing,),)


def order_after(schedule: SwapSchedule, initial: Permutation) -> Permutation:
    """Composition of all layer transpositions applied in layer order."""
    if len(initial) != schedule.n:
        raise ValueError(f"permutation size {len(initial)} != schedule n {schedule.n}")
    m = list(initial.map)
    for layer in schedule.layers:
        for i, j in layer:
            m[i], m[j] = m[j], m[i]
    return Permutation(m)


def connectivity_closure(schedule: SwapSchedule, tmpl: SubtopologyTemplate) -> frozenset:
    """Logical pairs that occupy template-adjacent positions at any time step."""
    order = list(range(tmpl.n))
    seen: set[tuple[int, int]] = set()

    def collect():
        for a, b in tmpl.edges:
            u, v = order[a], order[b]
            seen.add((min(u, v), max(u, v)))

    collect()
    for layer in schedule.layers:
        for i, j in layer:
            order[i], order[j] = order[j], order[i]
        collect()
    return frozenset(seen)


def depth_one_period(n: int) -> int:
    """Depths after which the repeated linear schedule restores the order."""
    return lcm(2 * n, n - 2) // (n - 2)
