"""Router behavior: gate skeletons, swap counts, order evolution, optimality."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from aoqmap import (ProblemHamiltonian, QaoaParams, RoutingError, build_maxcut_hamiltonian,
                    circuit_to_dict, optimal_cx_target, reference_circuit, route_qaoa_linear,
                    route_qaoa_partial, route_qaoa_subtop, route_vqe_linear, swapnk_baseline,
                    verify)

from oracles import best_partial_cx, partial_route_cx


def complete_h(n, seed=0, with_z=True):
    rng = np.random.default_rng(seed)
    zz = tuple((i, j, float(rng.uniform(-1, 1)))
               for i in range(n - 1) for j in range(i + 1, n))
    z = tuple((i, float(rng.uniform(-1, 1))) for i in range(n)) if with_z else ()
    return ProblemHamiltonian(n, zz, z)


PARAMS1 = QaoaParams((0.7,), (0.4,))


def kind_counts(circuit):
    out = {}
    for g in circuit.gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


def test_linear_n5_skeleton():
    routed = route_qaoa_linear(complete_h(5), PARAMS1)
    counts = kind_counts(routed.circuit)
    assert counts["zz"] + counts["zzswap"] == 10
    assert counts["zzswap"] == 6
    assert "swap" not in counts
    assert routed.report.final_order == (2, 4, 0, 3, 1)
    assert routed.report.zz_gates_placed == 10
    assert routed.report.cx_count == 26


def test_linear_n3_cx_and_reduction():
    routed = route_qaoa_linear(complete_h(3), PARAMS1)
    base = swapnk_baseline(complete_h(3), PARAMS1)
    assert routed.report.cx_count == 7
    assert base.report.cx_count == 9
    assert round(100 * (1 - routed.report.cx_count / base.report.cx_count)) == 22


def test_linear_n2_trivial():
    routed = route_qaoa_linear(complete_h(2), PARAMS1)
    counts = kind_counts(routed.circuit)
    assert counts["zz"] == 1
    assert routed.report.swap_count == 0


def test_linear_rejects_sparse():
    h = build_maxcut_hamiltonian([(0, 1)], 3)
    with pytest.raises(ValueError):
        route_qaoa_linear(h, PARAMS1)


def test_t_n5_order_evolution():
    routed = route_qaoa_subtop(complete_h(5), PARAMS1, "t")
    # [a,b,c,d,e] -> [a,b,d,c,e] -> [d,b,a,e,c] -> [d,b,e,a,c]
    order = list(range(5))
    snapshots = []
    for g in routed.circuit.gates:
        if g.kind in ("swap", "zzswap", "czswap"):
            i, j = g.qubits
            order[i], order[j] = order[j], order[i]
            snapshots.append(list(order))
    assert snapshots[0] == [0, 1, 3, 2, 4]
    assert routed.report.final_order == (3, 1, 4, 0, 2)
    assert [0, 1, 3, 2, 4] in snapshots and [3, 1, 0, 4, 2] in snapshots


def test_t_n4_two_swaps():
    routed = route_qaoa_subtop(complete_h(4), PARAMS1, "t")
    assert routed.report.swap_count == 2
    base = swapnk_baseline(complete_h(4), PARAMS1)
    assert base.report.swap_count == 6
    assert round(100 * (1 - 2 / 6)) == 67


def test_h_swap_counts():
    assert route_qaoa_subtop(complete_h(6), PARAMS1, "h").report.swap_count == 7
    assert route_qaoa_subtop(complete_h(10), PARAMS1, "h").report.swap_count == 29


def test_subtop_kind_validation():
    with pytest.raises(ValueError):
        route_qaoa_subtop(complete_h(5), PARAMS1, "linear")
    with pytest.raises(ValueError):
        route_qaoa_subtop(complete_h(3), PARAMS1, "t")  # below template minimum


def test_consumed_layers_at_bound():
    for kind, n in (("linear", 6), ("t", 7), ("h", 8)):
        routed = (route_qaoa_linear if kind == "linear"
                  else lambda h, p: route_qaoa_subtop(h, p, kind))(complete_h(n), PARAMS1)
        want = n - 1 if kind == "h" else n - 2
        assert routed.report.consumed_layers == want


def test_edge_validity_every_router():
    h6 = complete_h(6)
    routers = [
        route_qaoa_linear(h6, PARAMS1),
        route_qaoa_subtop(h6, PARAMS1, "t"),
        route_qaoa_subtop(h6, PARAMS1, "h"),
        swapnk_baseline(h6, PARAMS1),
        route_vqe_linear(6, 2, [0.1 * k for k in range(18)]),
        route_qaoa_partial(build_maxcut_hamiltonian([(0, 2), (1, 4), (3, 5)], 6), PARAMS1),
    ]
    for routed in routers:
        edges = routed.template.edge_set()
        for g in routed.circuit.gates:
            if g.is_two_qubit:
                assert tuple(sorted(g.qubits)) in edges


def test_placed_angle_multiset_matches_terms():
    h = complete_h(5, seed=3)
    params = QaoaParams((0.7, 0.3), (0.4, 0.2))
    routed = route_qaoa_linear(h, params)
    per_depth = {0: [], 1: []}
    seen = 0
    for g in routed.circuit.gates:
        if g.kind in ("zz", "zzswap"):
            per_depth[0 if seen < 10 else 1].append(round(g.angle, 12))
            seen += 1
    for d, gamma in enumerate(params.gammas):
        want = sorted(round(2 * gamma * c, 12) for _, _, c in h.zz)
        assert sorted(per_depth[d]) == want


def test_vqe_cx_law_and_structure():
    for n, p in [(5, 1), (3, 2), (2, 1)]:
        routed = route_vqe_linear(n, p, [0.05 * k for k in range((p + 1) * n)])
        assert routed.report.cx_count == p * (n - 1) ** 2
    counts = kind_counts(route_vqe_linear(5, 1, [0.1] * 10).circuit)
    assert counts["cz"] + counts["czswap"] == 10
    assert counts["ry"] == 10
    with pytest.raises(ValueError):
        route_vqe_linear(4, 1, [0.1] * 7)


def test_swapnk_counts():
    for n, want in ((2, 1), (3, 3), (10, 45)):
        base = swapnk_baseline(complete_h(n), PARAMS1)
        assert base.report.swap_count == want
        assert kind_counts(base.circuit).get("zzswap", 0) == want


def test_partial_complete_graph_matches_linear():
    h = complete_h(5, with_z=False)
    full = route_qaoa_linear(h, PARAMS1)
    part = route_qaoa_partial(h, PARAMS1)
    assert part.report.cx_count == full.report.cx_count
    assert kind_counts(part.circuit).get("swap", 0) == 0


def test_partial_path_graph_six_cx():
    h = build_maxcut_hamiltonian([(0, 1), (1, 2), (2, 3)], 4)
    routed = route_qaoa_partial(h, PARAMS1)
    counts = kind_counts(routed.circuit)
    assert counts["zz"] == 3
    assert "zzswap" not in counts and "swap" not in counts
    assert routed.report.cx_count == 6
    # identity order achieves the optimum here
    assert partial_route_cx(4, (0, 1, 2, 3), [(0, 1), (1, 2), (2, 3)]) == 6


def test_partial_star_matches_bruteforce():
    pairs = [(0, 1), (0, 2), (0, 3)]
    h = build_maxcut_hamiltonian(pairs, 4)
    routed = route_qaoa_partial(h, PARAMS1)
    assert routed.report.cx_count == best_partial_cx(4, pairs)


def test_partial_monotone_vs_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 7))
        pool = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
        take = int(rng.integers(2, len(pool)))
        idx = rng.choice(len(pool), size=take, replace=False)
        pairs = [pool[int(k)] for k in idx]
        h = build_maxcut_hamiltonian(pairs, n)
        routed = route_qaoa_partial(h, PARAMS1, strategy="sampled", samples=80, seed=2)
        ident = partial_route_cx(n, tuple(range(n)), pairs)
        assert routed.report.cx_count <= ident


def test_partial_depth2_restores_order():
    h = build_maxcut_hamiltonian([(0, 2), (1, 3), (0, 3)], 4)
    params = QaoaParams((0.5, 0.3), (0.2, 0.6))
    routed = route_qaoa_partial(h, params)
    assert routed.schedule_kind == "mirror-alternate"
    assert routed.report.final_order == routed.report.initial_order


def test_partial_exhaustive_cap():
    h = build_maxcut_hamiltonian([(0, 1)], 9)
    with pytest.raises(ValueError):
        route_qaoa_partial(h, PARAMS1, strategy="exhaustive")
    routed = route_qaoa_partial(h, PARAMS1, strategy="sampled", samples=5, seed=0)
    assert routed.report.cx_count == 2


@pytest.mark.parametrize("samples", [0, -3])
def test_partial_sampled_rejects_nonpositive_samples(samples):
    h = build_maxcut_hamiltonian([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="samples"):
        route_qaoa_partial(h, PARAMS1, strategy="sampled", samples=samples)


def test_optimal_cx_target_examples():
    complete_pairs = [(i, j) for i in range(4) for j in range(i + 1, 5)]
    assert optimal_cx_target(complete_pairs, 5) == route_qaoa_linear(complete_h(5), PARAMS1).report.cx_count
    assert optimal_cx_target([(0, 1), (1, 2), (2, 3)], 4) == 6  # path: 2|E|
    assert optimal_cx_target([], 4) == 0
    rng = np.random.default_rng(21)
    pool = [(i, j) for i in range(4) for j in range(i + 1, 5)]
    for _ in range(12):
        take = int(rng.integers(1, 10))
        idx = rng.choice(len(pool), size=take, replace=False)
        pairs = [pool[int(k)] for k in idx]
        target = optimal_cx_target(pairs, 5)
        best = best_partial_cx(5, pairs)
        assert target <= best
        achieved = route_qaoa_partial(build_maxcut_hamiltonian(pairs, 5), PARAMS1).report.cx_count
        assert achieved == best


def test_mirror_reverses_two_qubit_block():
    h = complete_h(5, with_z=False)
    params = QaoaParams((0.7, 0.7), (0.4, 0.4))
    routed = route_qaoa_linear(h, params, mirror=True)
    two_q = [g for g in routed.circuit.gates if g.kind in ("zz", "zzswap")]
    first, second = two_q[:10], two_q[10:]
    assert [g.qubits for g in second] == [g.qubits for g in reversed(first)]
    # odd n: order restored after each mirrored pair of depths
    assert routed.report.final_order == routed.report.initial_order


def test_full_routers_equivalent_spot(seed=4):
    h = complete_h(6, seed=seed)
    params = QaoaParams((0.3, 0.8), (0.5, 0.1))
    ref = reference_circuit(h, params)
    for routed in (route_qaoa_linear(h, params), route_qaoa_linear(h, params, mirror=True),
                   route_qaoa_subtop(h, params, "t"), route_qaoa_subtop(h, params, "h"),
                   swapnk_baseline(h, params)):
        assert verify(routed, ref).passed


def _golden_params(p):
    return QaoaParams(tuple(0.3 + 0.1 * d for d in range(p)), tuple(0.6 - 0.1 * d for d in range(p)))


def _sparse_h(n, density, seed):
    rng = np.random.default_rng(seed)
    pool = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    idx = sorted(rng.choice(len(pool), size=max(2, round(density * len(pool))), replace=False))
    zz = tuple((*pool[int(k)], float(rng.uniform(-1, 1))) for k in idx)
    z = tuple((i, float(rng.uniform(-1, 1))) for i in range(0, n, 2))
    return ProblemHamiltonian(n, zz, z)


def _golden_routes():
    """(case id, routed circuit) for every router over sizes, depths and mirroring."""
    for kind, sizes in (("linear", (2, 3, 5, 8)), ("t", (4, 5, 7, 9)), ("h", (6, 7, 8, 11))):
        for n, p, mirror in itertools.product(sizes, (1, 2, 3), (False, True)):
            h, params = complete_h(n, seed=n), _golden_params(p)
            routed = (route_qaoa_linear(h, params, mirror=mirror) if kind == "linear"
                      else route_qaoa_subtop(h, params, kind, mirror=mirror))
            yield f"{kind}{'-mirror' if mirror else ''}-n{n}-p{p}", routed
    for n, p in ((3, 1), (6, 2)):
        yield f"swapnk-n{n}-p{p}", swapnk_baseline(complete_h(n, seed=n), _golden_params(p))
    for n, p in ((2, 1), (3, 2), (6, 3)):
        yield f"vqe-n{n}-p{p}", route_vqe_linear(n, p, [0.05 * k for k in range((p + 1) * n)])
    for kind, n, strategy in (("linear", 5, "exhaustive"), ("linear", 6, "exhaustive"),
                              ("t", 6, "exhaustive"), ("h", 6, "exhaustive"),
                              ("linear", 10, "sampled"), ("t", 9, "sampled"), ("h", 11, "sampled")):
        for density, p in ((0.3, 1), (0.6, 3), (1.0, 1)):
            h = _sparse_h(n, density, seed=n)
            routed = route_qaoa_partial(h, _golden_params(p), kind=kind, strategy=strategy,
                                        samples=200, seed=5)
            yield f"partial-{strategy}-{kind}-n{n}-d{density}-p{p}", routed


def test_routed_gate_lists_golden():
    """Gate lists pinned by digest: a change to placement order shows here."""
    digests = {}
    for case, routed in _golden_routes():
        text = json.dumps(circuit_to_dict(routed.circuit), sort_keys=True)
        digests[case] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == GOLDEN_DIGESTS


# sha256 prefixes of circuit_to_dict (sorted-key JSON) for each _golden_routes case
GOLDEN_DIGESTS = {
    "linear-n2-p1": "ac85b8ac5bec5730",
    "linear-mirror-n2-p1": "181106ee0783406e",
    "linear-n2-p2": "8f321a32a088b20d",
    "linear-mirror-n2-p2": "62b2a7ac4f6ddff2",
    "linear-n2-p3": "97420b6e43c6ee8d",
    "linear-mirror-n2-p3": "6062f35c84ffd894",
    "linear-n3-p1": "c36a4dea070f6d52",
    "linear-mirror-n3-p1": "c219a52bd2ef48f6",
    "linear-n3-p2": "a4cf29203e69609b",
    "linear-mirror-n3-p2": "61e1aa9c47fa2dc0",
    "linear-n3-p3": "aeb009d6c6fe079b",
    "linear-mirror-n3-p3": "b4f1e72288c05288",
    "linear-n5-p1": "c686be07d2712679",
    "linear-mirror-n5-p1": "0036640fc2520907",
    "linear-n5-p2": "7a0826eca5f2b921",
    "linear-mirror-n5-p2": "a7d6f33ffec51e39",
    "linear-n5-p3": "da174c3ef0999fe6",
    "linear-mirror-n5-p3": "e2436780a77b2866",
    "linear-n8-p1": "c2dc3f5811284a86",
    "linear-mirror-n8-p1": "fd44ebd908740809",
    "linear-n8-p2": "384948acafe852f8",
    "linear-mirror-n8-p2": "e775f0ba0c80b142",
    "linear-n8-p3": "be58c907f57077d4",
    "linear-mirror-n8-p3": "e58ebec8dfe27d6c",
    "t-n4-p1": "d4be25b8a7bb340b",
    "t-mirror-n4-p1": "726192ca51f29545",
    "t-n4-p2": "c13c80bb65a7c5fb",
    "t-mirror-n4-p2": "38b180c54c23247a",
    "t-n4-p3": "2583bab9bbab9b73",
    "t-mirror-n4-p3": "59fe3e4a0d8b7880",
    "t-n5-p1": "ef7cddace8a6e4d8",
    "t-mirror-n5-p1": "f6f6eb83ea809646",
    "t-n5-p2": "5cb7d7e9c8f53201",
    "t-mirror-n5-p2": "a18c2046d6021bab",
    "t-n5-p3": "f48a59e93de9f1b9",
    "t-mirror-n5-p3": "7c56c04234f62f53",
    "t-n7-p1": "5d92d085d3de8074",
    "t-mirror-n7-p1": "fff6c4e2e675cc94",
    "t-n7-p2": "36e73682b7024c66",
    "t-mirror-n7-p2": "4a1b6850bf47c95e",
    "t-n7-p3": "7f93c4f428e4facb",
    "t-mirror-n7-p3": "ca42ab5b64469301",
    "t-n9-p1": "9a36f590c88c1af4",
    "t-mirror-n9-p1": "b2925cacb58176c2",
    "t-n9-p2": "22e555166eb2d151",
    "t-mirror-n9-p2": "0618cdf4f0add3cd",
    "t-n9-p3": "8408960af32cb5d9",
    "t-mirror-n9-p3": "9f682c97aee28ad8",
    "h-n6-p1": "bd064ae5008b625f",
    "h-mirror-n6-p1": "906fb51885a89953",
    "h-n6-p2": "cb4e0ab60f519dd4",
    "h-mirror-n6-p2": "fe39fce8c7ad6bac",
    "h-n6-p3": "8e34abab4bd4a183",
    "h-mirror-n6-p3": "9184ff9ba8862cb5",
    "h-n7-p1": "27b0cfc249db3025",
    "h-mirror-n7-p1": "eaf020b5fca2b8b2",
    "h-n7-p2": "4922676c3ad6309d",
    "h-mirror-n7-p2": "21c0b713f96588fc",
    "h-n7-p3": "b2b68febc8925a98",
    "h-mirror-n7-p3": "43db23cf06b7f58e",
    "h-n8-p1": "6b076d0c565f515a",
    "h-mirror-n8-p1": "839a1c8e65b14d5f",
    "h-n8-p2": "16f07908679d3ec5",
    "h-mirror-n8-p2": "32ac9c07307f60f3",
    "h-n8-p3": "a665a766b58f5880",
    "h-mirror-n8-p3": "77c74fb3f36fd793",
    "h-n11-p1": "04f5cec057aad706",
    "h-mirror-n11-p1": "21be0cf3c2f1a65b",
    "h-n11-p2": "015af1a370237385",
    "h-mirror-n11-p2": "9deab9abfbc98cbd",
    "h-n11-p3": "76a3b7f3607321b5",
    "h-mirror-n11-p3": "559a4915a4c06ad4",
    "swapnk-n3-p1": "4cb45462c9a62e6a",
    "swapnk-n6-p2": "971e85e70b3e5da3",
    "vqe-n2-p1": "1c5fc944af801cf4",
    "vqe-n3-p2": "72ab1f6afb22ad98",
    "vqe-n6-p3": "d857fd3c20da0915",
    "partial-exhaustive-linear-n5-d0.3-p1": "e35970f06c535ce4",
    "partial-exhaustive-linear-n5-d0.6-p3": "2e7815525e21bd5d",
    "partial-exhaustive-linear-n5-d1.0-p1": "e976ddd78e1a816a",
    "partial-exhaustive-linear-n6-d0.3-p1": "a1943dcb9e1a0f83",
    "partial-exhaustive-linear-n6-d0.6-p3": "9c70b6e7595aba2e",
    "partial-exhaustive-linear-n6-d1.0-p1": "521ceca6c309caad",
    "partial-exhaustive-t-n6-d0.3-p1": "d6f7b9c512dda283",
    "partial-exhaustive-t-n6-d0.6-p3": "e7b7dc3befd12d0a",
    "partial-exhaustive-t-n6-d1.0-p1": "bfe31f182a243181",
    "partial-exhaustive-h-n6-d0.3-p1": "2766f4abfd5dcd32",
    "partial-exhaustive-h-n6-d0.6-p3": "99120fc8ade9db54",
    "partial-exhaustive-h-n6-d1.0-p1": "3a95d6e888aa8010",
    "partial-sampled-linear-n10-d0.3-p1": "e83f8bd2f36d682d",
    "partial-sampled-linear-n10-d0.6-p3": "58f4546e2626e79b",
    "partial-sampled-linear-n10-d1.0-p1": "1b0ebdff067ebecb",
    "partial-sampled-t-n9-d0.3-p1": "671cf9ea9ddbc151",
    "partial-sampled-t-n9-d0.6-p3": "4e4c266ffc281455",
    "partial-sampled-t-n9-d1.0-p1": "bf7561ffa2701485",
    "partial-sampled-h-n11-d0.3-p1": "99b5876d1ebed0bb",
    "partial-sampled-h-n11-d0.6-p3": "27dc02110efe9ce0",
    "partial-sampled-h-n11-d1.0-p1": "bb0fad6be7d46221",
}
