"""Swap-layer schedules: exact layer content, closure, permutation algebra."""

import pytest

from aoqmap import (Permutation, SwapSchedule, connectivity_closure, consumed_layer_bound,
                    depth_one_period, h_layers, linear_layers, order_after, t_layers, template)


def all_pairs(n):
    return frozenset((i, j) for i in range(n - 1) for j in range(i + 1, n))


def test_linear_n5_layers_and_evolution():
    sched = linear_layers(5)
    assert [list(l) for l in sched.layers] == [[(1, 2), (3, 4)], [(0, 1), (2, 3)], [(1, 2), (3, 4)]]
    # [a,b,c,d,e] -> [a,c,b,e,d] -> [c,a,e,b,d] -> [c,e,a,d,b]
    order = list(range(5))
    snapshots = []
    for layer in sched.layers:
        for i, j in layer:
            order[i], order[j] = order[j], order[i]
        snapshots.append(list(order))
    assert snapshots == [[0, 2, 1, 4, 3], [2, 0, 4, 1, 3], [2, 4, 0, 3, 1]]


def test_linear_small_n():
    assert [list(l) for l in linear_layers(3).layers] == [[(1, 2)]]
    assert linear_layers(2).layers == ()
    with pytest.raises(ValueError):
        linear_layers(1)


def test_t_layers_examples():
    assert [list(l) for l in t_layers(4).layers[:2]] == [[(2, 3)], [(0, 2)]]
    assert [list(l) for l in t_layers(6).layers[:4]] == [
        [(2, 3), (4, 5)], [(0, 2), (3, 4)], [(2, 3), (4, 5)], [(1, 2), (3, 4)]]
    edges = template("t", 5).edge_set()
    for layer in t_layers(5).layers:
        assert all((min(i, j), max(i, j)) in edges for i, j in layer)
    with pytest.raises(ValueError):
        t_layers(3)


def test_h_layers_examples():
    sched = h_layers(6)
    assert [list(l) for l in sched.layers[:5]] == [
        [(2, 3)], [(1, 2), (3, 4)], [(2, 3)], [(0, 2), (3, 5)], [(2, 3)]]
    assert sum(len(l) for l in sched.layers[:5]) == 7
    assert list(h_layers(7).layers[0]) == [(0, 2), (3, 4)]
    with pytest.raises(ValueError):
        h_layers(5)


def test_schedule_layers_are_disjoint_template_edges():
    for kind, lo in (("linear", 3), ("t", 4), ("h", 6)):
        for n in range(lo, 17):
            sched = {"linear": linear_layers, "t": t_layers, "h": h_layers}[kind](n)
            edges = template(kind, n).edge_set()
            for layer in sched.layers:
                seen = set()
                for i, j in layer:
                    assert (min(i, j), max(i, j)) in edges
                    assert i not in seen and j not in seen
                    seen.update((i, j))


def test_mirror_involution_and_palindromes():
    s = t_layers(6)
    assert s.layers[::-1][::-1] == s.layers
    lin5 = linear_layers(5)
    assert lin5.layers[::-1] == lin5.layers  # palindromic for n=5
    lin6 = linear_layers(6)
    mirrored = SwapSchedule("linear", 6, lin6.layers[::-1])  # still a valid schedule
    assert mirrored.layers[0] == lin6.layers[-1]
    assert mirrored.layers[0][0] == (0, 1)  # even-start layer first


def test_order_after():
    lin5 = linear_layers(5)
    ident = Permutation.identity(5)
    assert order_after(linear_layers(2), Permutation.identity(2)) == Permutation.identity(2)
    once = order_after(lin5, ident)
    assert once.map == (2, 4, 0, 3, 1)
    assert order_after(lin5, once) == ident  # odd n: applying twice restores
    with pytest.raises(ValueError):
        order_after(lin5, Permutation.identity(4))


def test_connectivity_closure_examples():
    lin5 = linear_layers(5)
    assert connectivity_closure(lin5, template("linear", 5)) == all_pairs(5)
    t6 = t_layers(6)
    truncated = type(t6)(t6.template_kind, t6.n, t6.layers[: 6 - 2])
    assert connectivity_closure(truncated, template("t", 6)) == all_pairs(6)
    empty = linear_layers(2)
    lin3 = type(empty)("linear", 3, ())
    assert connectivity_closure(lin3, template("linear", 3)) == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize("n", range(3, 17))
def test_closure_at_optimality_bound(n):
    from aoqmap import SwapSchedule

    lin = linear_layers(n)
    assert connectivity_closure(lin, template("linear", n)) == all_pairs(n)
    assert len(lin.layers) == consumed_layer_bound("linear", n)
    if n >= 4:
        t = t_layers(n)
        cut = SwapSchedule("t", n, t.layers[: n - 2])
        assert connectivity_closure(cut, template("t", n)) == all_pairs(n)
    if n >= 6:
        h = h_layers(n)
        cut = SwapSchedule("h", n, h.layers[: n - 1])
        assert connectivity_closure(cut, template("h", n)) == all_pairs(n)


@pytest.mark.parametrize("n", range(3, 17))
def test_depth_one_permutation_period(n):
    ident = Permutation.identity(n)
    pi = order_after(linear_layers(n), ident)
    if n % 2 == 1:
        assert order_after(linear_layers(n), pi) == ident  # involution
    k = depth_one_period(n)
    cur = ident
    for _ in range(k):
        cur = order_after(linear_layers(n), cur)
    assert cur == ident
