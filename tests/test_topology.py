"""Templates, builtin devices, and layout enumeration."""

import pytest

from aoqmap import (CouplingGraph, builtin_device, enumerate_layouts, graph_from_dict,
                    graph_to_dict, layout_respects, template)

from oracles import claw_layout_count, count_simple_paths


def test_template_edge_sets():
    assert set(template("t", 4).edges) == {(0, 2), (1, 2), (2, 3)}
    assert set(template("linear", 2).edges) == {(0, 1)}
    assert set(template("h", 6).edges) == {(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)}
    assert set(template("h", 7).edges) == {(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)}


def test_template_minimums():
    with pytest.raises(ValueError):
        template("t", 3)
    with pytest.raises(ValueError):
        template("h", 5)
    with pytest.raises(ValueError):
        template("linear", 1)
    with pytest.raises(ValueError):
        template("star", 4)


def test_builtin_devices():
    seven = builtin_device("7q-h")
    assert seven.num_qubits == 7
    assert seven.edges == frozenset({(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)})
    assert max(len(seven.neighbors(q)) for q in range(7)) == 3

    hex27 = builtin_device("27q-heavy-hex")
    assert hex27.num_qubits == 27
    assert len(hex27.edges) == 28
    assert sum(1 for q in range(27) if len(hex27.neighbors(q)) == 3) == 8

    with pytest.raises(ValueError):
        builtin_device("not-a-device")


def test_graph_validation_and_roundtrip():
    with pytest.raises(ValueError):
        CouplingGraph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        CouplingGraph(2, frozenset({(0, 5)}))
    g = builtin_device("7q-h")
    assert graph_from_dict(graph_to_dict(g)).edges == g.edges


def test_two_qubit_linear_on_single_edge():
    g = CouplingGraph(2, frozenset({(0, 1)}))
    assert enumerate_layouts(template("linear", 2), g) == [(0, 1), (1, 0)]
    assert enumerate_layouts(template("linear", 3), g) == []


def test_layouts_satisfy_edge_preservation():
    g = builtin_device("27q-heavy-hex")
    for kind, n in (("linear", 4), ("t", 5), ("h", 7)):
        tmpl = template(kind, n)
        layouts = enumerate_layouts(tmpl, g)
        assert layouts == sorted(layouts)
        for layout in layouts:
            assert layout_respects(tmpl, g, layout)


@pytest.mark.parametrize("device", ["7q-h", "27q-heavy-hex"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_linear_count_is_twice_path_count(device, n):
    g = builtin_device(device)
    got = len(enumerate_layouts(template("linear", n), g))
    assert got == 2 * count_simple_paths(g.num_qubits, g.edges, n)


@pytest.mark.parametrize("device", ["7q-h", "27q-heavy-hex"])
def test_claw_count_closed_form(device):
    g = builtin_device(device)
    got = len(enumerate_layouts(template("t", 4), g))
    assert got == claw_layout_count(g.num_qubits, g.edges)
