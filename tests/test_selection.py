"""Cost function, layout selection, and postselection."""

import hashlib
import json
import re

import numpy as np
import pytest

from aoqmap import (Calibration, CalibrationError, Circuit, CircuitBuilder, CouplingGraph,
                    ProblemHamiltonian, QaoaParams, builtin_device, circuit_cost, circuit_to_dict,
                    enumerate_layouts, layout_costs, postselect, route_qaoa_linear,
                    route_qaoa_partial, route_qaoa_subtop, route_vqe_linear, select_layout,
                    template, uniform_calibration)
from aoqmap import selection
from aoqmap.cli import main
from oracles import layout_costs_scalar


def line_graph(n):
    return CouplingGraph(n, frozenset((k, k + 1) for k in range(n - 1)))


def line_cal(n, readout=0.02, sq=0.001, tq=0.01):
    return uniform_calibration(n, line_graph(n), readout=readout, sq=sq, tq=tq)


def test_cost_empty_circuit_no_measurement():
    rep = circuit_cost(Circuit(2), (0, 1), line_cal(2, readout=0.0))
    assert rep.cost == 0.0


def test_cost_single_two_qubit_gate():
    cal = line_cal(2, readout=0.0, tq=0.01)
    rep = circuit_cost(CircuitBuilder(2).cx(0, 1).build(), (0, 1), cal)
    assert rep.cost == pytest.approx(0.01)


def test_cost_hand_product():
    # two gates at 0.01 plus measurements at 0.02 and 0 -> 1 - 0.99^2 * 0.98
    cal = Calibration(readout_error=(0.02, 0.0), sq_error=(0.0, 0.0),
                      edge_error={(0, 1): 0.01})
    circuit = CircuitBuilder(2).cx(0, 1).cx(1, 0).build()
    rep = circuit_cost(circuit, (0, 1), cal)
    assert rep.cost == pytest.approx(1 - 0.99 ** 2 * 0.98, abs=1e-12)


def test_cost_counts_decomposed_gates():
    cal = line_cal(2, readout=0.0, sq=0.001, tq=0.01)
    macro = CircuitBuilder(2).zz(0, 1, 0.3).build()
    rep = circuit_cost(macro, (0, 1), cal)
    # zz decomposes to cx rz cx
    want = 1 - (1 - 0.01) ** 2 * (1 - 0.001)
    assert rep.cost == pytest.approx(want, abs=1e-15)
    assert rep.gate_count == 3


def test_cost_order_invariance_and_monotonicity():
    rng = np.random.default_rng(5)
    n = 4
    cal = Calibration(
        readout_error=tuple(rng.uniform(0, 0.05, n)),
        sq_error=tuple(rng.uniform(0, 0.01, n)),
        edge_error={(k, k + 1): float(rng.uniform(0, 0.03)) for k in range(n - 1)},
    )
    b = CircuitBuilder(n)
    gates = [("cx", (0, 1)), ("rz", (2,)), ("cx", (2, 3)), ("h", (1,)), ("cx", (1, 2))]
    for kind, qs in gates:
        b.add(kind, qs, 0.3 if kind == "rz" else None)
    base = circuit_cost(b.build(), range(n), cal)
    perm = [gates[i] for i in (4, 0, 3, 2, 1)]
    b2 = CircuitBuilder(n)
    for kind, qs in perm:
        b2.add(kind, qs, 0.3 if kind == "rz" else None)
    shuffled = circuit_cost(b2.build(), range(n), cal)
    assert shuffled.cost == pytest.approx(base.cost, abs=1e-15)
    grown = circuit_cost(b.cx(0, 1).build(), range(n), cal)
    assert grown.cost > base.cost


def test_cost_missing_calibration():
    cal = Calibration(readout_error=(0.0, 0.0), sq_error=(0.0, 0.0), edge_error={})
    with pytest.raises(CalibrationError) as info:
        circuit_cost(CircuitBuilder(2).cx(0, 1).build(), (0, 1), cal)
    # a ValueError, so the CLI prints the message as is (a KeyError quotes it)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == "no two-qubit calibration for edge (0,1)"


def test_select_layout_uniform_picks_lexicographic_first():
    g = line_graph(4)
    cal = line_cal(4)
    circuit = CircuitBuilder(3).zz(0, 1, 0.1).zz(1, 2, 0.1).build()
    layout, rep = select_layout(circuit, template("linear", 3), g, cal)
    layouts = enumerate_layouts(template("linear", 3), g)
    assert layout == layouts[0]
    assert rep.cost == pytest.approx(circuit_cost(circuit, layouts[0], cal).cost)


def test_select_layout_avoids_bad_edge():
    g = line_graph(4)
    cal = line_cal(4)
    cal.edge_error[(0, 1)] = 0.5
    circuit = CircuitBuilder(3).zz(0, 1, 0.1).zz(1, 2, 0.1).build()
    layout, _ = select_layout(circuit, template("linear", 3), g, cal)
    used = {tuple(sorted((layout[a], layout[b]))) for a, b in template("linear", 3).edges}
    assert (0, 1) not in used


def test_select_layout_matches_exhaustive_argmin():
    rng = np.random.default_rng(17)
    g = builtin_device("27q-heavy-hex")
    cal = Calibration(
        readout_error=tuple(rng.uniform(0.005, 0.05, 27)),
        sq_error=tuple(rng.uniform(0.0001, 0.002, 27)),
        edge_error={e: float(rng.uniform(0.002, 0.05)) for e in g.edges},
    )
    tmpl = template("linear", 3)
    circuit = CircuitBuilder(3).zz(0, 1, 0.2).zzswap(1, 2, 0.4).build()
    layouts = enumerate_layouts(tmpl, g)
    assert len(layouts) == 74
    table = [(circuit_cost(circuit, l, cal).cost, l) for l in layouts]
    layout, rep = select_layout(circuit, tmpl, g, cal)
    assert rep.cost == pytest.approx(min(c for c, _ in table))
    assert layout == min(table)[1]


def test_select_layout_unembeddable():
    g = CouplingGraph(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="not embeddable"):
        select_layout(Circuit(3), template("linear", 3), g, line_cal(3))


def test_select_rejects_circuit_off_template(tmp_path, capsys):
    g = builtin_device("27q-heavy-hex")
    cal = _random_calibration(g, np.random.default_rng(5))
    h = ProblemHamiltonian(7, tuple((i, j, 1.0) for i in range(6) for j in range(i + 1, 7)))
    circuit = route_qaoa_linear(h, QaoaParams((0.4,), (0.3,))).circuit
    message = "zz on (0, 1) is not an edge of the h-7 template"
    with pytest.raises(ValueError, match=re.escape(message)):
        select_layout(circuit, template("h", 7), g, cal)

    path = tmp_path / "c.json"
    path.write_text(json.dumps(circuit_to_dict(circuit)))
    device = _write_calibrated_device(tmp_path / "device.json")
    assert main(["select", "--circuit", str(path), "--device", str(device), "--template", "h",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "select.manifest.json").exists()


def _random_calibration(graph, rng):
    return Calibration(
        readout_error=tuple(float(r) for r in rng.uniform(0.005, 0.05, graph.num_qubits)),
        sq_error=tuple(float(r) for r in rng.uniform(0.0001, 0.002, graph.num_qubits)),
        edge_error={e: float(rng.uniform(0.002, 0.05)) for e in sorted(graph.edges)},
    )


def _write_calibrated_device(path, seed=11):
    g = builtin_device("27q-heavy-hex")
    cal = _random_calibration(g, np.random.default_rng(seed))
    path.write_text(json.dumps({
        "num_qubits": g.num_qubits,
        "edges": [list(e) for e in sorted(g.edges)],
        "calibration": {
            "qubits": [{"readout_error": r, "sq_error": s}
                       for r, s in zip(cal.readout_error, cal.sq_error)],
            "edges": [{"pair": list(e), "error": err} for e, err in sorted(cal.edge_error.items())],
        },
    }))
    return path


def test_layout_costs_match_circuit_cost_in_order():
    rng = np.random.default_rng(3)
    g = builtin_device("27q-heavy-hex")
    cal = _random_calibration(g, rng)
    h = ProblemHamiltonian(5, tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 5)))
    circuit = route_qaoa_linear(h, QaoaParams((0.4,), (0.3,))).circuit
    layouts = enumerate_layouts(template("linear", 5), g)[::-1]
    reports = layout_costs(circuit, layouts, cal)
    assert reports == [circuit_cost(circuit, l, cal) for l in layouts]
    with pytest.raises(ValueError, match="covers 4 positions"):
        layout_costs(circuit, [layouts[0], layouts[0][:4]], cal)


def test_select_decomposes_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = selection.decompose_to_basis
    monkeypatch.setattr(selection, "decompose_to_basis",
                        lambda circuit: calls.append(circuit) or real(circuit))
    g = builtin_device("27q-heavy-hex")
    cal = _random_calibration(g, np.random.default_rng(5))
    h = ProblemHamiltonian(7, tuple((i, j, 1.0) for i in range(6) for j in range(i + 1, 7)))
    circuit = route_qaoa_linear(h, QaoaParams((0.4,), (0.3,))).circuit
    select_layout(circuit, template("linear", 7), g, cal)
    assert calls == [circuit]

    (tmp_path / "c.json").write_text(json.dumps(circuit_to_dict(circuit)))
    device = _write_calibrated_device(tmp_path / "device.json")
    argv = ["select", "--circuit", str(tmp_path / "c.json"), "--device", str(device),
            "--template", "linear", "--json", "--out-dir", str(tmp_path)]
    calls.clear()
    assert main(argv) == 0
    assert len(calls) == 1
    capsys.readouterr()
    calls.clear()
    assert main(argv + ["--table"]) == 0
    assert len(calls) == 1  # the table rows and the selected layout come from one scoring
    assert len(json.loads(capsys.readouterr().out)["table"]) == 132


def _oracle_cases(rng):
    """(circuit, layouts) pairs: full QAOA on linear/T/H at n = 7..13, VQE and
    partial routes, each with seeded random injective layouts onto 27 qubits,
    some longer than the circuit."""
    cases = []
    for n in (7, 9, 11, 13):
        h = ProblemHamiltonian(n, tuple((i, j, float(rng.uniform(-1, 1)))
                                        for i in range(n - 1) for j in range(i + 1, n)))
        params = QaoaParams((float(rng.uniform(0, 1)),), (float(rng.uniform(0, 1)),))
        cases += [route_qaoa_linear(h, params).circuit,
                  route_qaoa_subtop(h, params, "t").circuit,
                  route_qaoa_subtop(h, params, "h").circuit]
    cases.append(route_vqe_linear(9, 1, tuple(rng.uniform(0, 1, 18))).circuit)
    sparse = ProblemHamiltonian(6, ((0, 1, 1.0), (1, 2, -0.5), (2, 5, 0.7), (0, 4, 1.0)))
    cases.append(route_qaoa_partial(sparse, QaoaParams((0.3,), (0.2,))).circuit)
    return [(circuit, [tuple(rng.permutation(27)[:circuit.n + k].tolist()) for k in (0, 0, 1, 4)])
            for circuit in cases]


def test_layout_costs_match_scalar_oracle():
    """Every CostReport field `==` the one-layout-at-a-time float loop, on
    random calibrations of a fully coupled 27-qubit device (so any injective
    layout is scorable)."""
    rng = np.random.default_rng(2024)
    cases = _oracle_cases(rng)
    complete = CouplingGraph(27, frozenset((u, v) for u in range(27) for v in range(u + 1, 27)))
    for circuit, layouts in cases:
        cal = _random_calibration(complete, rng)
        reports = layout_costs(circuit, layouts, cal)
        assert reports == layout_costs_scalar(circuit, layouts, cal)
        assert all(type(value) is float for r in reports
                   for value in (r.cost, r.gate_error_product, r.measurement_error_product))


def _same_failure(circuit, layouts, cal):
    with pytest.raises(Exception) as want:
        layout_costs_scalar(circuit, layouts, cal)
    with pytest.raises(type(want.value)) as got:
        layout_costs(circuit, layouts, cal)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    return str(got.value)


def test_layout_costs_errors_match_scalar_oracle():
    g = builtin_device("27q-heavy-hex")
    cal = _random_calibration(g, np.random.default_rng(8))
    circuit = CircuitBuilder(3).h(0).zz(0, 1, 0.3).rx(2, 0.1).zz(1, 2, 0.2).build()
    good = enumerate_layouts(template("linear", 3), g)[:4]
    cases = {
        "off-edge": [*good, (0, 2, 1)],                 # (0,2) is not a device edge
        "past-tables": [*good, (25, 26, 27)],           # rx on qubit 27 of a 27-qubit table
        "past-readout": [good[0], (0, 1, 2, 99)],       # positions past n are never read
        "two-bad": [good[0], (0, 1, 27), (0, 2, 1)],    # the first failing layout wins
        "short-after-bad": [(0, 2, 1), (0, 1)],         # a calibration error before the short one
        "short-first": [(0, 1), (0, 2, 1)],
        "negative": [good[0], (-1, 0, 1)],
    }
    messages = {}
    for name, layouts in cases.items():
        if name == "past-readout":
            assert layout_costs(circuit, layouts, cal) == layout_costs_scalar(circuit, layouts, cal)
            continue
        messages[name] = _same_failure(circuit, layouts, cal)
    assert messages["off-edge"] == "no two-qubit calibration for edge (0,2)"
    assert messages["past-tables"] == "no single-qubit calibration for qubit 27"  # rx, then zz
    assert messages["two-bad"] == "no single-qubit calibration for qubit 27"
    assert messages["short-after-bad"] == "no two-qubit calibration for edge (0,2)"
    assert messages["short-first"] == "layout covers 2 positions, circuit needs 3"
    # a readout-only miss: the one gate is on position 0, qubit 27 is measured at position 2
    one = CircuitBuilder(3).h(0).build()
    assert _same_failure(one, [(0, 1, 27)], cal) == "no readout calibration for qubit 27"
    assert _same_failure(one, [(0, 1, 2), (5, 1, 2), (30, 1, 2)], cal) == \
        "no single-qubit calibration for qubit 30"


@pytest.mark.parametrize("circuit, layout, message", [
    (CircuitBuilder(1).h(0).build(), (-1,), "no single-qubit calibration for qubit -1"),
    (Circuit(1), (-1,), "no readout calibration for qubit -1"),
    (CircuitBuilder(2).cx(0, 1).build(), (26, -1), "no two-qubit calibration for edge (26,-1)"),
], ids=["single-qubit", "readout", "two-qubit"])
def test_negative_physical_qubit_is_uncalibrated(circuit, layout, message):
    """-1 names no qubit; it must not wrap round to the last one (26)."""
    g = builtin_device("27q-heavy-hex")
    cal = _random_calibration(g, np.random.default_rng(1))
    cal.edge_error[(-1, 26)] = 0.01  # even a calibration entry for it does not count
    with pytest.raises(CalibrationError) as info:
        layout_costs(circuit, [layout], cal)
    assert str(info.value) == message


def test_selection_golden(tmp_path, capsys):
    """`select --json --table` stdout pinned by digest: costs and products
    appear in full repr precision, so any change to the scoring order shows."""
    device = _write_calibrated_device(tmp_path / "device.json")
    jobs = []
    for n in (7, 9, 11, 13):
        assert main(["route", "--qaoa", "full", "--n", str(n), "--subtopology", "all",
                     "--label", f"q{n}", "--out-dir", str(tmp_path)]) == 0
        jobs += [(f"{kind}-n{n}", f"q{n}-{kind}") for kind in ("linear", "t", "h")]
    assert main(["route", "--vqe", "--n", "11", "--label", "vqe11",
                 "--out-dir", str(tmp_path)]) == 0
    jobs.append(("vqe-n11", "vqe11-linear"))
    capsys.readouterr()
    digests = {}
    for case, stem in jobs:
        assert main(["select", "--circuit", str(tmp_path / f"{stem}.circuit.json"),
                     "--device", str(device), "--report", str(tmp_path / f"{stem}.report.json"),
                     "--table", "--json", "--out-dir", str(tmp_path)]) == 0
        digests[case] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digests == SELECTION_GOLDEN


def test_postselect_basics():
    h = ProblemHamiltonian(2, ((0, 1, 1.0),))
    good = {"01": 100}   # E = -1
    bad = {"00": 100}    # E = +1
    assert postselect([("only", good)], h)[0] == "only"
    label, val = postselect([("bad", bad), ("good", good)], h)
    assert label == "good" and val == -1.0
    # tie -> earliest
    label, _ = postselect([("first", good), ("second", dict(good))], h)
    assert label == "first"
    with pytest.raises(ValueError):
        postselect([], h)


# sha256 prefixes of `select --json --table` stdout for each test_selection_golden case,
# taken before layout scoring moved to one decomposition per call
SELECTION_GOLDEN = {
    "linear-n7": "15d81c99def7d348",
    "t-n7": "04d23347f2e878d6",
    "h-n7": "a75f4bff73601537",
    "linear-n9": "6449aa7f4a229eca",
    "t-n9": "f241f024b4671989",
    "h-n9": "13c8ae9b928503a2",
    "linear-n11": "bfc19117cb38698d",
    "t-n11": "5064bcefcc8a310a",
    "h-n11": "ccdf083aa34d0066",
    "linear-n13": "8b9234928d52dc49",
    "t-n13": "e363aba50af5ca3f",
    "h-n13": "aee331946da0f17e",
    "vqe-n11": "faaf989b8c6d495d",
}
