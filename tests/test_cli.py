"""End-to-end CLI flows through temp directories."""

import json
import os

import pytest

from aoqmap.cli import main


def run(args):
    return main(args)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_route_vqe_linear_cx16(tmp_path, capsys):
    code = run(["route", "--vqe", "--n", "5", "--p", "1", "--subtopology", "linear",
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["cx_count"] == 16
    report = read(tmp_path / "route-linear.report.json")
    assert report["cx_count"] == 16
    assert (tmp_path / "route-linear.qasm").exists()
    assert (tmp_path / "route-linear.circuit.json").exists()
    assert (tmp_path / "route.manifest.json").exists()


def test_route_t_below_minimum_is_input_error(tmp_path, capsys):
    code = run(["route", "--qaoa", "full", "--n", "3", "--p", "1", "--subtopology", "t",
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert "at least 4" in capsys.readouterr().err


def test_route_all_emits_three_artifacts(tmp_path, capsys):
    code = run(["route", "--qaoa", "full", "--n", "6", "--p", "1", "--subtopology", "all",
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    for kind in ("linear", "t", "h"):
        assert (tmp_path / f"route-{kind}.report.json").exists()
    out = json.loads(capsys.readouterr().out)
    assert [row["router"] for row in out] == ["linear", "t", "h"]


def test_layouts_table_counts(tmp_path, capsys):
    code = run(["layouts", "--device", "builtin:27q-heavy-hex", "--template", "linear",
                "--n", "7", "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 132

    code = run(["layouts", "--template", "h", "--n", "7", "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 56


def test_layouts_unembeddable_counts_zero(tmp_path, capsys):
    device = tmp_path / "tiny.json"
    device.write_text(json.dumps({"num_qubits": 2, "edges": [[0, 1]]}))
    code = run(["layouts", "--device", str(device), "--template", "linear", "--n", "3",
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def _device_with_calibration(path, n=4):
    edges = [[k, k + 1] for k in range(n - 1)]
    data = {
        "num_qubits": n,
        "edges": edges,
        "calibration": {
            "qubits": [{"readout_error": 0.02, "sq_error": 0.001} for _ in range(n)],
            "edges": [{"pair": e, "error": 0.01} for e in edges],
        },
    }
    path.write_text(json.dumps(data))
    return path


def test_route_select_verify_compare_roundtrip(tmp_path, capsys):
    # route with the swap-network baseline alongside
    code = run(["route", "--qaoa", "full", "--n", "3", "--p", "1", "--subtopology", "linear",
                "--baseline", "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    capsys.readouterr()

    device = _device_with_calibration(tmp_path / "device.json")
    code = run(["select", "--circuit", str(tmp_path / "route-linear.circuit.json"),
                "--device", str(device), "--report", str(tmp_path / "route-linear.report.json"),
                "--table", "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    sel = json.loads(capsys.readouterr().out)
    assert len(sel["layout"]) == 3
    assert sel["cost"] == pytest.approx(min(row["cost"] for row in sel["table"]))

    code = run(["verify", "--circuit", str(tmp_path / "route-linear.circuit.json"),
                "--report", str(tmp_path / "route-linear.report.json"),
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"

    code = run(["compare", str(tmp_path / "route-linear.report.json"),
                str(tmp_path / "route-swapnk.report.json"), "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["swap_reduction_pct"] == pytest.approx(100 * (1 - 1 / 3))


def test_compare_identical_reports_zero(tmp_path, capsys):
    run(["route", "--qaoa", "full", "--n", "4", "--p", "1", "--subtopology", "linear",
         "--out-dir", str(tmp_path)])
    capsys.readouterr()
    code = run(["compare", str(tmp_path / "route-linear.report.json"),
                str(tmp_path / "route-linear.report.json"),
                "--baseline", str(tmp_path / "route-linear.report.json"),
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    # what's left after removing the baseline is the identical report
    out = json.loads(capsys.readouterr().out)
    assert all(row["swap_reduction_pct"] == 0.0 for row in out["rows"])


def test_verify_catches_perturbation(tmp_path, capsys):
    run(["route", "--maxcut-edges", "0-1,1-2", "--n", "3", "--p", "1",
         "--subtopology", "linear", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    circ_path = tmp_path / "route-linear.circuit.json"
    data = read(circ_path)
    for g in data["gates"]:
        if g["kind"] == "zz":
            g["angle"] += 0.1
            break
    circ_path.write_text(json.dumps(data))
    code = run(["verify", "--circuit", str(circ_path),
                "--report", str(tmp_path / "route-linear.report.json"),
                "--out-dir", str(tmp_path), "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_verify_skips_above_cap(tmp_path, capsys):
    # hand-build a 20-qubit circuit file; verification must skip with exit 0
    circ = {"n": 20, "gates": [], "initial_order": list(range(20)),
            "final_order": list(range(20)), "label": ""}
    (tmp_path / "big.circuit.json").write_text(json.dumps(circ))
    (tmp_path / "big.report.json").write_text(json.dumps({
        "mode": "qaoa", "n": 20,
        "problem": {"n": 20, "zz": [], "z": [], "constant": 0.0},
        "params": {"gammas": [0.1], "betas": [0.1]}}))
    args = ["verify", "--circuit", str(tmp_path / "big.circuit.json"),
            "--report", str(tmp_path / "big.report.json"), "--out-dir", str(tmp_path)]
    assert run(args) == 0
    assert "skipped" in capsys.readouterr().out
    # the skip takes the same output path as a pass: --out file, manifest, sorted JSON
    assert run(args + ["--json", "--out", str(tmp_path / "res.json")]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert read(tmp_path / "res.json") == json.loads(out)
    assert json.loads(out)["status"] == "skipped"
    assert read(tmp_path / "verify.manifest.json")["artifacts"] == [str(tmp_path / "res.json")]


def test_postselect_flow(tmp_path, capsys):
    h = {"n": 2, "zz": [{"i": 0, "j": 1, "coeff": 1.0}], "z": [], "constant": 0.0}
    (tmp_path / "h.json").write_text(json.dumps(h))
    (tmp_path / "a.json").write_text(json.dumps({"01": 90, "00": 10}))
    (tmp_path / "b.json").write_text(json.dumps({"00": 100}))
    code = run(["postselect", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                "--hamiltonian", str(tmp_path / "h.json"), "--brute-force",
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["chosen"] == str(tmp_path / "a.json")
    assert out["f_opt"] == -1.0
    point_mass = [v for v in out["variants"] if v["label"].endswith("b.json")][0]
    assert point_mass["ar"] == 0.0


def test_postselect_point_mass_ar_one(tmp_path, capsys):
    h = {"n": 2, "zz": [{"i": 0, "j": 1, "coeff": 1.0}], "z": [], "constant": 0.0}
    (tmp_path / "h.json").write_text(json.dumps(h))
    (tmp_path / "best.json").write_text(json.dumps({"01": 64}))
    code = run(["postselect", str(tmp_path / "best.json"),
                "--hamiltonian", str(tmp_path / "h.json"), "--brute-force",
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["variants"][0]["ar"] == 1.0
    assert out["variants"][0]["sp"] == 1.0


def test_postselect_inconsistent_n(tmp_path, capsys):
    h = {"n": 3, "zz": [], "z": [], "constant": 0.0}
    (tmp_path / "h.json").write_text(json.dumps(h))
    (tmp_path / "a.json").write_text(json.dumps({"01": 5}))
    code = run(["postselect", str(tmp_path / "a.json"),
                "--hamiltonian", str(tmp_path / "h.json"), "--out-dir", str(tmp_path)])
    assert code == 2


def test_postselect_rejects_non_binary_bitstring(tmp_path, capsys):
    h = {"n": 3, "zz": [{"i": 0, "j": 1, "coeff": 1.0}], "z": [], "constant": 0.0}
    (tmp_path / "h.json").write_text(json.dumps(h))
    (tmp_path / "c.json").write_text(json.dumps({"010": 2, "2a0": 3}))
    code = run(["postselect", str(tmp_path / "c.json"),
                "--hamiltonian", str(tmp_path / "h.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "c.json" in err and "'2a0'" in err


def test_malformed_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run(["route", "--hamiltonian", str(bad), "--out-dir", str(tmp_path)])
    assert code == 2


def test_route_rejects_nonpositive_samples(tmp_path, capsys):
    code = run(["route", "--maxcut-edges", "0-1,1-2", "--order-strategy", "sampled",
                "--samples", "-3", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "route-linear.circuit.json").exists()


@pytest.mark.parametrize("flag, problem", [
    ("--gammas", ["--qaoa", "full", "--n", "5"]),
    ("--betas", ["--qaoa", "full", "--n", "5"]),
    ("--thetas", ["--vqe", "--n", "3"]),
], ids=["gammas", "betas", "thetas"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_route_rejects_non_finite_angles(tmp_path, capsys, flag, problem, bad):
    values = [bad] + ["1"] * (5 if flag == "--thetas" else 0)
    code = run(["route", *problem, f"{flag}={','.join(values)}", "--out-dir", str(tmp_path)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "route-linear.circuit.json").exists()


def test_missing_field_names_file_and_key(tmp_path, capsys):
    spec = {"lambda": 1.0, "A": 0.5, "B": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]], "mu": [0.1, 0.2]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "no-n.json").write_text(json.dumps({"zz": [], "z": []}))
    (tmp_path / "no-coeff.json").write_text(json.dumps({"n": 2, "zz": [{"i": 0, "j": 1}]}))
    (tmp_path / "counts.json").write_text(json.dumps({"01": 3}))
    cases = [
        (["route", "--portfolio-spec", str(tmp_path / "spec.json")], "spec.json", "'q'"),
        (["route", "--hamiltonian", str(tmp_path / "no-n.json")], "no-n.json", "'n'"),
        (["postselect", str(tmp_path / "counts.json"), "--hamiltonian",
          str(tmp_path / "no-coeff.json")], "no-coeff.json", "'coeff'"),
    ]
    for argv, name, key in cases:
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert name in err and f"missing field {key}" in err


@pytest.mark.parametrize("data, field", [
    ({"n": 3, "zz": [{"i": 0, "j": 1, "coeff": None}]}, "'zz[0].coeff' must be a finite number"),
    ({"n": 3, "zz": [[0, 1, 1.0]]}, "'zz' must be a list of objects"),
    ({"n": 3, "z": {"i": 0, "coeff": 1.0}}, "'z' must be a list of objects"),
    ({"n": 3, "zz": [{"i": 0.5, "j": 1, "coeff": 1.0}]}, "'zz[0].i' must be an integer"),
    ({"n": "3"}, "'n' must be an integer"),
    ({"n": 3, "constant": None}, "'constant' must be a finite number"),
], ids=["null-coeff", "zz-lists", "z-object", "float-index", "str-n", "null-constant"])
@pytest.mark.parametrize("command", ["route", "postselect"])
def test_malformed_hamiltonian_names_file_and_field(tmp_path, capsys, data, field, command):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    (tmp_path / "c.json").write_text(json.dumps({"010": 2}))
    argv = (["route", "--hamiltonian", str(path)] if command == "route"
            else ["postselect", str(tmp_path / "c.json"), "--hamiltonian", str(path)])
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: field {field}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "select"])
def test_circuit_n_must_be_an_integer(tmp_path, capsys, command):
    run(["route", "--qaoa", "full", "--n", "3", "--out-dir", str(tmp_path)])
    report = str(tmp_path / "route-linear.report.json")
    bad = tmp_path / "bad.circuit.json"
    bad.write_text(json.dumps({**read(tmp_path / "route-linear.circuit.json"), "n": "x"}))
    argv = {"verify": ["verify", "--circuit", str(bad), "--report", report],
            "select": ["select", "--circuit", str(bad), "--device", "builtin:27q-heavy-hex"]}
    capsys.readouterr()
    assert run(argv[command] + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: field 'n' must be an integer, got 'x'\n"


@pytest.mark.parametrize("angle", ["x", float("nan"), None, [0.1]], ids=["str", "nan", "null", "list"])
@pytest.mark.parametrize("command", ["verify", "select"])
def test_circuit_gate_angle_must_be_finite(tmp_path, capsys, command, angle):
    run(["route", "--qaoa", "full", "--n", "3", "--out-dir", str(tmp_path)])
    report = str(tmp_path / "route-linear.report.json")
    data = read(tmp_path / "route-linear.circuit.json")
    k = next(k for k, g in enumerate(data["gates"]) if g["kind"] == "rx")
    data["gates"][k]["angle"] = angle
    bad = tmp_path / "bad.circuit.json"
    bad.write_text(json.dumps(data))
    argv = {"verify": ["verify", "--circuit", str(bad), "--report", report],
            "select": ["select", "--circuit", str(bad), "--device", "builtin:27q-heavy-hex"]}
    capsys.readouterr()
    assert run(argv[command] + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    if angle is None:  # a rotation with no angle is a malformed gate, not a malformed number
        assert err == f"error: {bad}: rx: angle must be present iff the kind is rotation-like\n"
    else:
        assert err == (f"error: {bad}: field 'gates[{k}].angle' must be a finite number, "
                       f"got {angle!r}\n")


@pytest.mark.parametrize("field, value, message", [
    ("lambda", None, "'lambda' must be a finite number, got None"),
    ("q", "0.5", "'q' must be a finite number, got '0.5'"),
    ("A", float("inf"), "'A' must be a finite number, got inf"),
    ("B", 1.5, "'B' must be an integer, got 1.5"),
    ("constant", [], "'constant' must be a finite number, got []"),
    ("mu", [0.1, None], "'mu[1]' must be a finite number, got None"),
    ("mu", 0.1, "'mu' must be a list, got 0.1"),
    ("sigma", [[1.0, 0.0], [0.0, "1"]], "'sigma[1][1]' must be a finite number, got '1'"),
    ("sigma", [[1.0, 0.0], 2.0], "'sigma[1]' must be a list, got 2.0"),
    ("sigma", {"0": [1.0]}, "'sigma' must be a list, got {'0': [1.0]}"),
], ids=["lambda", "q", "A", "B", "constant", "mu-item", "mu-scalar", "sigma-item", "sigma-row",
        "sigma-object"])
def test_malformed_portfolio_spec_names_field(tmp_path, capsys, field, value, message):
    spec = {"lambda": 1.0, "q": 0.5, "A": 0.5, "B": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]],
            "mu": [0.1, 0.2], field: value}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["route", "--portfolio-spec", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: field {message}\n"
    assert not (tmp_path / "route-linear.circuit.json").exists()


@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize("problem", [["--qaoa", "full", "--n", "5"], ["--vqe", "--n", "3"]],
                         ids=["qaoa", "vqe"])
def test_route_rejects_p_below_one(tmp_path, capsys, p, problem):
    assert run(["route", *problem, "--p", str(p), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --p must be at least 1, got {p}\n"
    assert not (tmp_path / "route.manifest.json").exists()


def test_postselect_rejects_bad_budget(tmp_path, capsys):
    h = {"n": 3, "zz": [{"i": 0, "j": 1, "coeff": 1.0}], "z": [], "constant": 0.0, "budget": "1"}
    (tmp_path / "h.json").write_text(json.dumps(h))
    (tmp_path / "c.json").write_text(json.dumps({"010": 2}))
    code = run(["postselect", str(tmp_path / "c.json"), "--hamiltonian", str(tmp_path / "h.json"),
                "--opt", "-1", "--max", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["route", "verify", "postselect", "select", "compare"])
def test_top_level_json_must_be_an_object(tmp_path, capsys, entry):
    run(["route", "--qaoa", "full", "--n", "3", "--out-dir", str(tmp_path)])
    circuit = str(tmp_path / "route-linear.circuit.json")
    report = str(tmp_path / "route-linear.report.json")
    (tmp_path / "counts.json").write_text(json.dumps({"000": 1}))
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1, 2]))
    argv = {
        "route": ["route", "--hamiltonian", str(bad)],
        "verify": ["verify", "--circuit", circuit, "--report", str(bad)],
        "postselect": ["postselect", str(tmp_path / "counts.json"), "--hamiltonian", str(bad)],
        "select": ["select", "--circuit", str(bad), "--device", "builtin:27q-heavy-hex"],
        "compare": ["compare", report, str(bad), "--baseline", report],
    }[entry]
    capsys.readouterr()
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: expected a JSON object\n"


def test_compare_missing_field_names_file_and_key(tmp_path, capsys):
    run(["route", "--qaoa", "full", "--n", "3", "--out-dir", str(tmp_path)])
    report, bad = tmp_path / "route-linear.report.json", tmp_path / "bad.report.json"
    data = read(report)
    del data["router"]
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["compare", str(report), str(bad), "--baseline", str(report),
                "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: missing field 'router'\n"


@pytest.mark.parametrize("counts", [{"01": 2.7}, {"01": True}, {"01": "3"}, {"01": -1},
                                    [["01", 2]]],
                         ids=["float", "bool", "str", "negative", "list"])
def test_postselect_rejects_bad_counts(tmp_path, capsys, counts):
    h = {"n": 2, "zz": [{"i": 0, "j": 1, "coeff": 1.0}], "z": [], "constant": 0.0}
    (tmp_path / "h.json").write_text(json.dumps(h))
    (tmp_path / "c.json").write_text(json.dumps(counts))
    code = run(["postselect", str(tmp_path / "c.json"), "--hamiltonian", str(tmp_path / "h.json"),
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'c.json'}: ") and err.count("\n") == 1
    assert not (tmp_path / "postselect.manifest.json").exists()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AOQMAP_SEED", "77")
    code = run(["route", "--maxcut-edges", "0-2,1-3", "--n", "5", "--p", "1",
                "--subtopology", "linear", "--order-strategy", "sampled", "--samples", "20",
                "--out-dir", str(tmp_path), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["seed"] == 77


def test_reruns_byte_identical_modulo_manifest(tmp_path, capsys):
    args = ["route", "--qaoa", "full", "--n", "4", "--p", "2", "--subtopology", "linear",
            "--seed", "5", "--out-dir"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run(args + [str(d1)])
    run(args + [str(d2)])
    capsys.readouterr()
    for name in ("route-linear.qasm", "route-linear.circuit.json", "route-linear.report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    m1, m2 = read(d1 / "route.manifest.json"), read(d2 / "route.manifest.json")
    m1.pop("timestamp"), m2.pop("timestamp")
    m1.pop("artifacts"), m2.pop("artifacts")  # artifact paths embed out-dir
    assert m1 == m2
