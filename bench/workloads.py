"""Seeded inputs, the three workloads and the checks on their outputs.

Every workload drives aoqmap through `aoqmap.cli.main(argv)` in-process and
through `circuit_from_dict`, `decompose_to_basis` and `sample` where the CLI
has no command. One pass runs the whole workload once, one call after the
other; `run.py` repeats passes for the measured time.

Why each workload (see bench/README.md for the metric table):

dense-chain
    The user's main flow, route -> select -> verify on the 27-qubit
    heavy-hex device with a seeded calibration file, for complete
    random-weight QAOA at n = 7, 9, 11, 13 (p = 2, linear, T and H each)
    plus one VQE ansatz (n = 11, p = 2): 13 routed circuits. n is odd
    because the H template embeds in the 27-qubit device only at odd n.
    Time goes mostly to layout scoring (one basis decomposition per
    candidate layout) and to exact simulation at n = 11 and 13.
partial-search
    Sparse MaxCut graphs routed by the initial-order search, then verified:
    n = 8 exhaustive with 16 and 20 edges (20 160 orders each) and n = 11
    sampled with 25 edges and 5000 samples. No search can stop early at the
    certified 2|E| floor: a route at the floor has no swap, so the order
    never changes and only the n - 1 chain edges carry gates, fewer than
    |E| here. The whole candidate set is scored; the traced run reports
    `routing.partial.floor_stops` to show it. Selection does no work here.
noisy-sp
    Many small noisy trajectories rather than a few large statevectors:
    triangle MaxCut at p = 1, 2, 3 (1000 shots each) and one complete
    random-weight n = 6 instance (300 shots), each routed and verified by
    the CLI, decomposed, sampled with depolarizing noise 0.005 and scored by
    `postselect --brute-force`. The triangle success probability is checked
    against a density-matrix reference.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibrate

DEVICE = "27q-heavy-hex"
NOISE_EPS = 0.005
SP_SIGMAS = 4.0
COST_TOL = 1e-9


def _write_json(path: Path, data) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _floats(values) -> str:
    """Comma-separated floats; pass as ``--flag=value`` so a leading minus
    sign is not read as an option."""
    return ",".join(repr(v) for v in values)


def _edges_arg(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges)


def _complete_hamiltonian(rng: random.Random, n: int) -> dict:
    zz = [{"i": i, "j": j, "coeff": rng.uniform(-1.0, 1.0)}
          for i in range(n - 1) for j in range(i + 1, n)]
    return {"n": n, "zz": zz, "z": [], "constant": 0.0}


def _maxcut_hamiltonian(n: int, edges) -> dict:
    return {"n": n, "zz": [{"i": u, "j": v, "coeff": 0.5} for u, v in edges], "z": [],
            "constant": -0.5 * len(edges)}


def _angles(rng: random.Random, p: int):
    return [rng.uniform(0.2, 0.9) for _ in range(p)], [rng.uniform(0.2, 0.9) for _ in range(p)]


# ---------------------------------------------------------------------------
# inputs


def make_inputs(api, workload: str, seed: int, root: Path) -> dict:
    """Write the workload's input files under `root`; return their description.

    The same seed gives byte-identical files.
    """
    rng = random.Random(f"{workload}:{seed}")
    inp: dict = {"load": []}  # (kind, path) of each file a cold start parses
    if workload == "dense-chain":
        graph = api.builtin_device(DEVICE)
        device = api.graph_to_dict(graph)
        device["calibration"] = {
            "qubits": [{"readout_error": rng.uniform(0.005, 0.05),
                        "sq_error": rng.uniform(1e-4, 1e-3)} for _ in range(graph.num_qubits)],
            "edges": [{"pair": list(e), "error": rng.uniform(0.003, 0.03)}
                      for e in device["edges"]],
        }
        inp["device"] = _write_json(root / "device.json", device)
        inp["load"].append(("device", inp["device"]))
        inp["qaoa"] = []
        for n in (7, 9, 11, 13):
            path = _write_json(root / f"qaoa-n{n}.json", _complete_hamiltonian(rng, n))
            inp["qaoa"].append({"n": n, "hamiltonian": path, "angles": _angles(rng, 2)})
            inp["load"].append(("hamiltonian", path))
        inp["vqe"] = {"n": 11, "p": 2,
                      "thetas": [rng.uniform(-math.pi, math.pi) for _ in range(33)]}
    elif workload == "partial-search":
        inp["graphs"] = []
        for n, m, strategy in ((8, 16, "exhaustive"), (8, 20, "exhaustive"), (11, 25, "sampled")):
            pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
            edges = sorted(rng.sample(pairs, m))
            path = _write_json(root / f"maxcut-n{n}-m{m}.json", _maxcut_hamiltonian(n, edges))
            inp["graphs"].append({"n": n, "edges": edges, "strategy": strategy,
                                  "angles": _angles(rng, 1), "seed": rng.randrange(1 << 30)})
            inp["load"].append(("hamiltonian", path))
    elif workload == "noisy-sp":
        tri = [(0, 1), (0, 2), (1, 2)]
        inp["triangle"] = {
            "hamiltonian": _write_json(root / "triangle.json", _maxcut_hamiltonian(3, tri)),
            "edges": tri,
            "depths": [{"p": p, "angles": _angles(rng, p), "shots": 1000,
                        "seed": rng.randrange(1 << 30)} for p in (1, 2, 3)],
        }
        inp["dense"] = {"hamiltonian": _write_json(root / "dense-n6.json",
                                                   _complete_hamiltonian(rng, 6)),
                        "p": 1, "angles": _angles(rng, 1), "shots": 300,
                        "seed": rng.randrange(1 << 30)}
        inp["load"] += [("hamiltonian", inp["triangle"]["hamiltonian"]),
                        ("hamiltonian", inp["dense"]["hamiltonian"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """One closed-loop pass: program calls one after another, each timed into
    a stage, and the checks on their outputs.

    Every program call and every check is one attempted operation; a call
    fails on a nonzero exit or an exception, a check when its condition
    does not hold. The reference kernel of `calibrate.py` runs, untimed,
    before each call; `kernel_s` is its total time over the pass.
    """

    def __init__(self, api, out: Path):
        self.api = api
        self.out = out
        # (stage, seconds, seconds of the kernel run right before) per program call
        self.op_s: list[tuple[str, float, float]] = []
        self.kernel_s = 0.0
        self.kernels = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.sample_shots = 0

    def _calibrate(self) -> float:
        gc.collect()
        took = calibrate.kernel()
        self.kernel_s += took
        self.kernels += 1
        return took

    def cli(self, stage: str, argv) -> bool:
        self.attempted += 1
        kernel_s = self._calibrate()
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.api.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a traceback out of main is a failed operation, not a crash
            code = traceback.format_exc(limit=3)
        self.op_s.append((stage, perf_counter() - t0, kernel_s))
        if code != 0:
            command = " ".join(map(str, argv[:3]))
            self.failures.append(f"{command}: exit {code} {err.getvalue().strip()}")
            return False
        return True

    def call(self, stage: str, fn, *args, **kwargs):
        self.attempted += 1
        kernel_s = self._calibrate()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{stage}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.op_s.append((stage, perf_counter() - t0, kernel_s))

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def outdir(self, name: str) -> str:
        return str(self.out / "cli" / name)


def _route_args(p: Pass, label: str):
    return ["--label", label, "--out-dir", p.outdir(f"route-{label}")]


def _select(p: Pass, inp: dict, label: str, base: str):
    out = p.outdir(f"select-{label}")
    p.cli("select", ["select", "--circuit", f"{base}.circuit.json", "--report",
                     f"{base}.report.json", "--device", inp["device"],
                     "--out", f"{out}/result.json", "--out-dir", out])


def _verify(p: Pass, label: str, base: str):
    out = p.outdir(f"verify-{label}")
    p.cli("verify", ["verify", "--circuit", f"{base}.circuit.json", "--report",
                     f"{base}.report.json", "--out", f"{out}/result.json", "--out-dir", out])


def _routed(p: Pass, label: str, kinds):
    return [(f"{label}-{kind}", os.path.join(p.outdir(f"route-{label}"), f"{label}-{kind}"))
            for kind in kinds]


def run_dense_chain(p: Pass, inp: dict):
    jobs = []
    for q in inp["qaoa"]:
        label = f"qaoa-n{q['n']}"
        gammas, betas = q["angles"]
        p.cli("route", ["route", "--hamiltonian", q["hamiltonian"], "--p", 2,
                        "--gammas=" + _floats(gammas), "--betas=" + _floats(betas),
                        "--subtopology", "all", *_route_args(p, label)])
        jobs.append(_routed(p, label, ("linear", "t", "h")))
    v = inp["vqe"]
    label = f"vqe-n{v['n']}"
    p.cli("route", ["route", "--vqe", "--n", v["n"], "--p", v["p"],
                    "--thetas=" + _floats(v["thetas"]), "--subtopology", "linear",
                    *_route_args(p, label)])
    jobs.append(_routed(p, label, ("linear",)))
    for routed in jobs:
        for name, base in routed:
            _select(p, inp, name, base)
            _verify(p, name, base)


def run_partial_search(p: Pass, inp: dict):
    for k, g in enumerate(inp["graphs"]):
        label = f"maxcut-{k}"
        gammas, betas = g["angles"]
        argv = ["route", "--maxcut-edges", _edges_arg(g["edges"]), "--n", g["n"], "--p", 1,
                "--gammas=" + _floats(gammas), "--betas=" + _floats(betas),
                "--order-strategy", g["strategy"], "--seed", g["seed"], *_route_args(p, label)]
        if g["strategy"] == "sampled":
            argv += ["--samples", 5000]
        p.cli("route", argv)
        for name, base in _routed(p, label, ("linear",)):
            _verify(p, name, base)


def _noisy_variant(p: Pass, label: str, problem_args, depth: int, angles, shots: int, seed: int):
    gammas, betas = angles
    p.cli("route", ["route", *problem_args, "--p", depth, "--gammas=" + _floats(gammas),
                    "--betas=" + _floats(betas), *_route_args(p, label)])
    ((name, base),) = _routed(p, label, ("linear",))
    _verify(p, name, base)
    api = p.api
    circuit = p.call("prepare", lambda: api.decompose_to_basis(
        api.circuit_from_dict(_read_json(f"{base}.circuit.json"))))
    counts = p.call("sample", api.sample, circuit, shots, api.NoiseModel(NOISE_EPS), seed=seed)
    p.sample_shots += shots
    path = p.out / "counts" / f"{label}.json"
    p.call("prepare", _write_json, path, counts)
    return str(path)


def run_noisy_sp(p: Pass, inp: dict):
    tri = inp["triangle"]
    files = [_noisy_variant(p, f"tri-p{d['p']}", ["--maxcut-edges", _edges_arg(tri["edges"]),
                                                   "--n", 3], d["p"], d["angles"], d["shots"],
                            d["seed"])
             for d in tri["depths"]]
    p.cli("postselect", ["postselect", *files, "--hamiltonian", tri["hamiltonian"], "--brute-force",
                         "--out", p.outdir("postselect-tri") + "/result.json",
                         "--out-dir", p.outdir("postselect-tri")])
    dense = inp["dense"]
    path = _noisy_variant(p, "dense-n6", ["--hamiltonian", dense["hamiltonian"]], dense["p"],
                          dense["angles"], dense["shots"], dense["seed"])
    p.cli("postselect", ["postselect", path, "--hamiltonian", dense["hamiltonian"], "--brute-force",
                         "--out", p.outdir("postselect-dense") + "/result.json",
                         "--out-dir", p.outdir("postselect-dense")])


# ---------------------------------------------------------------------------
# checks; they read what the pass wrote and run outside the timed region


def _check_verifies(p: Pass, expected: int):
    results = sorted((p.out / "cli").glob("verify-*/result.json"))
    p.check(len(results) == expected, f"{len(results)} verify results, expected {expected}")
    for path in results:
        status = _read_json(path).get("status")
        p.check(status == "pass", f"{path.parent.name}: status {status}")


def _longhand_tallies(circuit: dict):
    """Basis-gate tallies of a routed circuit, expanded by hand:
    single-qubit gates per position and CX per position pair."""
    sq: dict = defaultdict(int)
    cx: dict = defaultdict(int)
    for g in circuit["gates"]:
        qs = g["qubits"]
        if len(qs) == 1:
            sq[qs[0]] += 1
            continue
        a, b = qs
        pair = (min(a, b), max(a, b))
        n_cx, singles = {"cx": (1, ()), "cz": (1, (b, b)), "swap": (3, ()), "zz": (2, (b,)),
                         "zzswap": (3, (b,)), "czswap": (2, (b, a))}[g["kind"]]
        cx[pair] += n_cx
        for q in singles:
            sq[q] += 1
    return sq, cx


def _longhand_layouts(tmpl_edges, n: int, adjacency: dict):
    """Every injective map of template positions onto device qubits that
    keeps template edges, by plain backtracking."""
    earlier = [[a if b == pos else b for a, b in tmpl_edges if pos in (a, b) and min(a, b) < pos]
               for pos in range(n)]
    out = []
    assign: list[int] = []

    def extend():
        pos = len(assign)
        if pos == n:
            out.append(tuple(assign))
            return
        for q in sorted(adjacency):
            if q not in assign and all(q in adjacency[assign[a]] for a in earlier[pos]):
                assign.append(q)
                extend()
                assign.pop()

    extend()
    return out


def _longhand_cost(layout, sq, cx, cal) -> float:
    keep = 1.0
    for pos, k in sq.items():
        keep *= (1.0 - cal["sq"][layout[pos]]) ** k
    for (a, b), k in cx.items():
        u, v = layout[a], layout[b]
        keep *= (1.0 - cal["edge"][(min(u, v), max(u, v))]) ** k
    for pos in range(len(layout)):
        keep *= 1.0 - cal["readout"][layout[pos]]
    return 1.0 - keep


def check_dense_chain(p: Pass, inp: dict, cache: dict):
    api = p.api
    if "cal" not in cache:
        dev = _read_json(inp["device"])
        c = dev["calibration"]
        cache["cal"] = {"sq": [q["sq_error"] for q in c["qubits"]],
                        "readout": [q["readout_error"] for q in c["qubits"]],
                        "edge": {(min(e["pair"]), max(e["pair"])): e["error"] for e in c["edges"]}}
        adjacency: dict = {q: set() for q in range(dev["num_qubits"])}
        for u, v in dev["edges"]:
            adjacency[u].add(v)
            adjacency[v].add(u)
        cache["adjacency"] = adjacency
        cache["graph"], _ = api.device_from_dict(dev)
        cache["layouts"] = {}
    for sel in sorted((p.out / "cli").glob("select-*/result.json")):
        name = sel.parent.name[len("select-"):]
        label = name.rsplit("-", 1)[0]
        result = _read_json(sel)
        circuit = _read_json(Path(p.outdir(f"route-{label}")) / f"{name}.circuit.json")
        tmpl = api.template(result["template"], circuit["n"])
        p.check(api.layout_respects(tmpl, cache["graph"], result["layout"]),
                f"{name}: selected layout {result['layout']} breaks the template")
        key = (tmpl.kind, tmpl.n)
        if key not in cache["layouts"]:
            cache["layouts"][key] = _longhand_layouts(tmpl.edges, tmpl.n, cache["adjacency"])
        sq, cx = _longhand_tallies(circuit)
        best = min(_longhand_cost(l, sq, cx, cache["cal"]) for l in cache["layouts"][key])
        p.check(abs(result["cost"] - best) <= COST_TOL,
                f"{name}: selected cost {result['cost']!r} != longhand minimum {best!r}")
    selected = len(list((p.out / "cli").glob("select-*/result.json")))
    p.check(selected == 13, f"{selected} selected layouts, expected 13")
    _check_verifies(p, 13)


def check_partial_search(p: Pass, inp: dict, cache: dict):
    for k, g in enumerate(inp["graphs"]):
        label = f"maxcut-{k}"
        report = Path(p.outdir(f"route-{label}")) / f"{label}-linear.report.json"
        cx = _read_json(report)["cx_count"] if report.exists() else -1
        p.check(cx >= 2 * len(g["edges"]), f"{label}: cx {cx} below the 2|E| floor")
    _check_verifies(p, len(inp["graphs"]))


def _dm_success_probability(oracles, circuit, h: dict) -> float:
    """Probability of an optimal cut under the density-matrix reference."""
    probs = oracles.dm_logical_probs(circuit, NOISE_EPS, NOISE_EPS / 10)
    n = h["n"]
    spin = [[1 - 2 * ((x >> k) & 1) for k in range(n)] for x in range(1 << n)]
    energy = [h["constant"] + sum(t["coeff"] * z[t["i"]] * z[t["j"]] for t in h["zz"])
              for z in spin]
    best = min(energy)
    return sum(float(probs[x]) for x in range(1 << n) if abs(energy[x] - best) < 1e-9)


def check_noisy_sp(p: Pass, inp: dict, cache: dict):
    api = p.api
    variants = [(f"tri-p{d['p']}", d["shots"]) for d in inp["triangle"]["depths"]]
    for label, shots in variants + [("dense-n6", inp["dense"]["shots"])]:
        path = p.out / "counts" / f"{label}.json"
        counts = _read_json(path) if path.exists() else None
        total = sum(counts.values()) if isinstance(counts, dict) else -1
        p.check(total == shots, f"{label}: counts sum to {total}, expected {shots}")
    if "oracles" not in cache:
        cache["oracles"] = load_oracles(Path(inp["repo"]))
        cache["dm_sp"] = {}
    h = _read_json(inp["triangle"]["hamiltonian"])
    result_path = Path(p.outdir("postselect-tri")) / "result.json"
    rows = _read_json(result_path)["variants"] if result_path.exists() else []
    p.check(len(rows) == len(variants), "postselect-tri: missing variants")
    for (label, shots), row in zip(variants, rows):
        if label not in cache["dm_sp"]:
            base = Path(p.outdir(f"route-{label}")) / f"{label}-linear"
            routed = api.circuit_from_dict(_read_json(f"{base}.circuit.json"))
            circuit = api.decompose_to_basis(routed)
            cache["dm_sp"][label] = _dm_success_probability(cache["oracles"], circuit, h)
        want = cache["dm_sp"][label]
        sigma = math.sqrt(want * (1 - want) / shots)
        p.check(abs(row["sp"] - want) <= SP_SIGMAS * sigma + 1e-9,
                f"{label}: SP {row['sp']} is more than {SP_SIGMAS} sigma from the "
                f"density-matrix {want:.4f}")
    _check_verifies(p, len(variants) + 1)


def load_oracles(repo: Path):
    """The test suite's density-matrix oracle, loaded read-only by path."""
    path = repo / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("aoqmap_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = {
    "dense-chain": (run_dense_chain, check_dense_chain),
    "partial-search": (run_partial_search, check_partial_search),
    "noisy-sp": (run_noisy_sp, check_noisy_sp),
}


# ---------------------------------------------------------------------------
# exact outputs of a pass


def pass_outputs(out: Path) -> dict:
    """Exact values that must repeat for the same code and seed: routed CX and
    depth, CLI bytes written, and a digest of every artifact, counts file
    and result except the timestamped manifests."""
    cx = depth = written = 0
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(out).as_posix()
        if rel.startswith("cli/"):
            written += path.stat().st_size
        if path.name.endswith(".manifest.json"):
            continue
        data = path.read_bytes()
        digest.update(rel.encode() + b"\0" + data + b"\0")
        if path.name.endswith(".report.json"):
            report = json.loads(data)
            cx += report["cx_count"]
            depth += report["depth"]
    return {"routed_cx": cx, "routed_depth": depth, "cli.bytes_written": written,
            "digest": digest.hexdigest()}
