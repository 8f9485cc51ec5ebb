"""Command-line surface: route, layouts, select, verify, compare, postselect.

Exit codes: 0 success (including documented skips), 1 verification failure,
2 input error. Every run writes a manifest next to its outputs; given the
same inputs and seed, reruns are byte-identical except for the manifest
timestamp. The seed flag falls back to the AOQMAP_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .circuits import circuit_from_dict, circuit_to_dict, decompose_to_basis, emit_qasm, gate_counts
from .hamiltonians import (ProblemHamiltonian, QaoaParams, brute_force_extrema,
                           build_maxcut_hamiltonian, build_portfolio_hamiltonian, counts_from_json,
                           energy, expectation, hamiltonian_from_dict, hamiltonian_to_dict,
                           is_feasible, metrics, portfolio_spec_from_dict)
from .routing import (route_qaoa_linear, route_qaoa_partial, route_qaoa_subtop, route_vqe_linear,
                      swapnk_baseline)
from .selection import cheapest, device_from_dict, postselect, score_layouts, select_layout
from .sim import SIMULATOR_QUBIT_CAP, reference_circuit, verify
from .topology import builtin_device, enumerate_layouts, graph_from_dict, template

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2

DEFAULT_GAMMA = 0.8
DEFAULT_BETA = 0.35


class CliError(Exception):
    """Invalid input; reported on stderr with exit code 2."""


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("AOQMAP_SEED")
    return int(env) if env else 0


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object")
    return data


def _load(path: str, loader):
    """`loader` applied to the JSON in `path`; its errors name the file."""
    data = _read_json(path)
    try:
        return loader(data)
    except KeyError as exc:
        raise CliError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_manifest(out_dir: str, command: str, inputs, seed, artifacts) -> str:
    manifest = {
        "command": command,
        "inputs": sorted(inputs),
        "seed": seed,
        "version": __version__,
        "artifacts": sorted(artifacts),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return _write_json(os.path.join(out_dir, f"{command}.manifest.json"), manifest)


def _finish(args, result, text: str, artifacts=()) -> None:
    """Common tail of every command: the optional --out file, the manifest,
    then `result` as JSON (--json) or `text` on stdout."""
    os.makedirs(args.out_dir, exist_ok=True)
    artifacts = list(artifacts)
    if getattr(args, "out", None):
        artifacts.append(_write_json(args.out, result))
    _write_manifest(args.out_dir, args.command, _input_paths(args), _resolve_seed(args), artifacts)
    print(json.dumps(result, indent=2, sort_keys=True) if args.json else text)


def _parse_floats(flag: str, text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise CliError(f"{flag} expects comma-separated finite floats, got {text!r}")


def _parse_edges(text: str):
    edges = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            u, v = item.split("-")
            edges.append((int(u), int(v)))
        except ValueError:
            raise CliError(f"bad edge {item!r}; use the form 0-1,1-2") from None
    return edges


def _complete_hamiltonian(n: int) -> ProblemHamiltonian:
    zz = tuple((i, j, 1.0) for i in range(n - 1) for j in range(i + 1, n))
    return ProblemHamiltonian(n, zz)


def _load_device(spec: str):
    if spec.startswith("builtin:"):
        return builtin_device(spec.split(":", 1)[1]), None
    return _load(spec, device_from_dict)


def _problem_from_args(args):
    chosen = [name for name, val in (
        ("--vqe", args.vqe), ("--qaoa", args.qaoa is not None),
        ("--maxcut-edges", args.maxcut_edges is not None),
        ("--portfolio-spec", args.portfolio_spec is not None),
        ("--hamiltonian", args.hamiltonian is not None)) if val]
    if len(chosen) != 1:
        raise CliError(f"pick exactly one problem source, got {chosen or 'none'}")
    if args.vqe:
        if args.n is None:
            raise CliError("--vqe needs --n")
        return "vqe", None
    if args.qaoa is not None:
        if args.qaoa != "full":
            raise CliError("--qaoa currently supports only 'full'")
        if args.n is None:
            raise CliError("--qaoa full needs --n")
        return "qaoa", _complete_hamiltonian(args.n)
    if args.maxcut_edges is not None:
        edges = _parse_edges(args.maxcut_edges)
        n = args.n if args.n is not None else (max(max(e) for e in edges) + 1 if edges else 0)
        return "maxcut", build_maxcut_hamiltonian(edges, n)
    if args.portfolio_spec is not None:
        spec = _load(args.portfolio_spec, portfolio_spec_from_dict)
        return "portfolio", build_portfolio_hamiltonian(spec)
    return "hamiltonian", _load(args.hamiltonian, hamiltonian_from_dict)


def _route_one(kind, mode, h, args, params, thetas, seed):
    if mode == "vqe":
        if kind != "linear":
            raise CliError("VQE routing targets the linear subtopology")
        return route_vqe_linear(args.n, args.p, thetas)
    if kind == "swapnk":
        return swapnk_baseline(h, params)
    if not h.is_complete():
        return route_qaoa_partial(h, params, kind=kind, strategy=args.order_strategy,
                                  samples=args.samples, seed=seed)
    if kind == "linear":
        return route_qaoa_linear(h, params, mirror=args.mirror)
    return route_qaoa_subtop(h, params, kind, mirror=args.mirror)


def cmd_route(args) -> int:
    seed = _resolve_seed(args)
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}")
    if args.p < 1:
        raise CliError(f"--p must be at least 1, got {args.p}")
    mode, h = _problem_from_args(args)
    p = args.p
    thetas = None
    params = None
    if mode == "vqe":
        thetas = (_parse_floats("--thetas", args.thetas) if args.thetas
                  else tuple(0.1 * (k + 1) for k in range((p + 1) * args.n)))
        if len(thetas) != (p + 1) * args.n:
            raise CliError(f"--thetas needs (p+1)*n = {(p + 1) * args.n} values")
    else:
        gammas = _parse_floats("--gammas", args.gammas) if args.gammas else (DEFAULT_GAMMA,) * p
        betas = _parse_floats("--betas", args.betas) if args.betas else (DEFAULT_BETA,) * p
        if len(gammas) != p or len(betas) != p:
            raise CliError(f"--gammas/--betas need exactly p = {p} values")
        params = QaoaParams(gammas, betas)

    if args.subtopology == "all":
        kinds = ["linear", "t", "h"]
    else:
        kinds = [args.subtopology]
    if args.baseline:
        kinds.append("swapnk")

    os.makedirs(args.out_dir, exist_ok=True)
    stem = args.label or "route"
    artifacts = []
    summaries = []
    for kind in kinds:
        routed = _route_one(kind, mode, h, args, params, thetas, seed)
        rep = routed.report
        base = os.path.join(args.out_dir, f"{stem}-{kind}")
        qasm_path = f"{base}.qasm"
        with open(qasm_path, "w", encoding="utf-8") as fh:
            fh.write(emit_qasm(decompose_to_basis(routed.circuit)))
        circ_path = _write_json(f"{base}.circuit.json", circuit_to_dict(routed.circuit))
        report = {
            "router": kind,
            "template_kind": routed.template.kind,
            "schedule_kind": routed.schedule_kind,
            "mode": mode,
            "n": routed.circuit.n,
            "p": p,
            "mirror": bool(args.mirror),
            "swap_count": rep.swap_count,
            "cx_count": rep.cx_count,
            "depth": rep.depth,
            "final_order": list(rep.final_order),
            "initial_order": list(rep.initial_order),
            "zz_gates_placed": rep.zz_gates_placed,
            "consumed_layers": rep.consumed_layers,
            "strategy": rep.strategy,
            "seed": seed,
            "params": ({"thetas": list(thetas)} if mode == "vqe"
                       else {"gammas": list(params.gammas), "betas": list(params.betas)}),
        }
        if h is not None:
            report["problem"] = hamiltonian_to_dict(h)
        report_path = _write_json(f"{base}.report.json", report)
        artifacts += [qasm_path, circ_path, report_path]
        summaries.append(report)
    text = "\n".join(f"{s['router']:7s} n={s['n']} p={s['p']} swaps={s['swap_count']} "
                     f"cx={s['cx_count']} depth={s['depth']} final_order={s['final_order']}"
                     for s in summaries)
    _finish(args, summaries, text, artifacts)
    return EXIT_OK


def _input_paths(args) -> list[str]:
    out = []
    for attr in ("hamiltonian", "portfolio_spec", "circuit", "report", "device"):
        val = getattr(args, attr, None)
        if val and not str(val).startswith("builtin:"):
            out.append(str(val))
    for val in getattr(args, "counts", []) or []:
        out.append(str(val))
    for val in getattr(args, "reports", []) or []:
        out.append(str(val))
    return out


def cmd_layouts(args) -> int:
    graph, _ = _load_device(args.device)
    tmpl = template(args.template, args.n)
    layouts = enumerate_layouts(tmpl, graph)
    result = {
        "device": args.device,
        "template": args.template,
        "n": args.n,
        "count": len(layouts),
        "layouts": [list(l) for l in layouts],
    }
    text = f"{args.template}-{args.n} on {args.device}: {len(layouts)} layouts"
    if not layouts:
        text += "\ntemplate not embeddable (count 0)"
    _finish(args, result, text)
    return EXIT_OK


def cmd_select(args) -> int:
    circuit = _load(args.circuit, circuit_from_dict)
    graph, cal = _load_device(args.device)
    if cal is None:
        raise CliError(f"device {args.device} carries no calibration block")
    kind = args.template
    if kind is None:
        if args.report is None:
            raise CliError("pass --template or --report to identify the subtopology")
        kind = _load(args.report, lambda report: report["template_kind"])
    tmpl = template(kind, circuit.n)
    try:
        tmpl.check_gates(circuit.gates)
    except ValueError as exc:
        raise CliError(f"{args.circuit}: {exc}") from None
    if args.table:
        reports = score_layouts(circuit, tmpl, graph, cal)
        best = cheapest(reports)
    else:
        _, best = select_layout(circuit, tmpl, graph, cal)
    result = {
        "template": kind,
        "n": circuit.n,
        "layout": list(best.layout),
        "cost": best.cost,
        "gate_error_product": best.gate_error_product,
        "measurement_error_product": best.measurement_error_product,
    }
    if args.table:
        result["table"] = [{"layout": list(r.layout), "cost": r.cost} for r in reports]
    _finish(args, result, f"layout {list(best.layout)} cost {best.cost:.6g}")
    return EXIT_OK


def _reference_from_report(report: dict):
    params = report.get("params", {})
    if report.get("mode") == "vqe":
        return reference_circuit(report["n"], kind="vqe", thetas=params["thetas"])
    h = hamiltonian_from_dict(report["problem"])
    return reference_circuit(h, QaoaParams(params["gammas"], params["betas"]))


def cmd_verify(args) -> int:
    circuit = _load(args.circuit, circuit_from_dict)
    reference = _load(args.report, _reference_from_report)
    if circuit.n > SIMULATOR_QUBIT_CAP:
        result = {"status": "skipped",
                  "reason": f"n={circuit.n} exceeds the exact-simulation cap "
                            f"({SIMULATOR_QUBIT_CAP}); routed structure is size-independent"}
        _finish(args, result, f"verification skipped: {result['reason']}")
        return EXIT_OK
    outcome = verify(circuit, reference)
    result = {
        "status": "pass" if outcome.passed else "fail",
        "hellinger": outcome.hellinger,
        "fidelity": outcome.fidelity,
    }
    _finish(args, result, f"{result['status']}: hellinger={outcome.hellinger:.3e} "
                          f"fidelity={outcome.fidelity:.12f}")
    return EXIT_OK if outcome.passed else EXIT_VERIFY_FAIL


def _compare_fields(report: dict) -> dict:
    fields = {key: report[key] for key in ("router", "swap_count", "cx_count", "depth")}
    return {"problem": report.get("problem"), **fields}


def cmd_compare(args) -> int:
    reports = [(path, _load(path, _compare_fields)) for path in args.reports]
    if len(reports) < 2:
        raise CliError("compare needs at least two report files")
    problems = {json.dumps(r.get("problem"), sort_keys=True) for _, r in reports}
    if len(problems) > 1:
        raise CliError("reports describe different problems; compare like with like")
    if args.baseline:
        base = next((r for p, r in reports if p == args.baseline), None)
    else:
        base = next((r for _, r in reports if r["router"] == "swapnk"), None)
    if base is None:
        raise CliError("no baseline report (router 'swapnk' or --baseline path)")

    def reduction(val, ref):
        return 100.0 * (1.0 - val / ref) if ref else 0.0

    rows = []
    for path, rep in reports:
        if rep is base:
            continue
        rows.append({
            "report": path,
            "router": rep["router"],
            "swap_reduction_pct": reduction(rep["swap_count"], base["swap_count"]),
            "cx_reduction_pct": reduction(rep["cx_count"], base["cx_count"]),
            "depth_reduction_pct": reduction(rep["depth"], base["depth"]),
        })
    result = {"baseline": base["router"], "rows": rows}
    text = "\n".join(f"{row['router']:8s} swap {row['swap_reduction_pct']:6.1f}%  "
                     f"cx {row['cx_reduction_pct']:6.1f}%  depth {row['depth_reduction_pct']:6.1f}%"
                     for row in rows)
    _finish(args, result, text)
    return EXIT_OK


def cmd_postselect(args) -> int:
    h = _load(args.hamiltonian, hamiltonian_from_dict)
    variants = []
    for path in args.counts:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                counts = counts_from_json(fh.read())
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
        for bits in counts:
            if len(bits) != h.n:
                raise CliError(f"{path}: bitstring length {len(bits)} != n {h.n}")
            if not set(bits) <= {"0", "1"}:
                raise CliError(f"{path}: bitstring {bits!r} has characters other than 0 and 1")
        variants.append((path, counts))
    label, value = postselect(variants, h)

    f_opt = f_max = None
    optimal = None
    if args.brute_force:
        f_opt, f_max, optimal = brute_force_extrema(h)
    elif args.opt is not None and args.max is not None:
        f_opt, f_max = args.opt, args.max

    per_variant = []
    for path, counts in variants:
        entry = {"label": path, "expectation": expectation(h, counts)}
        if f_opt is not None:
            if optimal is None:
                hits = tuple(b for b in counts
                             if is_feasible(h, b) and abs(energy(h, b) - f_opt) < 1e-9)
            else:
                hits = optimal
            rep = metrics(h, counts, f_opt, f_max, hits)
            entry["ar"] = rep.ar
            entry["sp"] = rep.sp
        per_variant.append(entry)
    result = {"chosen": label, "expectation": value, "variants": per_variant}
    if f_opt is not None:
        result["f_opt"] = f_opt
        result["f_max"] = f_max
    _finish(args, result, f"chosen {label} expectation {value:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aoqmap",
                                     description="Route variational circuits onto linear/T/H "
                                                 "subtopologies, select qubits, and verify.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--json", action="store_true", help="machine-readable stdout")
        sp.add_argument("--out-dir", default=".", help="directory for artifacts and manifest")

    rt = sub.add_parser("route", help="compile a problem onto subtopology templates")
    rt.add_argument("--qaoa", choices=["full"], default=None,
                    help="fully connected QAOA instance (unit couplings)")
    rt.add_argument("--vqe", action="store_true", help="fully entangled VQE ansatz")
    rt.add_argument("--maxcut-edges", default=None, help="edge list like 0-1,1-2,2-3")
    rt.add_argument("--portfolio-spec", default=None, help="portfolio spec JSON path")
    rt.add_argument("--hamiltonian", default=None, help="problem Hamiltonian JSON path")
    rt.add_argument("--n", type=int, default=None)
    rt.add_argument("--p", type=int, default=1)
    rt.add_argument("--gammas", default=None)
    rt.add_argument("--betas", default=None)
    rt.add_argument("--thetas", default=None)
    rt.add_argument("--subtopology", choices=["linear", "t", "h", "all"], default="linear")
    rt.add_argument("--mirror", action="store_true", help="alternate mirrored swap layers")
    rt.add_argument("--baseline", action="store_true", help="also emit the swap-network baseline")
    rt.add_argument("--order-strategy", choices=["exhaustive", "sampled"], default="exhaustive")
    rt.add_argument("--samples", type=int, default=5000)
    rt.add_argument("--label", default=None)
    common(rt)
    rt.set_defaults(func=cmd_route)

    ly = sub.add_parser("layouts", help="enumerate template layouts on a device")
    ly.add_argument("--device", default="builtin:27q-heavy-hex")
    ly.add_argument("--template", choices=["linear", "t", "h"], required=True)
    ly.add_argument("--n", type=int, required=True)
    ly.add_argument("--out", default=None)
    common(ly)
    ly.set_defaults(func=cmd_layouts)

    se = sub.add_parser("select", help="pick the lowest-cost layout from calibration data")
    se.add_argument("--circuit", required=True)
    se.add_argument("--device", required=True)
    se.add_argument("--template", choices=["linear", "t", "h"], default=None)
    se.add_argument("--report", default=None)
    se.add_argument("--table", action="store_true", help="include the per-layout cost table")
    se.add_argument("--out", default=None)
    common(se)
    se.set_defaults(func=cmd_select)

    ve = sub.add_parser("verify", help="check a routed circuit against its reference")
    ve.add_argument("--circuit", required=True)
    ve.add_argument("--report", required=True)
    ve.add_argument("--out", default=None)
    common(ve)
    ve.set_defaults(func=cmd_verify)

    cp = sub.add_parser("compare", help="reduction percentages against a baseline report")
    cp.add_argument("reports", nargs="+")
    cp.add_argument("--baseline", default=None, help="path of the baseline report")
    cp.add_argument("--out", default=None)
    common(cp)
    cp.set_defaults(func=cmd_compare)

    ps = sub.add_parser("postselect", help="choose the variant with minimal expectation")
    ps.add_argument("counts", nargs="+", help="counts JSON files")
    ps.add_argument("--hamiltonian", required=True)
    ps.add_argument("--brute-force", action="store_true")
    ps.add_argument("--opt", type=float, default=None)
    ps.add_argument("--max", type=float, default=None)
    ps.add_argument("--out", default=None)
    common(ps)
    ps.set_defaults(func=cmd_postselect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
