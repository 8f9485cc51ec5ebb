"""Closed-loop benchmark of aoqmap's route -> select -> verify chain and noisy sampling.

Run from the repository root:

    python3 bench/run.py --workload dense-chain --seed 1 --seconds 30 --trace 0

One process, one caller, requests one after another, BLAS threads pinned
to 1. The seed makes the inputs; passes over them repeat until `--seconds`
of pass time is spent. Times are reported in reference seconds: measured
seconds divided by how much slower than its reference time a fixed kernel
ran right before them (calibrate.py). `--trace 0` prints the end-to-end metrics,
`--trace 1` wraps the package's public functions in spans and prints the
per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Scratch files, per-run results and the exact-repeat record live
in `.bench_work/` at the repository root. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from spans import IDLE_TIMINGS, LAYER_UNITS, Tracer, layer_metrics

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS = 5

# Fresh interpreter: import the package the way the CLI does and parse the
# workload's inputs with its loaders.
COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import aoqmap.cli
from aoqmap import device_from_dict, hamiltonian_from_dict
for kind, path in json.loads(sys.argv[2]):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    (device_from_dict if kind == "device" else hamiltonian_from_dict)(data)
"""

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "route_s": "s", "verify_s": "s",
    "routed_cx": "count", "routed_depth": "count", "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics but kept out of the result line: the
# first two are 0 on workloads without that stage, and failures are carried
# by the result line's `attempted` and `failed`.
PRINTED_ONLY = {"select_s": "s", "sample_shots_per_s": "1/s", "error_rate": "ratio"}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PRINTED_ONLY.get(name) or LAYER_UNITS[name]


def is_timing(name: str) -> bool:
    return unit_of(name) in ("s", "ms", "us")


def call_time(passes, stage=None) -> float:
    """Sum over a pass's program calls, optionally only those of one stage,
    of each call's median time across passes in reference seconds. Each
    call is scaled by the kernel run right before it, which meets the same
    burst of host speed as the call (see calibrate.py)."""
    per_call = zip(*(rec["op_s"] for rec in passes))
    return sum(statistics.median(t / calibrate.speed_factor(k, 1) for _, t, k in call)
               for call in per_call if stage is None or call[0][0] == stage)


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted([*(root / "src" / "aoqmap").rglob("*.py"), *(root / "bench").glob("*.py")]):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path):
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def cold_start(root: Path, inp: dict) -> tuple[float, float]:
    """One cold start's time and the speed factor of the kernels run
    right before and after it."""
    kernel_s = calibrate.kernel() + calibrate.kernel()
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, str(root / "src"), json.dumps(inp["load"])],
                   check=True, cwd=root)
    took = perf_counter() - t0
    kernel_s += calibrate.kernel() + calibrate.kernel()
    return took, calibrate.speed_factor(kernel_s, 4)


def run_passes(api, root: Path, workload: str, inp: dict, seconds: float, work: Path, tracer):
    """Passes until `seconds` of pass time is spent, with one cold start
    before each; returns the pass records and the cold-start times."""
    run, check = workloads.WORKLOADS[workload]
    cache: dict = {}
    passes, setups = [], []
    spent = 0.0
    while not passes or spent < seconds:
        setups.append(cold_start(root, inp))
        out = work / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        p = workloads.Pass(api, out)
        if tracer is not None:
            tracer.reset()
        run(p, inp)
        wall = sum(t for _, t, _ in p.op_s)
        spent += wall
        rec = {"wall_s": wall, "speed": calibrate.speed_factor(p.kernel_s, p.kernels),
               "exact": workloads.pass_outputs(out)}
        if tracer is not None:  # before the checks, whose own calls are traced too
            rec["layers"] = layer_metrics(tracer.summary(), tracer.counts,
                                          rec["exact"]["cli.bytes_written"])
            rec["exact"].update({k: v for k, v in rec["layers"].items() if not is_timing(k)})
            rec["spans"] = tracer.dump()
        try:
            check(p, inp, cache)
        except Exception:  # output too malformed to check: one failed check
            p.check(False, f"checks raised {traceback.format_exc(limit=3)}")
        rec.update(op_s=p.op_s, shots=p.sample_shots,
                   attempted=p.attempted, failures=p.failures)
        passes.append(rec)
    while len(setups) < MIN_SETUPS:
        setups.append(cold_start(root, inp))
    return passes, setups


def repeat_record(work: Path, key: str, exact: dict) -> list[str]:
    """Compare exact values with earlier runs of the same code and seed, then
    remember the union; returns the names that differ."""
    path = work / "repeat.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    seen = record.setdefault(key, {})
    mismatches = [k for k, v in exact.items() if k in seen and seen[k] != v]
    for k, v in exact.items():
        seen.setdefault(k, v)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "aoqmap" / "__init__.py").is_file():
        print(f"error: no aoqmap sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "noisy-sp" and not (root / "tests" / "oracles.py").is_file():
        print("error: noisy-sp needs tests/oracles.py for its density-matrix check",
              file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    import aoqmap
    import aoqmap.cli

    if Path(aoqmap.__file__).resolve().parent != (root / "src" / "aoqmap").resolve():
        print(f"error: imported aoqmap from {aoqmap.__file__}, not this checkout", file=sys.stderr)
        return 2

    env = environment(root, args.seed)
    work_root = Path(".bench_work")
    work = work_root / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inp = workloads.make_inputs(aoqmap, args.workload, args.seed, work / "inputs")
    inp["repo"] = str(root)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        passes, setups = run_passes(aoqmap, root, args.workload, inp, args.seconds, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = [f for rec in passes for f in rec["failures"]]
    attempted = sum(rec["attempted"] for rec in passes)
    first = passes[0]["exact"]
    for i, rec in enumerate(passes[1:], 1):
        attempted += 1
        drift = sorted(k for k, v in rec["exact"].items() if first.get(k) != v)
        if drift:
            failures.append(f"pass {i} differs from pass 0 in {drift}")
    attempted += 1
    key = f"{args.workload} seed={args.seed} source={env['source_sha256'][:16]}"
    mismatches = repeat_record(work_root, key, first)
    if mismatches:
        failures.append(f"differs from an earlier run of the same code and seed in {mismatches}")

    if args.trace:
        shown = {name: (statistics.median(rec["layers"][name] / rec["speed"] for rec in passes)
                        if is_timing(name) else value)
                 for name, value in passes[0]["layers"].items()}
        shown["trace.wall_s"] = call_time(passes)
    else:
        shots = passes[0]["shots"]
        sample_s = call_time(passes, "sample")
        shown = {"setup_s": statistics.median(took / speed for took, speed in setups),
                 "wall_s": call_time(passes),
                 "route_s": call_time(passes, "route"),
                 "verify_s": call_time(passes, "verify"),
                 "routed_cx": first["routed_cx"], "routed_depth": first["routed_depth"],
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "select_s": call_time(passes, "select"),
                 "sample_shots_per_s": shots / sample_s if sample_s else 0.0}
    shown["error_rate"] = len(failures) / attempted
    metrics = {name: value for name, value in shown.items()
               if name in END_TO_END or (name in LAYER_UNITS and name not in IDLE_TIMINGS)}

    walls = [rec["wall_s"] for rec in passes]
    speeds = [rec["speed"] for rec in passes]
    print(f"# aoqmap benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} measured={sum(walls):.1f}s")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, value in shown.items():
        note = "" if name in metrics else "  (printed only)"
        print(f"{name:34s} {value:>14.6g} {unit_of(name)}{note}")
    for label, values, unit in (("pass wall time, unscaled", walls, " s"),
                                ("cold start, unscaled", [took for took, _ in setups], " s"),
                                ("pass speed factor", speeds, "")):
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"# {label}: median {med:.4f}{unit}, q1 {q1:.4f}, q3 {q3:.4f}, "
                  f"min {min(values):.4f}, max {max(values):.4f} over {len(values)}")
    for message in failures[:20]:
        print(f"# FAILED {message}")

    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "env": env, "workload": args.workload, "metrics": metrics, "shown": shown,
        "setups": [{"took_s": took, "speed": speed} for took, speed in setups],
        "failures": failures,
        "passes": [{k: v for k, v in rec.items() if k != "spans"} for rec in passes],
        "spans": passes[-1].get("spans", []),
    }, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
