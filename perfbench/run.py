"""qfox benchmark: one workload, one seed, closed loop, answers checked.

    python3 perfbench/run.py --workload minor_ladder --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, runs them in a separate
process (perfbench/worker.py) against the qfox package in src/, checks every
distinct answer against perfbench/oracle.py, and prints the metrics by name
and unit.  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the first pass with spans installed and reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import gen
import oracle

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 11
TRACE_REPS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "diagram.parse_pd.calls": "count",
    "diagram.parse_pd.s": "s",
    "diagram.build_diagram.calls": "count",
    "diagram.build_diagram.s": "s",
    "diagram.load_registry.calls": "count",
    "diagram.load_registry.s": "s",
    "diagram.crossings_built": "count",
    "laurent.alexander_matrix.s": "s",
    "laurent.first_minor.calls": "count",
    "laurent.first_minor.self_s": "s",
    "laurent.exact_div.calls": "count",
    "laurent.reduce_normalize.s": "s",
    "laurent.minor_size_sum": "count",
    "coloring.coloring_matrix.s": "s",
    "coloring.kernel_basis.calls": "count",
    "coloring.kernel_basis.s": "s",
    "coloring.kernel_dim_max": "count",
    "coloring.min_colors_on_diagram.calls": "count",
    "coloring.min_colors_on_diagram.self_s": "s",
    "coloring.min_colors_on_diagram.errors": "count",
    "coloring.orbit_reps_computed": "count",
    "coloring.min_at_kl_share": "ratio",
    "coloring.collapse_and_check.s": "s",
    "coloring.kh_witness.s": "s",
    "bounds.prime_scan.calls": "count",
    "bounds.prime_scan.s": "s",
    "bounds.is_odd_prime.calls": "count",
    "bounds.is_odd_prime.s": "s",
    "bounds.values_tested": "count",
    "bounds.hits": "count",
    "bounds.hits_probable_only": "count",
    "bounds.hit_ratio": "ratio",
    "families.braid_closure.s": "s",
    "families.torus_diagram.s": "s",
    "families.pretzel_diagram.s": "s",
    "families.torus_alexander.s": "s",
    "families.pretzel_alexander.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.errors": "count",
    "cli.exit_1": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Failures the package is known to have; an exception matching none of them
# makes the run incorrect.  Each is an open ROADMAP item.
KNOWN_DEFECTS = {
    "ValueError: constant vector has no canonical form":
        "orbit search in kernel dimension >= 3 (ROADMAP item 1)",
    "IndexError: minor indices out of range":
        "alexander 'PD[]' escapes as a traceback (ROADMAP item 5)",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QF_REGISTRY", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter doing `import qfox` and
    load_registry(), and of a bare one, for reference."""

    def timed(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        return perf_counter() - t0

    qfox_code = "import qfox; qfox.load_registry()"
    timed(qfox_code)  # writes bytecode caches in a fresh checkout
    setup = statistics.median(timed(qfox_code) for _ in range(SETUP_REPS))
    bare = statistics.median(timed("pass") for _ in range(3))
    return setup, bare


def run_worker(request: dict, timeout: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["qfox_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported qfox from {result['qfox_file']}, not from src/")
    return result


def verdicts(workload: str, inputs: list[dict], outcomes: list[list]) -> list[str]:
    """'ok', 'wrong: ...', 'defect: ...' or 'error: ...' per distinct outcome."""
    out = []
    for idx, answer, error in outcomes:
        if error is not None:
            known = next((v for k, v in KNOWN_DEFECTS.items() if error.startswith(k)), None)
            out.append(f"defect: {known}" if known else f"error: {error}")
            continue
        try:
            why = oracle.check(workload, inputs[idx], answer)
        except Exception as exc:  # a malformed answer is a wrong answer
            why = f"unreadable answer ({type(exc).__name__}: {exc})"
        out.append("ok" if why is None else f"wrong: {why}")
    return out


def label(spec: dict) -> str:
    return spec["label"] if "label" in spec else " ".join(spec["argv"])[:60]


def tally(workload: str, data: dict, result: dict) -> dict:
    verdict = verdicts(workload, data["inputs"], result["outcomes"])
    per_op = [verdict[oid] for _, _, oid in result["records"]]
    counts = Counter(v if v == "ok" else v.split(":", 1)[0] for v in per_op)
    failures = Counter(
        f"{result['outcomes'][oid][2] or 'wrong answer'} [{label(data['inputs'][i])}]"
        for i, _, oid in result["records"] if verdict[oid] != "ok"
    )
    return {
        "per_op": per_op,
        "attempted": len(per_op),
        "ok": counts["ok"],
        "wrong": counts["wrong"],
        "defect": counts["defect"],
        "unknown_error": counts["error"],
        "failures": failures,
        "samples": [v for v in verdict if v.startswith(("wrong", "error"))][:5],
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def report(lines: list[str], key: str, value) -> None:
    lines.append(f"{key}: {value}")


def run_untraced(workload: str, data: dict, seconds: int, lines: list[str]) -> tuple[dict, dict]:
    setup, bare = measure_setup()
    request = {"workload": workload, "inputs": data["inputs"], "schedule": data["schedule"],
               "mode": "timed", "seconds": seconds}
    result = run_worker(request, timeout=min(seconds * 2 + 60, 160))
    t = tally(workload, data, result)
    durs = sorted(d / 1e6 for _, d, _ in result["records"])
    p90 = statistics.quantiles(durs, n=10)[-1] if len(durs) >= 2 else durs[0]
    metrics = {
        "ops_per_s": t["ok"] / result["wall_s"],
        "op_p50_ms": statistics.median(durs),
        "op_p90_ms": p90,
        "ok_share": t["ok"] / t["attempted"],
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    report(lines, "passes", f"{result['passes']} in {result['wall_s']:.3f} s wall, {result['cpu_s']:.3f} s cpu, {t['attempted']} ops")
    report(lines, "p90 samples beyond", sum(d > p90 for d in durs))
    report(lines, "failed_share", f"{(t['attempted'] - t['ok']) / t['attempted']:.4f} "
           f"(wrong {t['wrong']}, known defects {t['defect']}, other exceptions {t['unknown_error']})")
    for what, n in sorted(t["failures"].items()):
        report(lines, "  failed", f"{n} x {what}")
    report(lines, "bare interpreter s (reference)", f"{bare:.4f}")
    return metrics, t


def run_traced(workload: str, data: dict, seed: int, lines: list[str]) -> tuple[dict, dict]:
    """The first pass, untraced and traced in turn TRACE_REPS times each.
    Layer metrics come from the first traced run (its counts repeat exactly
    for a seed); the overhead compares the median walls of the two sides."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    base = {"workload": workload, "inputs": data["inputs"], "schedule": data["schedule"][:1], "seconds": 0}
    plain, traced = [], []
    for rep in range(TRACE_REPS):
        plain.append(run_worker({**base, "mode": "once"}, timeout=150))
        traced.append(run_worker({**base, "mode": "traced", "spans_path": str(spans_path) if rep == 0 else ""},
                                 timeout=150))
    t = tally(workload, data, traced[0])

    def answers(result):
        return [result["outcomes"][o][1:] for _, _, o in result["records"]]

    if any(answers(r) != answers(plain[0]) for r in plain + traced):
        t["samples"].append("traced and untraced answers differ")
        t["wrong"] += 1
    metrics = {k: traced[0]["layers"][k] for k in PER_LAYER if k in traced[0]["layers"]}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain_wall
    report(lines, "traced pass", f"{t['attempted']} ops, {traced[0]['spans']} spans -> {spans_path.relative_to(ROOT)}")
    report(lines, "median wall s untraced / traced", f"{plain_wall:.4f} / {traced_wall:.4f} ({TRACE_REPS} each)")
    return metrics, t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qfox" / "__init__.py").is_file():
        print(f"error: no qfox package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines: list[str] = []
    env = environment()
    report(lines, "workload", f"{args.workload} seed={args.seed} trace={args.trace}")
    report(lines, "machine", f"nproc={env['nproc']} cpu={env['cpu']} python={env['python']}")
    data = gen.generate(args.workload, args.seed)
    try:
        if args.trace:
            metrics, t = run_traced(args.workload, data, args.seed, lines)
            units = PER_LAYER
        else:
            metrics, t = run_untraced(args.workload, data, args.seconds, lines)
            units = END_TO_END
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for sample in t["samples"]:
        report(lines, "  incorrect", sample)
    for name, value in metrics.items():
        report(lines, f"{name} [{units[name]}]", f"{value:.6g}")
    print("\n".join(lines))
    result = {
        "correct": t["wrong"] == 0 and t["unknown_error"] == 0,
        "attempted": t["attempted"],
        "failed": t["attempted"] - t["ok"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
