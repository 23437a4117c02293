"""Paired benchmark runs of two trees, written to one BENCH_<name>.json.

    python3 tools/pairs.py --parent HEAD~1 --change HEAD \\
        minor_ladder:10 prime_scan:3 --out BENCH_27.json

Each side is extracted from `git archive` of a commit or tree (to measure
uncommitted work, stage it and pass the tree id from `git write-tree`).
Every `WORKLOAD:PAIRS` entry runs that many pairs of

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

with N the run_seconds of BENCHMARK.json, one pair per seed, counting up
from FIRST_SEED across the entries.  The order flips every pair, so half
the pairs run the parent first, and the summary reports how often the
second run of a pair was the better one.
Every run points PYTHONPYCACHEPREFIX at an empty directory of its own, so
neither side reads bytecode the other, or an earlier run, wrote.

The summary gives, per workload and end-to-end metric of BENCHMARK.json:
the parent and change values per seed, their medians, the parent's
quartiles, the pairs the change wins, the median change/parent ratio and
the split between first and second runs.  `peak_rss_mb` carries the
parent's own spread next to its bound; `setup_s` is flagged as quantized,
since perfbench/run.py times it with a polling subprocess wait.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# Files a side needs besides src/ and perfbench/: cli_mix checks its JSON
# answers against the schema and reads correct: false without it.
REQUIRED = ("perfbench/run.py", "src/qfox/__init__.py", "tests/data/cli_schema.json")
FIRST_SEED = 1
QUANTIZED = {"setup_s": "perfbench/run.py times each setup child with a polling "
             "subprocess.run(timeout=...), so the values come in steps of about 50 ms"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Extract `rev` into dest by git archive; returns its full object id."""
    oid = git("rev-parse", rev)
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", oid], cwd=REPO, stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.returncode != 0:
        raise SystemExit(f"error: git archive {rev} failed")
    missing = [f for f in REQUIRED if not (dest / f).is_file()]
    if missing:
        raise SystemExit(f"error: {rev} lacks {', '.join(missing)}")
    return oid


def run_once(tree: Path, workload: str, seed: int, seconds: int, cache: Path) -> dict:
    """One perfbench/run.py run in `tree` with an empty bytecode cache."""
    cache.mkdir(parents=True)
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        "machine": next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("machine: ")),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1 else values * 2


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per workload and metric, from runs {"workload", "seed", "side"
    ("parent" or "change"), "first" (whether it ran first in its pair),
    "correct", "metrics"} and BENCHMARK.json's end_to_end entries."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        seeds = sorted(s for s, p in pairs.items() if len(p) == 2)
        summary: dict = {"pairs": len(seeds), "seeds": seeds,
                         "all_correct": all(p[side]["correct"] for p in pairs.values() for side in p),
                         "metrics": {}}
        for m in spec:
            name, higher = m["name"], m["better"] == "higher"
            parent = [pairs[s]["parent"]["metrics"][name] for s in seeds]
            change = [pairs[s]["change"]["metrics"][name] for s in seeds]

            def better(a: float, b: float) -> bool:
                return a > b if higher else a < b

            second_better = 0
            for s in seeds:
                first, second = ("parent", "change") if pairs[s]["parent"]["first"] else ("change", "parent")
                second_better += better(pairs[s][second]["metrics"][name], pairs[s][first]["metrics"][name])
            q1, q3 = quartiles(parent)
            mp, mc = statistics.median(parent), statistics.median(change)
            entry = {
                "better": m["better"],
                "bound": m["bound"],
                "parent": parent,
                "change": change,
                "median_parent": mp,
                "median_change": mc,
                "parent_iqr": [q1, q3],
                "median_gap_exceeds_parent_iqr": abs(mc - mp) > q3 - q1,
                "ratio_median": statistics.median(c / p for p, c in zip(parent, change)) if all(parent) else None,
                "change_wins": sum(better(c, p) for p, c in zip(parent, change)),
                "second_run_better": second_better,
            }
            if name == "peak_rss_mb":
                entry["parent_spread"] = max(parent) / min(parent) - 1 if parent else None
            if name in QUANTIZED:
                entry["quantized"] = QUANTIZED[name]
            summary["metrics"][name] = entry
        out[workload] = summary
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit or tree of the parent side")
    ap.add_argument("--change", required=True, help="commit or tree of the change side")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    args = ap.parse_args(argv)
    plan = [(w, int(n)) for w, n in (entry.split(":") for entry in args.plan)]
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = {side: work / side for side in ("parent", "change")}
        oids = {side: extract(rev, trees[side]) for side, rev in (("parent", args.parent), ("change", args.change))}
        runs = []
        seed = FIRST_SEED
        for workload, n in plan:
            for k in range(n):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_once(trees[side], workload, seed, seconds,
                                 work / "pycache" / f"{side}-{workload}-{seed}")
                    runs.append({"workload": workload, "seed": seed, "side": side, "first": side == order[0], **r})
                    print(f"{workload} seed {seed} {side}: {json.dumps(r['metrics'])}", file=sys.stderr)
                seed += 1
    report = {
        "command": ["python3", "tools/pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "run_command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "seconds": seconds,
        "parent": {"rev": args.parent, "object": oids["parent"]},
        "change": {"rev": args.change, "object": oids["change"]},
        "machine": sorted({r.pop("machine") for r in runs}),
        "platform": platform.platform(),
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
