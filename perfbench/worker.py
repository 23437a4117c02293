"""Runs one workload's ops against qfox in a process of its own.

Reads {"workload", "inputs", "schedule", "mode", "seconds", "spans_path"}
as JSON on stdin and writes one JSON result line to stdout.  `schedule`
is a list of passes, each a list of indices into `inputs`.  Mode "timed"
runs whole passes, cycling through the schedule, in a closed loop until the
time is spent and at least MIN_OPS ops are done; "once" runs the first
pass; "traced" installs spans.Tracer and runs the first pass.  Only qfox is
imported here, so the peak resident set is the program's.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

ROOT = Path(__file__).resolve().parents[1]
# A timed run goes on past its seconds until this many ops are done, so
# that at least ten durations lie beyond the 90th percentile.
MIN_OPS = 100
sys.path.insert(0, str(ROOT / "src"))

import qfox  # noqa: E402
from qfox import bounds, cli, coloring, diagram, laurent  # noqa: E402


def prepare(workload: str, spec: dict):
    """Turn one generated input into a zero-argument op returning a
    JSON-serializable answer.  Work done here is not timed."""
    if workload == "minor_ladder":
        text = spec["pd"]

        def op():
            d = diagram.build_diagram(diagram.parse_pd(text))
            red = laurent.reduce_normalize(laurent.first_minor(laurent.alexander_matrix(d)), d.components)
            return [list(red.coeffs), red.min_exp]

        return op
    if workload == "prime_scan":
        poly = laurent.LaurentPoly(tuple(spec["coeffs"]))
        lo, hi = spec["lo"], spec["hi"]
        return lambda: [list(h) for h in bounds.prime_scan(poly, lo, hi)]
    if workload == "orbit_search":
        d = diagram.build_diagram(diagram.parse_pd(spec["pd"]))
        p, m = spec["p"], spec["m"]

        def op():
            count, witness = coloring.min_colors_on_diagram(d, coloring.QuandleParams(p, m))
            rep = coloring.collapse_and_check(d, witness)
            return {"count": count, "colors": [witness.colors[a] for a in d.arcs], "collapse": rep.to_json()}

        return op
    if workload == "cli_mix":
        argv = spec["argv"]

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return [code, out.getvalue(), err.getvalue()]

        return op
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_kb() -> int:
    """VmHWM of this process.  ru_maxrss is no use here: Linux carries it
    over from the parent through exec, and the parent has sympy loaded."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(req: dict) -> dict:
    ops = [prepare(req["workload"], spec) for spec in req["inputs"]]
    schedule = req["schedule"]
    tracer = None
    if req["mode"] == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    outcomes: dict[str, int] = {}      # "input index|answer json" -> outcome id
    table: list[list] = []             # outcome id -> [input index, answer or None, error or None]
    records: list[list[int]] = []      # per op: [input index, duration ns, outcome id]
    seconds = req["seconds"]
    start = perf_counter()
    cpu_start = process_time_ns()
    passes = 0
    for pass_ops in itertools.cycle(schedule) if req["mode"] == "timed" else schedule[:1]:
        for n, i in enumerate(pass_ops):
            if tracer is not None:
                tracer.op = n
            answer = error = None
            t0 = perf_counter_ns()
            try:
                answer = ops[i]()
            except Exception as exc:  # every failure is tallied, not only QfoxError
                error = f"{type(exc).__name__}: {exc}"[:300]
            dur = perf_counter_ns() - t0
            key = f"{i}|{json.dumps(answer, sort_keys=True) if error is None else '!' + error}"
            oid = outcomes.get(key)
            if oid is None:
                oid = outcomes[key] = len(table)
                table.append([i, answer, error])
            records.append([i, dur, oid])
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds and len(records) >= MIN_OPS:
            break
    wall = perf_counter() - start
    cpu = (process_time_ns() - cpu_start) / 1e9
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "passes": passes,
        "records": records,
        "outcomes": table,
        "peak_rss_kb": peak_rss_kb(),
        "qfox_file": qfox.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if req.get("spans_path"):
            tracer.dump(req["spans_path"])
    return result


def main() -> int:
    req = json.load(sys.stdin)
    result = run(req)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
