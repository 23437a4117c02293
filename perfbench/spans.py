"""Spans and counters around qfox's public functions, installed from here.

install() replaces each wrapped function in every qfox module that holds it,
so internal calls through module globals (exact_div inside the Bareiss loop,
is_odd_prime inside prime_scan) and names bound by `from .x import y` (the
CLI's) are all seen.  Nothing in src/ changes, and an untraced run never
calls install().
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

from qfox.bounds import kl_lower_bound, probable_only

# (module, function) pairs; the layer name is the module name.
WRAPPED = [
    ("diagram", "parse_pd"),
    ("diagram", "build_diagram"),
    ("diagram", "load_registry"),
    ("laurent", "alexander_matrix"),
    ("laurent", "first_minor"),
    ("laurent", "exact_div"),
    ("laurent", "reduce_normalize"),
    ("coloring", "coloring_matrix"),
    ("coloring", "kernel_basis"),
    ("coloring", "min_colors_on_diagram"),
    ("coloring", "collapse_and_check"),
    ("coloring", "kh_witness"),
    ("bounds", "prime_scan"),
    ("bounds", "is_odd_prime"),
    ("families", "braid_closure"),
    ("families", "torus_diagram"),
    ("families", "pretzel_diagram"),
    ("families", "torus_alexander"),
    ("families", "pretzel_alexander"),
    ("cli", "main"),
]


class Tracer:
    """Keeps every span in memory as (name, start_ns, end_ns, parent, op)
    and totals calls, inclusive time, self time and errors per name."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.names: list[str] = []
        self.op = -1
        self.stack: list[list[int]] = []   # [span index, start_ns, child_ns]
        self.calls: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.count: dict[str, float] = {
            "diagram.crossings_built": 0,
            "laurent.minor_size_sum": 0,
            "coloring.kernel_dim_max": 0,
            "coloring.orbit_reps_computed": 0,
            "coloring.searches_ok": 0,
            "coloring.searches_at_kl": 0,
            "bounds.values_tested": 0,
            "bounds.hits": 0,
            "bounds.hits_probable_only": 0,
            "cli.exit_1": 0,
        }
        self.last_kernel_dim = 0

    def wrap(self, name: str, fn, after=None):
        idx = len(self.names)
        self.names.append(name)
        for table in (self.calls, self.incl_ns, self.self_ns, self.errors):
            table[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else -1
            span = len(self.spans)
            self.spans.append((idx, 0, 0, parent, self.op))
            frame = [span, perf_counter_ns(), 0]
            self.stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                dur = end - frame[1]
                self.spans[span] = (idx, frame[1], end, parent, self.op)
                self.calls[name] += 1
                self.incl_ns[name] += dur
                self.self_ns[name] += dur - frame[2]
                if failed:
                    self.errors[name] += 1
                if self.stack:
                    self.stack[-1][2] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters read from arguments and results --------------------------

    def _built(self, args, d):
        self.count["diagram.crossings_built"] += len(d.crossings)

    def _minor(self, args, result):
        self.count["laurent.minor_size_sum"] += args[0].n_rows - 1

    def _kernel(self, args, basis):
        self.last_kernel_dim = len(basis)
        c = self.count
        c["coloring.kernel_dim_max"] = max(c["coloring.kernel_dim_max"], len(basis))

    def _scan(self, args, hits):
        poly, lo, hi = args
        self.count["bounds.values_tested"] += hi - lo + 1
        self.count["bounds.hits"] += len(hits)
        self.count["bounds.hits_probable_only"] += sum(probable_only(v) for _, v in hits)

    def _main(self, args, code):
        self.count["cli.exit_1"] += code == 1

    def _search(self, fn):
        """min_colors_on_diagram: representatives computed from the kernel
        dimension (also for searches that raise), and hits of the KL bound."""

        @functools.wraps(fn)
        def searched(d, params):
            self.last_kernel_dim = 0
            try:
                count, witness = fn(d, params)
            finally:
                k, p = self.last_kernel_dim - 1, params.n
                if k >= 1:
                    self.count["coloring.orbit_reps_computed"] += (p**k - 1) // (p - 1)
            self.count["coloring.searches_ok"] += 1
            self.count["coloring.searches_at_kl"] += count == kl_lower_bound(p, params.m)
            return count, witness

        return searched

    def install(self) -> None:
        hooks = {
            "build_diagram": self._built,
            "first_minor": self._minor,
            "kernel_basis": self._kernel,
            "prime_scan": self._scan,
            "main": self._main,
        }
        modules = [m for n, m in sys.modules.items() if n == "qfox" or n.startswith("qfox.")]
        for mod_name, fn_name in WRAPPED:
            original = getattr(sys.modules["qfox." + mod_name], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original, hooks.get(fn_name))
            if fn_name == "min_colors_on_diagram":
                wrapped = self._search(wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        s = 1e-9
        c = self.count
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl_ns[name] * s
            out[f"{name}.self_s"] = self.self_ns[name] * s
            out[f"{name}.errors"] = self.errors[name]
        out.update({k: v for k, v in c.items() if not k.startswith("coloring.searches")})
        out["bounds.hit_ratio"] = c["bounds.hits"] / c["bounds.values_tested"] if c["bounds.values_tested"] else 0.0
        out["coloring.min_at_kl_share"] = (
            c["coloring.searches_at_kl"] / c["coloring.searches_ok"] if c["coloring.searches_ok"] else 0.0
        )
        return out

    def dump(self, path) -> None:
        """One JSON array per span: [name, start_ns, end_ns, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, start, end, parent, op in self.spans:
                fh.write(f'["{self.names[idx]}",{start},{end},{parent},{op}]\n')
