"""Command-line front end.

Every subcommand takes one input (registry name, literal PD code, family
specifier ``torus:a,b`` / ``pretzel:a``, or a file containing a PD code)
and prints text, JSON, or CSV.  Exit status: 0 on success, 1 on any
pipeline error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import (
    improved_lower_bound,
    kl_lower_bound,
    prime_scan,
    probable_only,
    require_odd_prime,
)
from .coloring import (
    Coloring,
    QuandleParams,
    collapse_and_check,
    coloring_matrix,
    kernel_basis,
    kh_witness,
    min_colors_on_diagram,
    verify_coloring,
)
from .diagram import Diagram, build_diagram, get_diagram, load_registry, parse_pd
from .errors import QfoxError
from .families import (
    PretzelParams,
    TorusParams,
    pretzel_alexander,
    pretzel_diagram,
    pretzel_mincol_report,
    torus_alexander,
    torus_diagram,
    torus_interval,
    torus_mincol_interval,
)
from .laurent import LaurentPoly, alexander_matrix, first_minor, reduce_normalize


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------


def _parse_family(text: str) -> TorusParams | PretzelParams | None:
    """Decode 'torus:a,b' / 'pretzel:a'; None when text is not a specifier."""
    head, sep, tail = text.partition(":")
    if not sep:
        return None
    kind = head.strip().lower()
    if kind == "torus":
        parts = tail.split(",")
        if len(parts) != 2:
            raise QfoxError(f"torus specifier needs two parameters, got {text!r}")
        return TorusParams(int(parts[0]), int(parts[1]))
    if kind == "pretzel":
        return PretzelParams(int(tail))
    return None


def _resolve(text: str) -> tuple[Diagram, str]:
    """Turn the input argument into a diagram plus a provenance note."""
    fam = _parse_family(text)
    if isinstance(fam, TorusParams):
        return torus_diagram(fam), f"family {fam.name}"
    if isinstance(fam, PretzelParams):
        return pretzel_diagram(fam), f"family {fam.name}"
    if text.lstrip().startswith("PD["):
        return build_diagram(parse_pd(text), name="input"), "literal PD code"
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            return build_diagram(parse_pd(fh.read()), name=os.path.basename(text)), f"file {text}"
    d = get_diagram(text, load_registry())
    return d, "registry"


def _reduced(d: Diagram) -> LaurentPoly:
    return reduce_normalize(first_minor(alexander_matrix(d)), components=d.components)


def _derive_p(args, d: Diagram, out: dict, red: LaurentPoly | None = None) -> int:
    """--p wins; otherwise p = red(m), required to be an odd prime, with the
    reduced polynomial red computed here when the caller has none."""
    if args.p is not None:
        require_odd_prime(args.p)
        return args.p
    value = (red if red is not None else _reduced(d)).evaluate(args.m)
    require_odd_prime(value)
    out["p_auto"] = True
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _note_probable(values, payload: dict, lines: list[str]) -> None:
    """Flag the output when a listed prime is only a probable prime."""
    if any(probable_only(v) for v in values):
        lines.append("note: primality is probabilistic at this size")
        payload["probable_prime_only"] = True


def _read_coloring(path: str) -> Coloring:
    with open(path, encoding="utf-8") as fh:
        return Coloring.from_json(json.load(fh))


def _witness_lines(witness: Coloring) -> list[str]:
    return ["witness (arc: color):", *(f"  {a}: {c}" for a, c in sorted(witness.colors.items()))]


def _print_csv(hits: list[tuple[int, int]]) -> None:
    print("m,value")
    for m, v in hits:
        print(f"{m},{v}")


def _range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise QfoxError(f"range must look like A..B, got {spec!r}")
    return int(lo), int(hi)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    d, source = _resolve(args.input)
    pd = parse_pd(args.input) if args.input.lstrip().startswith("PD[") else None
    payload = {
        "command": "parse",
        "input": args.input,
        "source": source,
        "diagram": d.to_json(),
    }
    lines = [
        f"name:       {d.name or '(unnamed)'}",
        f"source:     {source}",
        f"crossings:  {len(d.crossings)}",
        f"arcs:       {len(d.arcs)}",
        f"components: {d.components}",
        "signs:      " + " ".join("%+d" % c.sign for c in d.crossings),
    ]
    if pd is not None:
        lines.append(f"pd:         {pd}")
    _emit(args, payload, lines)
    return 0


def cmd_alexander(args) -> int:
    d, source = _resolve(args.input)
    minor = first_minor(alexander_matrix(d))
    red = reduce_normalize(minor, components=d.components)
    payload = {
        "command": "alexander",
        "input": args.input,
        "source": source,
        "components": d.components,
        "minor": str(minor),
        "reduced": str(red),
    }
    lines = [f"minor:   {minor}", f"reduced: {red}"]
    _emit(args, payload, lines)
    return 0


def cmd_bounds(args) -> int:
    d, source = _resolve(args.input)
    red = _reduced(d)
    if args.scan:
        lo, hi = _range(args.scan)
        hits = prime_scan(red, lo, hi)
        if args.format == "csv":
            _print_csv(hits)
            return 0
        payload = {
            "command": "bounds",
            "input": args.input,
            "poly": str(red),
            "scan": {"from": lo, "to": hi},
            "rows": [],
        }
        lines = [f"poly: {red}", "m    p          kl  improved"]
        for m, v in hits:
            kl = kl_lower_bound(v, m)
            row = {"m": m, "p": v, "kl": kl}
            if d.components == 1:
                rep = improved_lower_bound(red, m, name=d.name)
                if rep.improved is not None:
                    row["improved"] = rep.improved
            payload["rows"].append(row)
            imp = row.get("improved")
            lines.append(
                "%-4d %-10d %-3d %s" % (m, v, kl, imp if imp is not None else "-")
            )
        _note_probable((v for _, v in hits), payload, lines)
        _emit(args, payload, lines)
        return 0

    if args.m is None:
        raise QfoxError("bounds needs --m M or --scan A..B")
    payload: dict = {"command": "bounds", "input": args.input, "source": source}
    p = _derive_p(args, d, payload, red)
    if d.components == 1 and p == red.evaluate(args.m):
        rep = improved_lower_bound(red, args.m, name=d.name)
        payload.update(rep.to_json())
        lines = [
            f"poly:     {red}",
            f"m:        {args.m}",
            f"p:        {p}" + ("  (auto: poly(m))" if payload.get("p_auto") else ""),
            f"kl:       {rep.kl}",
            "improved: %s  (case %s, %s hypothesis)"
            % (
                rep.improved if rep.improved is not None else "withheld",
                rep.case,
                rep.applicability,
            ),
        ]
    else:
        kl = kl_lower_bound(p, args.m)
        if d.components > 1:
            why = "links: improved bound not applicable"
        else:
            why = "improved bound needs p = poly(m)"
        payload.update(
            {
                "knot": d.name,
                "poly": str(red),
                "m": args.m,
                "p": p,
                "lower_bounds": {"kl": kl},
            }
        )
        lines = [
            f"poly: {red}",
            f"m:    {args.m}",
            f"p:    {p}" + ("  (auto: poly(m))" if payload.get("p_auto") else ""),
            f"kl:   {kl}  ({why})",
        ]
    _note_probable([p], payload, lines)
    _emit(args, payload, lines)
    return 0


def cmd_color(args) -> int:
    d, source = _resolve(args.input)
    payload: dict = {"command": "color", "input": args.input, "source": source}

    if args.verify:
        coloring = _read_coloring(args.verify)
        ok = verify_coloring(d, coloring)
        payload.update({"p": coloring.n, "m": coloring.m, "valid": ok})
        _emit(args, payload, [f"coloring: {'valid' if ok else 'INVALID'}"])
        return 0 if ok else 1

    if args.m is None:
        raise QfoxError("color needs --m M (and usually --p P)")
    p = _derive_p(args, d, payload)
    params = QuandleParams(p, args.m)
    payload.update({"p": p, "m": args.m})

    if args.kh:
        witness = kh_witness(d, params, reduced_alternating=True)
        payload["kh"] = witness is not None
        lines = [f"KH check (p={p}, m={args.m}): {'true' if witness is not None else 'false'}"]
        if witness is not None:
            payload["witness"] = witness.to_json()
            lines += _witness_lines(witness)
        _emit(args, payload, lines)
        return 0

    if args.min:
        count, witness = min_colors_on_diagram(d, params)
        payload.update({"min_colors": count, "witness": witness.to_json()})
        lines = [
            f"minimum distinct colors on this diagram: {count}"
            + ("  (p auto-set to %d)" % p if payload.get("p_auto") else ""),
            *_witness_lines(witness),
        ]
        _emit(args, payload, lines)
        return 0

    mat = coloring_matrix(d, params)
    dim = len(kernel_basis(mat))
    nontrivial = dim > 1
    payload.update({"kernel_dim": dim, "nontrivially_colorable": nontrivial})
    _emit(
        args,
        payload,
        [
            f"kernel dimension: {dim}",
            f"non-trivial colorings exist: {'yes' if nontrivial else 'no'}",
        ],
    )
    return 0


def cmd_collapse(args) -> int:
    d, source = _resolve(args.input)
    payload: dict = {"command": "collapse", "input": args.input, "source": source}
    if args.coloring:
        coloring = _read_coloring(args.coloring)
    else:
        if args.m is None:
            raise QfoxError("collapse needs --m M (plus --p P unless poly(m) is prime)")
        p = _derive_p(args, d, payload)
        _, coloring = min_colors_on_diagram(d, QuandleParams(p, args.m))
    rep = collapse_and_check(d, coloring)
    payload["collapse"] = rep.to_json()
    lines = [
        f"d (distinct colors): {rep.distinct}",
        f"det B:               {rep.det_b}",
        f"p | det B:           {'yes' if rep.divisible else 'NO'}  (p = {rep.p})",
        f"|det B| <= M^(d-1):  {'yes' if rep.bounded else 'NO'}  (bound {rep.bound})",
        f"all checks:          {'pass' if rep.ok else 'FAIL'}",
    ]
    _emit(args, payload, lines)
    return 0 if rep.ok else 1


def cmd_families(args) -> int:
    fam = _parse_family(args.input)
    if fam is None:
        raise QfoxError("families needs a specifier like torus:2,5 or pretzel:5")
    payload: dict = {"command": "families", "input": args.input}

    if isinstance(fam, TorusParams):
        poly = torus_alexander(fam)
        lo, hi = torus_interval(fam)
        payload.update(
            {
                "family": "torus",
                "name": fam.name,
                "crossing_number": fam.crossing_number,
                "poly": str(poly),
                "interval": {"lower": lo, "upper": hi},
            }
        )
        lines = [
            f"name:            {fam.name}",
            f"crossing number: {fam.crossing_number}",
            f"poly:            {poly}",
            f"interval:        [{lo}, {hi}]  (valid whenever poly(m) is an odd prime)",
        ]
        if args.m is not None:
            try:
                lo_m, hi_m, p = torus_mincol_interval(fam, args.m)
                payload["at_m"] = {"m": args.m, "p": p, "lower": lo_m, "upper": hi_m}
                lines.append(f"at m={args.m}:        p={p}, interval [{lo_m}, {hi_m}]")
            except QfoxError as exc:
                p = poly.evaluate(args.m)
                kl = kl_lower_bound(p, args.m) if p >= 2 else None
                payload["at_m"] = {
                    "m": args.m,
                    "value": p,
                    "interval_withheld": str(exc),
                    "kl": kl,
                }
                lines.append(
                    f"at m={args.m}:        interval withheld ({exc}); kl bound {kl}"
                )
        _emit(args, payload, lines)
        return 0

    poly = pretzel_alexander(fam)
    payload.update(
        {
            "family": "pretzel",
            "name": fam.name,
            "arcs": fam.a + 5,
            "poly": str(poly),
        }
    )
    lines = [
        f"name: {fam.name}",
        f"arcs: {fam.a + 5}",
        f"poly: {poly}",
    ]
    if args.m is not None:
        rep = pretzel_mincol_report(fam, args.m)
        payload["report"] = rep.to_json()
        lines.append(f"at m={args.m}: p={rep.p}, lower bound {rep.improved}")
        if rep.upper_value is not None:
            lines.append(f"upper bound {rep.upper_value} via explicit coloring")
    _emit(args, payload, lines)
    return 0


def cmd_scan(args) -> int:
    d, source = _resolve(args.input)
    red = _reduced(d)
    lo, hi = _range(args.range)
    hits = prime_scan(red, lo, hi)
    if args.format == "csv":
        _print_csv(hits)
        return 0
    payload = {
        "command": "scan",
        "input": args.input,
        "source": source,
        "poly": str(red),
        "rows": [{"m": m, "value": v} for m, v in hits],
    }
    lines = [f"poly: {red}", "m    value"]
    lines += ["%-4d %d" % (m, v) for m, v in hits]
    _note_probable((v for _, v in hits), payload, lines)
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qfox",
        description="Quandle colorings and minimum-color bounds from PD codes.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, fmt=("text", "json")) -> None:
        p.add_argument(
            "input",
            help="registry name, PD[...] literal, torus:a,b / pretzel:a, or file path",
        )
        p.add_argument("--format", choices=fmt, default="text")

    p = sub.add_parser("parse", help="parse a diagram and print its structure")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("alexander", help="reduced polynomial and raw first minor")
    common(p)
    p.set_defaults(fn=cmd_alexander)

    p = sub.add_parser("bounds", help="lower bounds for minimum colors")
    common(p, fmt=("text", "json", "csv"))
    p.add_argument("--m", type=int, help="evaluation point, p = poly(m) unless --p")
    p.add_argument("--p", type=int, help="odd prime modulus (else derived from --m)")
    p.add_argument("--scan", metavar="A..B", help="scan m over a range, prime values only")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("color", help="coloring space, minima, KH checks, verification")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--min", action="store_true", help="minimize distinct colors")
    p.add_argument(
        "--kh",
        action="store_true",
        help="treat the diagram as reduced alternating and test all-distinct colorability",
    )
    p.add_argument("--verify", metavar="FILE", help="verify a coloring JSON file")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("collapse", help="collapsed-determinant checks on a minimal coloring")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--coloring", metavar="FILE", help="use this coloring JSON instead")
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("families", help="torus/pretzel family reports")
    common(p)
    p.add_argument("--m", type=int)
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("scan", help="prime values of the reduced polynomial")
    common(p, fmt=("text", "json", "csv"))
    p.add_argument("range", metavar="A..B", help="inclusive m range")
    p.set_defaults(fn=cmd_scan)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QfoxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
