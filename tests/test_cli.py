"""End-to-end runs of the command-line front end, in process."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import qfox
from qfox import bounds, cli

SCHEMA = json.loads(
    (Path(__file__).parent / "data" / "cli_schema.json").read_text(encoding="utf-8")
)

TABLE1 = [(2, 3), (3, 7), (4, 13), (6, 31), (7, 43), (9, 73), (13, 157), (15, 211)]
TABLE2 = [(2, 5), (4, 17), (6, 37), (10, 101), (14, 197), (16, 257), (20, 401), (24, 577)]


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# -- parse ------------------------------------------------------------------


def test_parse_registry_name(capsys):
    rc, out, _ = run(capsys, "parse", "3_1")
    assert rc == 0
    assert "crossings:  3" in out
    assert "components: 1" in out
    assert "signs:      -1 -1 -1" in out


def test_parse_literal_pd_roundtrip(capsys):
    rc, out, _ = run(capsys, "parse", "PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]")
    assert rc == 0
    assert "source:     literal PD code" in out
    assert "pd:         PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]" in out
    assert "signs:      +1 +1 +1" in out


def test_parse_file_input(capsys, tmp_path):
    f = tmp_path / "k.pd"
    f.write_text("PD[X[4,2,5,1],X[2,6,3,5],X[6,4,1,3]]", encoding="utf-8")
    rc, out, _ = run(capsys, "parse", str(f))
    assert rc == 0
    assert f"source:     file {f}" in out


def test_parse_json_schema(capsys):
    payload = run_json(capsys, "parse", "L4a1_1")
    assert payload["diagram"]["components"] == 2
    assert len(payload["diagram"]["crossings"]) == 4


def test_registry_env_override_after_a_default_registry_call(capsys, tmp_path, monkeypatch):
    assert run(capsys, "parse", "3_1")[0] == 0
    reg = tmp_path / "reg.txt"
    reg.write_text("myknot = PD[X[4,2,5,1],X[2,6,3,5],X[6,4,1,3]]\n", encoding="utf-8")
    monkeypatch.setenv("QF_REGISTRY", str(reg))
    assert run(capsys, "parse", "myknot")[0] == 0
    rc, _, err = run(capsys, "parse", "3_1")
    assert rc == 1
    assert "registry has: myknot" in err


def test_registry_env_override(capsys, tmp_path, monkeypatch):
    reg = tmp_path / "reg.txt"
    reg.write_text("myknot = PD[X[4,2,5,1],X[2,6,3,5],X[6,4,1,3]]\n", encoding="utf-8")
    monkeypatch.setenv("QF_REGISTRY", str(reg))
    rc, out, _ = run(capsys, "parse", "myknot")
    assert rc == 0
    assert "crossings:  3" in out


# -- alexander ----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("7_3", "2 - 3t + 3t^2 - 3t^3 + 2t^4"),
        ("torus:2,3", "1 - t + t^2"),
        ("L4a1_1", "1 + t^2"),
        ("pretzel:5", "1 - t + t^3 - t^4 + t^5 - t^7 + t^8"),
    ],
)
def test_alexander_reduced(capsys, name, expected):
    rc, out, _ = run(capsys, "alexander", name)
    assert rc == 0
    assert f"reduced: {expected}" in out
    payload = run_json(capsys, "alexander", name)
    assert payload["reduced"] == expected


# -- bounds ----------------------------------------------------------------------


def test_bounds_trefoil_m2(capsys):
    rc, out, _ = run(capsys, "bounds", "3_1", "--m", "2")
    assert rc == 0
    assert "p:        3  (auto: poly(m))" in out
    assert "kl:       3" in out
    assert "improved: 3" in out
    payload = run_json(capsys, "bounds", "3_1", "--m", "2")
    assert payload["p"] == 3
    assert payload["lower_bounds"] == {"kl": 3, "improved": 3}


def test_bounds_scan_csv_is_table1(capsys):
    rc, out, _ = run(capsys, "bounds", "3_1", "--scan", "2..15", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["m,value"] + [f"{m},{v}" for m, v in TABLE1]


def test_bounds_scan_json(capsys):
    payload = run_json(capsys, "bounds", "3_1", "--scan", "2..15")
    assert [(r["m"], r["p"]) for r in payload["rows"]] == TABLE1
    assert all(r["improved"] == 3 for r in payload["rows"])


def test_bounds_scan_flags_probable_primes(capsys):
    """All 6 hits of this window lie above psi_13, where primality is only
    probable; scan and bounds --m flag such values the same way."""
    window = "2000000000060..2000000000160"
    rc, out, _ = run(capsys, "bounds", "3_1", "--scan", window)
    assert rc == 0
    assert out.splitlines()[-1] == "note: primality is probabilistic at this size"
    payload = run_json(capsys, "bounds", "3_1", "--scan", window)
    assert len(payload["rows"]) == 6
    assert payload["probable_prime_only"] is True
    rc, out, _ = run(capsys, "bounds", "3_1", "--scan", window, "--format", "csv")
    assert rc == 0
    assert len(out.splitlines()) == 7 and "note" not in out
    assert "probable_prime_only" not in run_json(capsys, "bounds", "3_1", "--scan", "2..15")


def test_bounds_link_uses_kl_only(capsys):
    rc, out, _ = run(capsys, "bounds", "L4a1_1", "--m", "2")
    assert rc == 0
    assert "kl:   4  (links: improved bound not applicable)" in out
    payload = run_json(capsys, "bounds", "L4a1_1", "--m", "2")
    assert payload["lower_bounds"] == {"kl": 4}
    assert payload["p"] == 5


def test_bounds_explicit_p_wins(capsys):
    payload = run_json(capsys, "bounds", "7_3", "--m", "3", "--p", "101")
    assert payload["p"] == 101
    assert "p_auto" not in payload


def test_bounds_explicit_p_off_the_polynomial_reports_kl(capsys):
    """A --p other than poly(m) gets KL(p, m) alone: 10_145 has the
    composite poly(2) = 15, and KL(7, 2) on 3_1 is 4, not KL(3, 2) = 3."""
    rc, out, err = run(capsys, "bounds", "10_145", "--m", "2", "--p", "5")
    assert (rc, err) == (0, "")
    assert out.splitlines()[2:] == ["p:    5", "kl:   4  (improved bound needs p = poly(m))"]
    rc, out, _ = run(capsys, "bounds", "3_1", "--m", "2", "--p", "7")
    assert rc == 0
    assert "p:    7" in out and "kl:   4  (improved bound needs p = poly(m))" in out
    payload = run_json(capsys, "bounds", "3_1", "--m", "2", "--p", "7")
    assert (payload["p"], payload["lower_bounds"]) == (7, {"kl": 4})


def test_bounds_requires_m_or_scan(capsys):
    rc, _, err = run(capsys, "bounds", "3_1")
    assert rc == 1
    assert err.startswith("error:")


# -- color ---------------------------------------------------------------------------


def test_color_min_trefoil(capsys):
    rc, out, _ = run(capsys, "color", "3_1", "--p", "3", "--m", "2", "--min")
    assert rc == 0
    assert "minimum distinct colors on this diagram: 3" in out
    payload = run_json(capsys, "color", "3_1", "--p", "3", "--m", "2", "--min")
    assert payload["min_colors"] == 3
    assert len(set(payload["witness"]["colors"].values())) == 3


def test_color_kh_torus25(capsys):
    rc, out, _ = run(capsys, "color", "torus:2,5", "--p", "11", "--m", "2", "--kh")
    assert rc == 0
    assert "KH check (p=11, m=2): true" in out
    payload = run_json(capsys, "color", "torus:2,5", "--p", "11", "--m", "2", "--kh")
    assert payload["kh"] is True
    colors = payload["witness"]["colors"]
    assert len(set(colors.values())) == len(colors) == 5


def test_color_min_pretzel_auto_prime(capsys):
    rc, out, _ = run(capsys, "color", "pretzel:5", "--m", "2", "--min")
    assert rc == 0
    assert "minimum distinct colors on this diagram: 9  (p auto-set to 151)" in out
    payload = run_json(capsys, "color", "pretzel:5", "--m", "2", "--min")
    assert payload["min_colors"] == 9
    assert payload["p"] == 151
    assert payload["p_auto"] is True


GRANNY = "PD[X[3,1,4,12],X[1,5,2,4],X[5,3,6,2],X[6,10,7,9],X[10,8,11,7],X[8,12,9,11]]"


def test_color_min_granny_knot_kernel_dim_3(capsys, tmp_path):
    # 3_1 # 3_1 as the closure of s1^3 s2^3: the kernel mod 3 has dimension 3
    assert run_json(capsys, "color", GRANNY, "--p", "3", "--m", "2")["kernel_dim"] == 3
    rc, out, err = run(capsys, "color", GRANNY, "--m", "2", "--p", "3", "--min")
    assert rc == 0, err
    assert "minimum distinct colors on this diagram: 3" in out
    payload = run_json(capsys, "color", GRANNY, "--m", "2", "--p", "3", "--min")
    assert payload["min_colors"] == 3
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(payload["witness"]), encoding="utf-8")
    rc, out, _ = run(capsys, "color", GRANNY, "--verify", str(witness))
    assert rc == 0 and "coloring: valid" in out
    assert len(set(payload["witness"]["colors"].values())) == 3


def test_color_kernel_summary(capsys):
    payload = run_json(capsys, "color", "3_1", "--p", "3", "--m", "2")
    assert payload["kernel_dim"] == 2
    assert payload["nontrivially_colorable"] is True


def test_color_verify_good_and_bad(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps({"p": 3, "m": 2, "colors": {"1": 1, "2": 0, "3": 2}}),
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "color", "3_1", "--verify", str(good))
    assert rc == 0 and "coloring: valid" in out

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"p": 3, "m": 2, "colors": {"1": 1, "2": 0, "3": 1}}),
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "color", "3_1", "--verify", str(bad))
    assert rc == 1 and "coloring: INVALID" in out


# -- collapse -------------------------------------------------------------------------


# The closure of s1^2 s1^-2 splits: its first minor is 0, so poly(m) does
# not exist, yet with p given it has colorings at p = 3, m = 2.
SPLIT_CLOSURE = "PD[X[8,1,5,4],X[1,6,2,5],X[2,6,3,7],X[7,3,8,4]]"


def test_explicit_p_needs_no_polynomial(capsys, tmp_path):
    rc, out, err = run(capsys, "color", SPLIT_CLOSURE, "--m", "2", "--p", "3", "--min")
    assert (rc, err) == (0, "")
    assert "minimum distinct colors on this diagram: 3" in out
    witness = run_json(capsys, "color", SPLIT_CLOSURE, "--m", "2", "--p", "3", "--min")["witness"]
    f = tmp_path / "c.json"
    f.write_text(json.dumps(witness), encoding="utf-8")
    rc, out, _ = run(capsys, "color", SPLIT_CLOSURE, "--verify", str(f))
    assert (rc, out) == (0, "coloring: valid\n")
    rc, out, _ = run(capsys, "collapse", SPLIT_CLOSURE, "--m", "2", "--p", "3")
    assert rc == 0
    assert "det B:               -3" in out and "all checks:          pass" in out
    # Without --p, p is poly(m), which this diagram does not have.
    rc, _, err = run(capsys, "color", SPLIT_CLOSURE, "--m", "2", "--min")
    assert (rc, err) == (1, "error: zero determinant (split diagram?)\n")


def test_collapse_link_example(capsys):
    rc, out, _ = run(capsys, "collapse", "L4a1_1", "--p", "5", "--m", "2")
    assert rc == 0
    assert "d (distinct colors): 4" in out
    assert "p | det B:           yes  (p = 5)" in out
    assert "|det B| <= M^(d-1):  yes  (bound 8)" in out
    assert "all checks:          pass" in out
    payload = run_json(capsys, "collapse", "L4a1_1", "--p", "5", "--m", "2")
    assert payload["collapse"]["ok"] is True
    assert payload["collapse"]["distinct"] == 4


def test_collapse_trefoil(capsys):
    payload = run_json(capsys, "collapse", "3_1", "--p", "3", "--m", "2")
    c = payload["collapse"]
    assert (c["distinct"], abs(c["det_b"]), c["bound"], c["ok"]) == (3, 3, 4, True)


def test_collapse_rejects_trivial_coloring(capsys, tmp_path):
    f = tmp_path / "trivial.json"
    f.write_text(
        json.dumps({"p": 3, "m": 2, "colors": {"1": 1, "2": 1, "3": 1}}),
        encoding="utf-8",
    )
    rc, _, err = run(capsys, "collapse", "3_1", "--coloring", str(f))
    assert rc == 1
    assert "non-trivial coloring required" in err


@pytest.mark.parametrize("shift", [151, -151])
def test_color_outside_zero_to_p_is_invalid(capsys, tmp_path, shift):
    # Moving a repeated color of the 9-color witness by p keeps every
    # relation mod p but would count as a 10th color in the collapse.
    witness = run_json(capsys, "color", "P(-2,3,5)", "--m", "2", "--min")["witness"]
    colors = witness["colors"]
    arc = next(a for a, c in colors.items() if list(colors.values()).count(c) > 1)
    colors[arc] += shift
    f = tmp_path / "shifted.json"
    f.write_text(json.dumps(witness), encoding="utf-8")
    rc, out, _ = run(capsys, "color", "P(-2,3,5)", "--verify", str(f))
    assert (rc, out) == (1, "coloring: INVALID\n")
    rc, out, err = run(capsys, "collapse", "P(-2,3,5)", "--coloring", str(f))
    assert (rc, out, err) == (1, "", "error: collapse needs a valid coloring of this diagram\n")


@pytest.mark.parametrize("subcommand", [["collapse", "3_1", "--coloring"], ["color", "3_1", "--verify"]])
@pytest.mark.parametrize(
    "content",
    [
        {},
        {"p": "x", "m": 2, "colors": {"1": 0}},
        [1, 2],
        {"p": 3, "m": 2, "colors": [1, 2]},
        {"p": 3, "m": 2, "colors": {"1": "x", "2": 0, "3": 1}},
    ],
)
def test_malformed_coloring_file_is_a_named_error(capsys, tmp_path, subcommand, content):
    f = tmp_path / "coloring.json"
    f.write_text(json.dumps(content), encoding="utf-8")
    rc, _, err = run(capsys, *subcommand, str(f))
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


# -- families ------------------------------------------------------------------------


def test_families_torus_intervals(capsys):
    rc, out, _ = run(capsys, "families", "torus:3,4")
    assert rc == 0
    assert "crossing number: 8" in out
    assert "interval:        [7, 8]" in out

    rc, out, _ = run(capsys, "families", "torus:3,4", "--m", "2")
    assert rc == 0
    assert "interval withheld" in out and "kl bound 7" in out

    payload = run_json(capsys, "families", "torus:2,7", "--m", "2")
    assert payload["interval"] == {"lower": 7, "upper": 7}
    assert payload["at_m"] == {"m": 2, "p": 43, "lower": 7, "upper": 7}


@pytest.mark.parametrize("m", ["1", "0"])
def test_families_marks_a_withheld_kl_bound_with_a_dash(capsys, m):
    """At m = 1 and m = 0 the value is 1 and no bound exists: the text line
    shows the mark of bounds --scan tables, and JSON keeps null."""
    rc, out, _ = run(capsys, "families", "torus:2,5", "--m", m)
    assert rc == 0
    assert out.splitlines()[-1].endswith("; kl bound -") and "None" not in out
    assert run_json(capsys, "families", "torus:2,5", "--m", m)["at_m"]["kl"] is None


def test_families_pretzel_report(capsys):
    rc, out, _ = run(capsys, "families", "pretzel:5", "--m", "2")
    assert rc == 0
    assert "at m=2: p=151, lower bound 9" in out
    assert "upper bound 9 via explicit coloring" in out
    payload = run_json(capsys, "families", "pretzel:5", "--m", "2")
    assert payload["report"]["upper_bound"]["value"] == 9


def test_families_names_a_composite_past_the_digit_limit_by_its_digit_count(capsys):
    """T(2,20001) at m = 2 is (2^20001 + 1) / 3, a 6021-digit multiple of 3,
    past the 4300 digits that str() converts."""
    rc, out, err = run(capsys, "families", "torus:2,20001", "--m", "2")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == (
        "at m=2:        interval withheld (a 6021-digit integer is not an odd prime "
        "(a 6021-digit integer = 3 * a 6020-digit integer)); kl bound 20001"
    )


def _digit_limit() -> int:
    """Python's int-to-str digit limit, 0 where there is none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def test_families_json_writes_a_value_past_the_digit_limit_in_full(capsys):
    """json.dumps alone cannot write the 6021 digits of (2^20001 + 1) / 3;
    the JSON output holds them all, and main leaves the limit as it was."""
    limit = _digit_limit()
    rc, out, err = run(capsys, "families", "torus:2,20001", "--m", "2", "--format", "json")
    assert (rc, err) == (0, "")
    assert _digit_limit() == limit
    if limit:
        with pytest.raises(ValueError):
            json.dumps((2**20001 + 1) // 3)
        sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    jsonschema.validate(payload, SCHEMA)
    assert payload["at_m"]["value"] == (2**20001 + 1) // 3
    assert payload["at_m"]["kl"] == 20001


def test_families_needs_specifier(capsys):
    rc, _, err = run(capsys, "families", "3_1")
    assert rc == 1 and "specifier" in err


# -- scan -----------------------------------------------------------------------------


def test_scan_csv_is_table2(capsys):
    rc, out, _ = run(capsys, "scan", "L4a1_1", "2..24", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["m,value"] + [f"{m},{v}" for m, v in TABLE2]


def test_scan_json_matches_text(capsys):
    payload = run_json(capsys, "scan", "L4a1_1", "2..24")
    assert [(r["m"], r["value"]) for r in payload["rows"]] == TABLE2
    rc, out, _ = run(capsys, "scan", "L4a1_1", "2..24")
    assert rc == 0
    for m, v in TABLE2:
        assert f"{v}" in out


# Prime values of m^2 - m + 1 for m in -5..5.
TREFOIL_NEGATIVE = [(-5, 31), (-3, 13), (-2, 7), (-1, 3), (2, 3), (3, 7), (4, 13)]


@pytest.mark.parametrize("argv", [
    ["scan", "3_1", "-5..5"],
    ["scan", "3_1", "--", "-5..5"],
    ["scan", "3_1", "-5..5", "--format", "csv"],
    ["scan", "3_1", "--format", "csv", "-5..5"],
])
def test_scan_range_may_start_at_a_negative_m(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    if "csv" in argv:
        assert out.splitlines() == ["m,value"] + [f"{m},{v}" for m, v in TREFOIL_NEGATIVE]
    else:
        assert [tuple(map(int, line.split())) for line in out.splitlines()[2:]] == TREFOIL_NEGATIVE


@pytest.mark.parametrize("argv,hi", [
    (["bounds", "3_1", "--scan", "-5..5"], 5),
    (["bounds", "3_1", "--scan=-5..5"], 5),
    (["bounds", "3_1", "--scan", "-5..-1", "--format", "csv"], -1),
])
def test_bounds_scan_may_start_at_a_negative_m(capsys, argv, hi):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    want = [(m, v) for m, v in TREFOIL_NEGATIVE if m <= hi]
    if "csv" in argv:
        assert out.splitlines() == ["m,value"] + [f"{m},{v}" for m, v in want]
    else:
        assert [tuple(map(int, line.split()[:2])) for line in out.splitlines()[2:]] == want


def test_an_unknown_option_is_still_a_usage_error(capsys):
    for argv in (["scan", "3_1", "-x"], ["bounds", "3_1", "--scan", "-x..5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


# -- error paths and determinism ---------------------------------------------------------


def test_unknown_name_exits_nonzero(capsys):
    rc, _, err = run(capsys, "parse", "no_such_knot")
    assert rc == 1
    assert err.startswith("error:")


def test_diagram_without_crossings_is_a_named_error(capsys):
    rc, out, err = run(capsys, "alexander", "PD[]")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "without crossings" in err


def test_composite_explicit_p_rejected(capsys):
    rc, _, err = run(capsys, "color", "3_1", "--p", "9", "--m", "2", "--min")
    assert rc == 1
    assert "9 = 3 * 3" in err


def test_bad_range_rejected(capsys):
    rc, _, err = run(capsys, "scan", "3_1", "2-15")
    assert rc == 1
    assert "A..B" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense-subcommand"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    first = run(capsys, "bounds", "3_1", "--scan", "2..15")
    second = run(capsys, "bounds", "3_1", "--scan", "2..15")
    assert first == second
    j1 = run_json(capsys, "color", "L4a1_1", "--p", "5", "--m", "2", "--min")
    j2 = run_json(capsys, "color", "L4a1_1", "--p", "5", "--m", "2", "--min")
    assert j1 == j2


# -- state kept across main calls in one process --------------------------------


USAGE_ERROR = ["bounds"]
EXIT_1 = ["parse", "9_99"]
VALID = ["bounds", "3_1", "--m", "2"]


def _in_child(argv):
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(qfox.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qfox.cli", *argv], capture_output=True, text=True, timeout=60, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def test_requests_in_one_process_print_what_they_print_first(capsys, monkeypatch):
    """A usage error, a failing request and a valid one, in that order in
    one process, each print what they print as the first request of a
    fresh process."""
    monkeypatch.setenv("COLUMNS", "80")
    firsts = [_in_child(argv) for argv in (USAGE_ERROR, EXIT_1, VALID)]
    assert [rc for rc, _, _ in firsts] == [2, 1, 0]
    assert [_in_process(capsys, argv) for argv in (USAGE_ERROR, EXIT_1, VALID)] == firsts


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for argv in (VALID, EXIT_1, USAGE_ERROR, VALID):
        _in_process(capsys, argv)
    assert built.count("qfox") == 1
    assert len(built) == len(set(built))    # each subcommand's parser once, too


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_bounds_scan_tests_each_value_once(capsys, monkeypatch, fmt):
    """prime_scan tests the 14 values of 2..15 once each, and the rows of
    every format reuse its verdicts."""
    calls = []
    is_prime = bounds._is_prime
    monkeypatch.setattr(bounds, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    assert run(capsys, "bounds", "3_1", "--scan", "2..15", "--format", fmt)[0] == 0
    assert len(calls) == 14
