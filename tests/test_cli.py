"""End-to-end runs of the command-line front end, in process."""

import json
from pathlib import Path

import jsonschema
import pytest

from qfox import cli

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


def test_families_pretzel_report(capsys):
    rc, out, _ = run(capsys, "families", "pretzel:5", "--m", "2")
    assert rc == 0
    assert "at m=2: p=151, lower bound 9" in out
    assert "upper bound 9 via explicit coloring" in out
    payload = run_json(capsys, "families", "pretzel:5", "--m", "2")
    assert payload["report"]["upper_bound"]["value"] == 9


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
