"""PD parsing, diagram assembly, and the named-diagram registry."""

import random

import pytest

from qfox import (
    DiagramError,
    PdSyntaxError,
    RegistryError,
    build_diagram,
    get_diagram,
    load_registry,
    parse_pd,
)
from qfox.diagram import parse_registry_text, relabel_arcs
from qfox.families import braid_closure_pd
from oracles import arc_of_edge, validate

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"


# -- text form ---------------------------------------------------------------


def test_parse_render_roundtrip():
    pd = parse_pd(TREFOIL_PD)
    assert str(pd) == TREFOIL_PD
    assert len(pd) == 3


def test_parse_ignores_whitespace():
    assert parse_pd("PD[ X[1,4,2,5],\n X[3,6,4,1], X[5,2,6,3] ]") == parse_pd(TREFOIL_PD)


@pytest.mark.parametrize(
    "text",
    [
        "X[1,4,2,5]",
        "PD[X[1,4,2,5]",
        "PD[X[1,4,2]]",
        "PD[X[1,4,2,5,6]]",
        "PD[Y[1,4,2,5]]",
        "PD[X[1,4,2,a]]",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(PdSyntaxError):
        parse_pd(text)


def _long_body(bad: str, at: int) -> tuple[str, int]:
    """A PD text of 2,000 crossings whose crossing `at` is replaced by
    `bad`, and the offset of that crossing in the text."""
    crossings = [f"X[{4 * k + 1},{4 * k + 2},{4 * k + 3},{4 * k + 4}]" for k in range(2000)]
    crossings[at] = bad
    return "PD[" + ",".join(crossings) + "]", len("PD[" + ",".join(crossings[:at] + [""]))


@pytest.mark.parametrize("at", [0, 1000, 1999])
@pytest.mark.parametrize(
    "bad,shift",
    [
        ("X[1,2,3]", 0),  # three labels
        ("Y[1,2,3,4]", 0),  # not an X
        ("X[0,1,2,3]", 0),  # a label that is not positive
        ("X[1,2,3,4]X[5,6,7,8]", len("X[1,2,3,4]")),  # no comma between crossings
    ],
)
def test_parse_error_position_in_a_long_body(bad, shift, at):
    """The offset of a malformed crossing at the start, the middle and the
    end of a 2,000-crossing body, counted from the start of the text."""
    text, offset = _long_body(bad, at)
    with pytest.raises(PdSyntaxError) as err:
        parse_pd(text)
    assert err.value.position == offset + shift


# -- assembly ----------------------------------------------------------------


def test_trefoil_structure():
    d = build_diagram(parse_pd(TREFOIL_PD), name="3_1")
    assert d.components == 1
    assert d.arcs == (1, 2, 3)
    assert [c.sign for c in d.crossings] == [-1, -1, -1]
    assert validate(d) == []


def test_arc_of_edge_covers_all_edges():
    pd = parse_pd(TREFOIL_PD)
    mapping = arc_of_edge(pd)
    assert set(mapping) == set(range(1, 7))
    assert set(mapping.values()) == {1, 2, 3}


def _random_braid_closure_pds(count, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * g for g in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))]
        rng.shuffle(word)
        pd = braid_closure_pd(word)
        try:
            build_diagram(pd)
        except DiagramError:
            continue  # a component that never passes under
        out.append(pd)
    return out


def test_build_diagram_arcs_match_union_find_oracle(registry):
    for pd in list(registry.values()) + _random_braid_closure_pds(60):
        d = build_diagram(pd)
        arc = arc_of_edge(pd)
        assert d.arcs == tuple(range(1, len(set(arc.values())) + 1))
        assert [(c.under_in, c.over, c.under_out) for c in d.crossings] == [
            (arc[under_in], arc[over], arc[under_out]) for under_in, over, under_out, _ in pd.crossings
        ], str(pd)


def test_link_components_counted(l4a1):
    assert l4a1.components == 2
    assert len(l4a1.arcs) == 4


def test_each_label_twice_enforced():
    with pytest.raises(DiagramError):
        build_diagram(parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,4]]"))


def test_consecutive_labels_enforced():
    with pytest.raises(DiagramError):
        build_diagram(parse_pd("PD[X[1,4,2,7],X[3,6,4,1],X[7,2,6,3]]"))


def test_under_edge_continuity_enforced():
    # first and third entries of some crossing are not successive edges
    with pytest.raises(DiagramError):
        build_diagram(parse_pd("PD[X[1,4,3,5],X[2,6,4,1],X[5,2,6,3]]"))


def test_component_always_over_rejected():
    with pytest.raises(DiagramError):
        build_diagram(parse_pd("PD[X[1,4,2,3],X[2,3,1,4]]"))


def test_crossing_sign_convention():
    # positive trefoil: the registry one with each crossing's over pair flipped
    d = build_diagram(parse_pd("PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]"))
    assert [c.sign for c in d.crossings] == [1, 1, 1]


def test_empty_pd_is_zero_crossing_unknot():
    d = build_diagram(parse_pd("PD[]"))
    assert (len(d.crossings), len(d.arcs), d.components) == (0, 0, 1)


# -- registry ----------------------------------------------------------------


def test_builtin_registry_contents(registry):
    assert set(registry) == {
        "3_1",
        "4_1",
        "5_1",
        "7_3",
        "10_145",
        "T_2_5",
        "T_2_7",
        "T_3_4",
        "L4a1_1",
        "P_m2_3_3",
        "P_m2_3_5",
    }


@pytest.mark.parametrize(
    "alias,key",
    [
        ("3_1", "3_1"),
        ("T(2,5)", "T_2_5"),
        ("t_2_5", "T_2_5"),
        ("L4a1{1}", "L4a1_1"),
        ("P(-2,3,5)", "P_m2_3_5"),
    ],
)
def test_get_diagram_name_normalization(alias, key):
    assert get_diagram(alias).name == key


def test_get_diagram_unknown_name():
    with pytest.raises(RegistryError):
        get_diagram("kinoshita_terasaka")


def test_registry_env_override(tmp_path, monkeypatch):
    path = tmp_path / "reg.txt"
    path.write_text("# mine\nonly = %s\n" % TREFOIL_PD)
    monkeypatch.setenv("QF_REGISTRY", str(path))
    reg = load_registry()
    assert set(reg) == {"only"}
    assert get_diagram("only", reg).components == 1


def test_registry_env_override_after_a_default_registry_call(tmp_path, monkeypatch):
    assert "3_1" in load_registry()
    path = tmp_path / "reg.txt"
    path.write_text("only = %s\n" % TREFOIL_PD)
    monkeypatch.setenv("QF_REGISTRY", str(path))
    assert set(load_registry()) == {"only"}
    monkeypatch.delenv("QF_REGISTRY")
    assert "3_1" in load_registry()


def test_load_registry_returns_a_dict_of_its_own():
    shipped = dict(load_registry())
    reg = load_registry()
    reg["3_1"] = parse_pd("PD[]")
    reg.pop("4_1")
    reg["mine"] = parse_pd(TREFOIL_PD)
    assert load_registry() == shipped
    load_registry().clear()
    assert load_registry() == shipped


def test_registry_rejects_duplicates():
    text = "a = %s\na = %s\n" % (TREFOIL_PD, TREFOIL_PD)
    with pytest.raises(RegistryError):
        parse_registry_text(text)


def test_registry_rejects_garbage_lines():
    with pytest.raises(RegistryError):
        parse_registry_text("a is %s\n" % TREFOIL_PD)


# -- relabelling ---------------------------------------------------------------


def test_relabel_arcs_moves_chosen_arcs_first(trefoil):
    d2 = relabel_arcs(trefoil, [3, 1])
    assert d2.arcs == (1, 2, 3)
    # old arc 3 is the new arc 1 everywhere
    old = {(c.under_in, c.over, c.under_out) for c in trefoil.crossings}
    new = {(c.under_in, c.over, c.under_out) for c in d2.crossings}
    perm = {3: 1, 1: 2, 2: 3}
    assert {(perm[a], perm[b], perm[c]) for a, b, c in old} == new


def test_relabel_arcs_rejects_unknown(trefoil):
    with pytest.raises(DiagramError):
        relabel_arcs(trefoil, [9])
