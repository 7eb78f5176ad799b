from __future__ import annotations

from fractions import Fraction

import pytest

from treeorder.actions import realized_bound
from treeorder.catalog import (
    BUILTIN_CONES,
    CatalogError,
    EXAMPLES,
    dihedral_standard,
    get_cone,
    get_example,
    run_build_suite,
    run_roundtrip_suite,
    z_standard,
)
from treeorder.corpus import all_extended_posets
from treeorder.orbitorder import orbit_poset, roundtrip_orbit
from treeorder.quotient import SUBGROUPS, get_subgroup
from treeorder.relations import SIML, SIMU
from treeorder.suites import (
    ACTION_SCENARIOS,
    QUOTIENT_SCENARIOS,
    TREES,
    derive_cone_pieces,
    get_action_scenario,
    get_tree,
    run_blowup_suite,
    run_gplus_suite,
    run_orbit_suite,
    run_quotient_suite,
)


def test_builtin_cones_resolve():
    for name in BUILTIN_CONES:
        cone = get_cone(name)
        assert cone.name == name
    with pytest.raises(CatalogError, match="unknown cone"):
        get_cone("moebius")
    # KeyError quoting must not leak into the message.
    assert "'moebius'" in str(CatalogError("unknown cone 'moebius'"))
    assert not str(CatalogError("x")).startswith('"')


def test_registries_resolve_and_reject():
    for name in SUBGROUPS:
        assert get_subgroup(name).name == name
    for name in TREES:
        assert get_tree(name, 2).boundary
    for name in ACTION_SCENARIOS:
        manifold, action, base = get_action_scenario(name, 2)
        assert manifold.is_branchless()
        assert base[0] == "arc"
    for name in QUOTIENT_SCENARIOS:
        assert name in ("z2-lex-by-second-factor", "z-by-even")
    for getter, bad in (
        (get_subgroup, "center"),
        (lambda n: get_tree(n, 2), "baobab"),
        (lambda n: get_action_scenario(n, 2), "rotation"),
    ):
        with pytest.raises(CatalogError):
            getter(bad)


def test_derived_pieces_match_the_frozen_cone():
    cone = dihedral_standard()
    pieces = derive_cone_pieces(6)
    assert len(pieces) == 24
    for g, side in pieces.items():
        assert side == cone.side(g)


def test_example_registry_is_curated():
    names = [e.name for e in EXAMPLES]
    assert len(names) == len(set(names))
    assert names[:2] == ["z", "dihedral"]
    assert "detect-broken-cone" in names
    assert "detect-nonconvex-quotient" in names
    with pytest.raises(CatalogError):
        get_example("zeppelin")
    for entry in EXAMPLES:
        assert entry.summary


def test_gplus_suites_pass():
    for cone in (z_standard(), dihedral_standard()):
        rep = run_gplus_suite(cone, 4)
        assert rep["ok"], rep
        assert rep["pair_failures"] == []
        assert rep["r_failures"] == []
        assert rep["singleton_classes"] == []


def test_build_suites_pass():
    for cone in (z_standard(), dihedral_standard()):
        rep = run_build_suite(cone, radius=4, stages=4)
        assert rep["ok"], rep
        assert all(rep["properties"].values())
        assert rep["label_collisions"] == []


def test_roundtrip_suites_are_exact_here():
    for cone in (z_standard(), dihedral_standard()):
        rep = run_roundtrip_suite(cone, 4)
        assert rep is roundtrip_orbit(cone, 4)  # the pipeline's one report
        assert rep["ok"], rep["mismatches"]
        assert rep["pair_coverage"] == Fraction(1)
        assert rep["undetermined_elements"] == []


def test_blowup_suite_passes():
    rep = run_blowup_suite(4)
    assert rep["ok"]
    assert rep["shape"]["ok"]
    assert rep["action"]["ok"]


def test_quotient_suites():
    good = run_quotient_suite("z2-lex-by-second-factor", 4)
    assert good["ok"] and good["convex"]
    assert good["property_violations"] == []
    bad = run_quotient_suite("z-by-even", 4)
    assert not bad["ok"] and not bad["convex"]
    assert any(w["witness"] == 1 for w in bad["convexity_violations"])


def test_orbit_suite_shape():
    rep = run_orbit_suite(4)
    assert rep["ok"], rep
    assert rep["has_simu"] and rep["has_siml"]
    assert not rep["trivial_extension"]
    assert rep["unbacked_pairs"] == rep["tagged_pairs"] > 0
    assert rep["realized_bound_pairs"] == []


def _tagged_split(p) -> tuple:
    """The tagged pairs, the unbacked ones, and those with a realized bound
    of their tag's kind."""
    tagged = {(a, b) for a, b in p.iter_pairs() if p.rel(a, b) in (SIMU, SIML)}
    unbacked = {entry["pair"] for entry in p.check_strongly_connected()}
    realized = {(a, b) for a, b in tagged if realized_bound(p, a, b, p.rel(a, b) == SIMU) is not None}
    return tagged, unbacked, realized


def _six_clause_verdict(p, tagged, unbacked, realized) -> bool:
    tags = {p.rel(a, b) for a, b in p.iter_pairs()}
    return (bool(unbacked) and not realized and len(unbacked) == len(tagged)
            and SIMU in tags and SIML in tags and not p.is_trivial_extension())


@pytest.mark.parametrize("radius", range(11))
def test_the_orbit_suite_verdict_is_the_six_clause_verdict(radius):
    rep = run_orbit_suite(radius)
    p = orbit_poset(*get_action_scenario("dihedral-line", radius), radius).poset
    tagged, unbacked, realized = _tagged_split(p)
    assert unbacked | realized == tagged and not unbacked & realized
    assert rep["ok"] == _six_clause_verdict(p, tagged, unbacked, realized)
    assert (rep["tagged_pairs"], rep["unbacked_pairs"]) == (len(tagged), len(unbacked))


def test_every_tagged_pair_is_unbacked_or_realized():
    for p in all_extended_posets(5):
        tagged, unbacked, realized = _tagged_split(p)
        assert unbacked | realized == tagged and not unbacked & realized
        verdict = any(p.rows[2]) and any(p.rows[3]) and not realized
        assert verdict == _six_clause_verdict(p, tagged, unbacked, realized), p.rows


def test_all_examples_run_clean():
    for entry in EXAMPLES:
        rep = entry.run()
        assert rep["ok"], (entry.name, rep)
