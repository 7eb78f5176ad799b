"""Acceptance gate: one test per advertised capability, exact combinatorial
equality throughout, no tolerances.  Each test is a single pass/fail line
under ``pytest -v``."""

from __future__ import annotations

from fractions import Fraction

from treeorder.catalog import (
    dihedral_standard,
    free_standard,
    run_build_suite,
    run_roundtrip_suite,
    z_broken,
    z_standard,
    zk_lex,
)
from treeorder.cli import main
from treeorder.corpus import BASE_ORDER_COUNTS, run_corpus_suite
from treeorder.grouporder import verify_cone_axioms
from treeorder.poset import GT, LT
from treeorder.quotient import quotient_order
from treeorder.suites import (
    get_quotient_scenario,
    run_blowup_suite,
    run_gplus_suite,
    run_orbit_suite,
    run_quotient_suite,
)


def test_criterion_1_cone_axioms_at_radius_8():
    for cone in (z_standard(), zk_lex(2), free_standard(2), dihedral_standard()):
        report = verify_cone_axioms(cone, 8)
        assert report.ok, (cone.name, report.to_jsonable(str))
        for idx, cond in report.conditions.items():
            assert cond.ok and cond.violation_count == 0, (cone.name, idx)
        assert main(["check-cones", cone.name, "--radius", "8"]) == 0
    broken = verify_cone_axioms(z_broken(), 8)
    assert not broken.ok
    cond2 = broken.conditions[2]
    assert not cond2.ok
    assert (1, 1, 2) in cond2.violations


def test_criterion_2_relation_laws_across_the_corpus():
    report = run_corpus_suite(max_n=5, tree_count=100, seed=20260815)
    assert report["ok"], report["failures"]
    bases = {n: counts["base"] for n, counts in report["counts"].items()}
    assert bases == {n: BASE_ORDER_COUNTS[n] for n in range(6)}
    assert report["checked"] == 1 + 1 + 4 + 32 + 400 + 6912 + 100


def test_criterion_3_doubled_order_laws_at_radius_6():
    for cone in (z_standard(), dihedral_standard()):
        rep = run_gplus_suite(cone, 6)
        assert rep["ok"], (cone.name, rep)
        assert rep["pair_failures"] == []
        assert rep["r_failures"] == []
        assert rep["singleton_classes"] == []


def test_criterion_4_stagewise_construction_for_six_stages():
    for cone in (z_standard(), dihedral_standard()):
        rep = run_build_suite(cone, radius=6, stages=6)
        assert rep["ok"], (cone.name, rep)
        assert rep["properties"] == {"tree": True, "gaps": True, "paths": True, "identity": True}
        assert rep["label_collisions"] == []
        assert rep["stages"] == 6
        assert main(["build-tree", cone.name, "--radius", "6", "--stages", "6"]) == 0


def test_criterion_5_roundtrip_at_radius_6():
    for cone in (z_standard(), dihedral_standard()):
        rep = run_roundtrip_suite(cone, 6)
        assert rep["mismatches"] == [], (cone.name, rep["mismatches"])
        assert rep["pair_coverage"] >= Fraction(9, 10)
        assert isinstance(rep["undetermined_elements"], list)
        if rep["pair_coverage"] < Fraction(1):
            assert rep["undetermined_elements"]
        assert main(["roundtrip", cone.name, "--radius", "6"]) == 0


def test_criterion_6_blowup_shape_and_action():
    rep = run_blowup_suite(6)
    assert rep["ok"], rep
    assert rep["shape"]["ok"], rep["shape"]["problems"]
    assert rep["action"]["ok"], rep["action"]


def test_criterion_7_quotient_orders():
    good = run_quotient_suite("z2-lex-by-second-factor", 6)
    assert good["ok"] and good["convex"], good
    assert good["property_violations"] == []
    assert good["uniqueness_violations"] == []
    result = quotient_order(*get_quotient_scenario("z2-lex-by-second-factor"), 6)
    reps = sorted(result.representatives, key=lambda v: v[0])
    assert [v[0] for v in reps] == list(range(-6, 7))
    for a, b in result.poset.iter_pairs():
        assert result.poset.rel(a, b) == (LT if a[0] < b[0] else GT)
    bad = run_quotient_suite("z-by-even", 6)
    assert not bad["ok"] and not bad["convex"]
    assert any(w["witness"] == 1 for w in bad["convexity_violations"])


def test_criterion_8_dihedral_orbit_is_tagged_but_unbounded():
    rep = run_orbit_suite(6)
    assert rep["ok"], rep
    assert rep["unbacked_pairs"] == rep["tagged_pairs"] > 0
    assert rep["realized_bound_pairs"] == []
    assert rep["has_simu"] and rep["has_siml"]
    assert not rep["trivial_extension"]
