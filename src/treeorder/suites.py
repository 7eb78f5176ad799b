"""The catalog's cold half: registries, suites and negative controls.

No tree job, cone check or quotient runs these (the subgroups live in
``quotient``).  ``catalog`` serves the benchmark tracer's targets among
them.  Other layers are imported inside the functions that use them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .catalog import _lookup, z_broken, z_standard, zk_lex
from .relations import EQ, SIML, SIMU

if TYPE_CHECKING:
    from .grouporder import ConeStructure


# -- quotient, tree and action scenarios ---------------------------------------


def _builtin_subgroup(name: str):
    """A builtin subgroup, read from its registry in ``quotient`` only when a scenario is built."""
    from .quotient import SUBGROUPS

    return SUBGROUPS[name]()


QUOTIENT_SCENARIOS: dict = {
    "z2-lex-by-second-factor": lambda: (zk_lex(2), _builtin_subgroup("second-factor")),
    "z-by-even": lambda: (z_standard(), _builtin_subgroup("even")),
}


def get_quotient_scenario(name: str) -> tuple:
    return _lookup(QUOTIENT_SCENARIOS, "quotient scenario", name)()


def _alternating_line(radius: int):
    from .actions import alternating_line_tree

    return alternating_line_tree(2 * radius + 2)


TREES: dict = {
    "alternating-line": _alternating_line,
}


def get_tree(name: str, radius: int = 6):
    return _lookup(TREES, "tree", name)(radius)


def _dihedral_scenario(radius: int) -> tuple:
    from .actions import dihedral_example, line_base_point

    _, manifold, action = dihedral_example(radius)
    return manifold, action, line_base_point(manifold)


def _line_scenario(radius: int) -> tuple:
    from .actions import integer_line, line_base_point, shift_action
    from .groups import Z

    line = integer_line(radius + 1)
    action = shift_action(line, Z(), lambda n: n)
    return line, action, line_base_point(line)


ACTION_SCENARIOS: dict = {
    "dihedral-line": _dihedral_scenario,
    "z-line": _line_scenario,
}


def get_action_scenario(name: str, radius: int = 6) -> tuple:
    return _lookup(ACTION_SCENARIOS, "scenario", name)(radius)


# -- provenance of the dihedral cones -----------------------------------------


def derive_cone_pieces(radius: int = 6) -> dict:
    """Re-derive the dihedral pieces from the action instead of formulas.

    Classifies every ball element by its orbit relation to the identity;
    this is the provenance oracle for dihedral_standard.
    """
    from .orbitorder import orbit_poset

    manifold, action, base = _dihedral_scenario(radius)
    orb = orbit_poset(manifold, action, base, radius)
    ident = action.group.identity
    return {g: EQ if g == ident else orb.poset.rel(ident, g) for g in orb.realized}


# -- composite suites ----------------------------------------------------------


def run_gplus_suite(cone: ConeStructure, radius: int = 6) -> dict:
    """Doubled-order checks over a ball: the doubled poset validates, the
    three between-set shapes hold per pair, the touching relation is an
    equivalence, and no similarity class between plain elements is a
    singleton."""
    from .gplus import blow_up_gplus, check_augmented_between, check_no_singleton_classes
    from .orbitorder import ConePipeline
    from .poset import _bits
    from .treebuild import r_equivalent

    p = ConePipeline.of(cone, radius).ball_poset
    aug = blow_up_gplus(p)
    pair_failures = []
    pairs = 0
    for a, b in p.iter_pairs():
        pairs += 1
        rep = check_augmented_between(aug, a, b)
        if not rep["ok"]:
            pair_failures.append(rep)
    elems = aug.elements
    masks = [sum(1 << j for j, y in enumerate(elems) if r_equivalent(p, x, y)) for x in elems]
    r_failures = []
    for i, x in enumerate(elems):
        if not (masks[i] >> i) & 1:
            r_failures.append({"law": "reflexive", "at": x})
        for j in _bits(masks[i]):
            if not (masks[j] >> i) & 1:
                r_failures.append({"law": "symmetric", "at": (x, elems[j])})
            if masks[j] & ~masks[i]:
                r_failures.append({"law": "transitive", "at": (x, elems[j])})
    singletons = check_no_singleton_classes(aug, p.elements)
    return {
        "ok": not (pair_failures or r_failures or singletons),
        "cone": cone.name,
        "radius": radius,
        "ball": len(p.elements),
        "pairs": pairs,
        "pair_failures": pair_failures[:3],
        "r_failures": r_failures[:3],
        "singleton_classes": singletons[:3],
    }


def run_blowup_suite(radius: int = 6) -> dict:
    """Blow-up shape checks plus orientation preservation of the action."""
    from .actions import check_action, check_blowup, dihedral_example

    tree, manifold, action = dihedral_example(radius)
    shape = check_blowup(manifold)
    act_rep = check_action(manifold, action, radius=2)
    return {
        "ok": shape["ok"] and act_rep["ok"],
        "radius": radius,
        "shape": shape,
        "action": act_rep,
    }


def run_quotient_suite(name: str, radius: int = 6) -> dict:
    """Quotient scenario by name; negative scenarios report the witness."""
    from .quotient import check_completely_convex, quotient_order

    cone, sub = get_quotient_scenario(name)
    convexity = check_completely_convex(cone, sub, radius)
    out: dict = {
        "ok": convexity.ok,
        "scenario": name,
        "cone": cone.name,
        "subgroup": sub.name,
        "radius": radius,
        "convex": convexity.ok,
        "convexity_violations": [
            {"pair": w["pair"], "witness": w["witness"]} for w in convexity.violations[:3]
        ],
    }
    if not convexity.ok:
        return out
    result = quotient_order(cone, sub, radius, convexity=convexity)
    out["ok"] = result.ok
    out["representatives"] = len(result.representatives)
    out["property_counts"] = result.property_counts
    out["property_violations"] = []  # the quotient poset's construction rejects any violation
    out["uniqueness_violations"] = result.uniqueness[:3]
    return out


def run_orbit_suite(radius: int = 6) -> dict:
    """Dihedral orbit order shape: valid but not strongly connected, with
    both tag kinds present and no realized bounds behind any tag.  The
    strong-connectivity check reads the bound rows ``realized_bound`` reads,
    so a tagged pair is unbacked exactly when it has no realized bound; two
    tag kinds make the extension non-trivial."""
    from .actions import realized_bound
    from .orbitorder import orbit_poset

    orb = orbit_poset(*_dihedral_scenario(radius), radius)
    p = orb.poset
    tagged = [(a, b, p.rel(a, b) == SIMU) for a, b in p.iter_pairs() if p.rel(a, b) in (SIMU, SIML)]
    realized_pairs = [(a, b, "upper" if upper else "lower") for a, b, upper in tagged
                      if realized_bound(p, a, b, upper) is not None]
    has_simu, has_siml = any(p.rows[2]), any(p.rows[3])
    return {
        "ok": has_simu and has_siml and not realized_pairs,
        "radius": radius,
        "realized": len(orb.realized),
        "escaped": len(orb.escaped),
        "tagged_pairs": len(tagged),
        "unbacked_pairs": len(p.check_strongly_connected()),
        "realized_bound_pairs": realized_pairs[:3],
        "has_simu": has_simu,
        "has_siml": has_siml,
        "trivial_extension": p.is_trivial_extension(),
    }


# -- negative controls ---------------------------------------------------------


def _expect_broken_cone(radius: int = 8) -> dict:
    from .grouporder import verify_cone_axioms

    report = verify_cone_axioms(z_broken(), radius)
    cond2 = report.conditions[2]
    witnessed = any(tuple(w[:2]) == (1, 1) for w in cond2.violations)
    return {
        "ok": (not report.ok) and (not cond2.ok) and witnessed,
        "radius": radius,
        "condition2_violations": cond2.violation_count,
        "first_witnesses": cond2.violations[:3],
    }


def _expect_nonconvex(radius: int = 6) -> dict:
    rep = run_quotient_suite("z-by-even", radius)
    witnesses = {w["witness"] for w in rep["convexity_violations"]}
    return {
        "ok": (not rep["convex"]) and 1 in witnesses,
        "radius": radius,
        "witnesses": sorted(witnesses),
    }
