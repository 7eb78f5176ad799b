"""Named example structures and the composite check suites built on them.

The catalog is the single place where concrete cones, subgroups, and
scenarios live; checker commands and tests look structures up by name so
that every entry point exercises the same objects.  The dihedral cone
predicates are frozen here in closed form; their provenance is the orbit
order of the alternating-line action (``derive_cone_pieces`` regenerates
them from the action, and the tests compare).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .errors import CatalogError
from .relations import EQ, SIML, SIMU

if TYPE_CHECKING:
    from .grouporder import ConeStructure, SubgroupSpec

# Every layer but ``relations`` is imported inside the factories, suites and
# scenarios that use it, each import naming only what its function calls, so
# listing the examples loads no group code, and looking up a cone or running
# a cone check loads no tree code, ``poset`` or ``fractions``.


def _lookup(registry: dict, kind: str, name: str):
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise CatalogError(f"unknown {kind} {name!r}; known: {known}") from None


# -- cones -------------------------------------------------------------------


def _never(w) -> bool:
    return False


def _cone(name: str, group, positive: Callable, upper: Callable = _never,
          lower: Callable = _never) -> ConeStructure:
    """A cone over ``group``; the upper and lower pieces default to empty."""
    from .grouporder import ConeStructure

    return ConeStructure(name, group, positive, upper, lower)


def z_standard() -> ConeStructure:
    from .groups import Z

    return _cone("z-standard", Z(), lambda n: n > 0)


def z_broken() -> ConeStructure:
    """Negative control: the positives are {1} alone, so products escape."""
    from .groups import Z

    return _cone("z-broken", Z(), lambda n: n == 1)


def zk_lex(k: int = 2) -> ConeStructure:
    from .groups import Zk

    def positive(v: tuple) -> bool:
        for c in v:
            if c:
                return c > 0
        return False

    return _cone(f"z{k}-lex", Zk(k), positive)


def z2_product() -> ConeStructure:
    """Negative control: coordinatewise positivity leaves mixed-sign pairs
    in no piece, so the pieces fail to partition the ball."""
    from .groups import Zk

    def positive(v: tuple) -> bool:
        return v != (0, 0) and all(c >= 0 for c in v)

    return _cone("z2-product", Zk(2), positive)


def free_standard(k: int = 2) -> ConeStructure:
    """Total order on reduced words via leading sign of the series embedding."""
    from .groups import FreeGroup

    group = FreeGroup(k)
    return _cone(f"free{k}-standard", group, lambda w: group.order_sign(w) > 0)


def dihedral_standard() -> ConeStructure:
    """Cones of the alternating-line action: positive translations, upper
    reflections, lower reflections (frozen from derive_cone_pieces)."""
    from .groups import InfiniteDihedral

    def in_positive(w: tuple) -> bool:
        n, eps = w
        return eps == 0 and n > 0

    def in_upper(w: tuple) -> bool:
        n, eps = w
        return eps == 1 and n > 0

    def in_lower(w: tuple) -> bool:
        n, eps = w
        return eps == 1 and n <= 0

    return _cone("dihedral-standard", InfiniteDihedral(), in_positive, in_upper, in_lower)


BUILTIN_CONES: dict = {
    "z-standard": z_standard,
    "z-broken": z_broken,
    "z2-lex": lambda: zk_lex(2),
    "z3-lex": lambda: zk_lex(3),
    "z2-product": z2_product,
    "free2-standard": free_standard,
    "dihedral-standard": dihedral_standard,
}


def get_cone(name: str) -> ConeStructure:
    return _lookup(BUILTIN_CONES, "cone", name)()


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


# -- subgroups and quotient scenarios -----------------------------------------


def _subgroup(name: str, shape: str, fits: Callable, member: Callable) -> SubgroupSpec:
    """A subgroup of one group model; elements of another shape are refused."""
    from .grouporder import SubgroupSpec

    def test(w) -> bool:
        if not fits(w):
            raise CatalogError(f"subgroup {name} applies to {shape}, not to {w!r}")
        return member(w)

    return SubgroupSpec(name, test)


def second_factor_subgroup() -> SubgroupSpec:
    return _subgroup("second-factor", "integer vectors of length 2 or more",
                     lambda v: isinstance(v, tuple) and len(v) >= 2, lambda v: v[0] == 0)


def even_subgroup() -> SubgroupSpec:
    return _subgroup("even", "integers", lambda n: isinstance(n, int), lambda n: n % 2 == 0)


SUBGROUPS: dict = {
    "second-factor": second_factor_subgroup,
    "even": even_subgroup,
}


def get_subgroup(name: str) -> SubgroupSpec:
    return _lookup(SUBGROUPS, "subgroup", name)()


QUOTIENT_SCENARIOS: dict = {
    "z2-lex-by-second-factor": lambda: (zk_lex(2), second_factor_subgroup()),
    "z-by-even": lambda: (z_standard(), even_subgroup()),
}


def get_quotient_scenario(name: str) -> tuple:
    return _lookup(QUOTIENT_SCENARIOS, "quotient scenario", name)()


def _alternating_line(radius: int):
    from .ordertree import alternating_line_tree

    return alternating_line_tree(2 * radius + 2)


TREES: dict = {
    "alternating-line": _alternating_line,
}


def get_tree(name: str, radius: int = 6):
    return _lookup(TREES, "tree", name)(radius)


def _dihedral_scenario(radius: int) -> tuple:
    from .orbitorder import DIHEDRAL_BASE_POINT, dihedral_example

    _, manifold, action = dihedral_example(radius)
    return manifold, action, DIHEDRAL_BASE_POINT


def _line_scenario(radius: int) -> tuple:
    from fractions import Fraction

    from .groups import Z
    from .orbitorder import integer_line, shift_action

    line = integer_line(radius + 1)
    action = shift_action(line, Z(), lambda n: n)
    return line, action, ("arc", ("s", 0), Fraction(1, 4))


ACTION_SCENARIOS: dict = {
    "dihedral-line": _dihedral_scenario,
    "z-line": _line_scenario,
}


def get_action_scenario(name: str, radius: int = 6) -> tuple:
    return _lookup(ACTION_SCENARIOS, "scenario", name)(radius)


# -- composite suites ----------------------------------------------------------


def run_gplus_suite(cone: ConeStructure, radius: int = 6) -> dict:
    """Doubled-order checks over a ball: the doubled poset validates, the
    three between-set shapes hold per pair, the touching relation is an
    equivalence, and no similarity class between plain elements is a
    singleton."""
    from .grouporder import blow_up_gplus, check_augmented_between, check_no_singleton_classes, r_equivalent
    from .orbitorder import ConePipeline
    from .poset import _bits

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


def run_build_suite(cone: ConeStructure, radius: int = 6, stages: Optional[int] = 6) -> dict:
    """Stagewise construction checks: the four structural laws and
    injectivity of the labeling, read off the build's own points.  Unit
    directions are decided only where a tree is laid out (orient_segments)."""
    from .grouporder import PLAIN
    from .orbitorder import ConePipeline
    from .treebuild import verify_stage_properties

    state = ConePipeline.of(cone, radius).build(stages)
    props = verify_stage_properties(state)
    by_point: dict = {}  # plain labels by the point they resolve to, in label order
    for lab in sorted((lab for lab in state.nu if lab[1] == PLAIN), key=state.label_key):
        by_point.setdefault(state.find(state.nu[lab]), []).append(lab[0])
    collisions = [v for v in by_point.values() if len(v) > 1]
    return {
        "ok": props["ok"] and not collisions,
        "cone": cone.name,
        "radius": radius,
        "stages": len(state.stages_done),
        "built": len(by_point),
        "properties": {
            "tree": props["tree"]["ok"],
            "gaps": props["gaps"]["ok"],
            "paths": props["paths"]["ok"],
            "identity": props["identity"]["ok"],
        },
        "undetermined": {
            "gaps": len(props["gaps"]["undetermined"]),
            "identity": len(props["identity"]["undetermined"]),
        },
        "oriented_labels": sum(map(len, by_point.values())),
        "label_collisions": collisions[:3],
    }


def run_roundtrip_suite(cone: ConeStructure, radius: int = 6) -> dict:
    """Build, blow up, act, and compare the orbit order with the ball order;
    undetermined pairs are the ones touching an escaped element."""
    from .orbitorder import roundtrip_orbit

    return roundtrip_orbit(cone, radius=radius)


def run_blowup_suite(radius: int = 6) -> dict:
    """Blow-up shape checks plus orientation preservation of the action."""
    from .orbitorder import check_action, dihedral_example
    from .ordertree import check_blowup

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
    from .grouporder import check_completely_convex, quotient_order

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
    from .orbitorder import orbit_poset, realized_bound

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


# -- the examples registry ------------------------------------------------------


class ExampleEntry:
    """A named runnable scenario with prose notes.

    Hypotheses that the checks do not decide (minimality of the action, the
    absence of fixed ends) are stated in the notes, not computed.
    """

    def __init__(self, name: str, summary: str, run: Callable, notes: str = ""):
        self.name = name
        self.summary = summary
        self.run = run
        self.notes = notes


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


def _cone_example(name: str, radius: int = 8) -> Callable:
    def run(r: int = radius) -> dict:
        from .grouporder import verify_cone_axioms

        report = verify_cone_axioms(get_cone(name), r)
        return {"ok": report.ok, "radius": r, "ball": report.ball_size}

    return run


def _composite(cone_factory: Callable) -> Callable:
    def run(r: int = 6) -> dict:
        from .orbitorder import ConePipeline

        cone = cone_factory()
        axioms = ConePipeline.of(cone, max(r, 8)).cone_report
        trip = run_roundtrip_suite(cone, r)
        build = run_build_suite(cone, radius=r, stages=6)
        return {
            "ok": axioms.ok and trip["ok"] and build["ok"],
            "cone_axioms": axioms.ok,
            "construction": build["ok"],
            "roundtrip": trip["ok"],
            "pair_coverage": trip["pair_coverage"],
            "undetermined_elements": trip["undetermined_elements"],
        }

    return run


EXAMPLES: list = [
    ExampleEntry(
        "z", "full walk for the integers: axioms, construction, round trip",
        _composite(z_standard),
    ),
    ExampleEntry(
        "dihedral", "full walk for the dihedral order: axioms, construction, round trip",
        _composite(dihedral_standard),
        notes="The underlying action is minimal and has no fixed end; both "
              "are hypotheses of the correspondence, stated here rather than "
              "decided by the checks.",
    ),
    ExampleEntry(
        "cones-z", "cone axioms for the standard order on the integers",
        _cone_example("z-standard"),
    ),
    ExampleEntry(
        "cones-z2-lex", "cone axioms for the lexicographic plane order",
        _cone_example("z2-lex"),
    ),
    ExampleEntry(
        "cones-free", "cone axioms for the total order on the free group",
        _cone_example("free2-standard"),
        notes="Total order via the leading sign of the series embedding of "
              "reduced words; the upper and lower pieces are empty.",
    ),
    ExampleEntry(
        "cones-dihedral", "cone axioms for the infinite dihedral order",
        _cone_example("dihedral-standard"),
        notes="Predicates frozen from the alternating-line action; "
              "derive_cone_pieces regenerates them for comparison.",
    ),
    ExampleEntry(
        "detect-broken-cone", "a bad positive set is caught with a witness",
        _expect_broken_cone,
        notes="Passes when condition 2 fails on the pair (1, 1).",
    ),
    ExampleEntry(
        "gplus-z", "doubled-order laws on an integer ball",
        lambda r=6: run_gplus_suite(z_standard(), r),
    ),
    ExampleEntry(
        "gplus-dihedral", "doubled-order laws on a dihedral ball",
        lambda r=6: run_gplus_suite(dihedral_standard(), r),
    ),
    ExampleEntry(
        "build-z", "stagewise tree construction over the integers",
        lambda r=6: run_build_suite(z_standard(), radius=r, stages=6),
    ),
    ExampleEntry(
        "build-dihedral", "stagewise tree construction for the dihedral order",
        lambda r=6: run_build_suite(dihedral_standard(), radius=r, stages=6),
    ),
    ExampleEntry(
        "blowup-line", "blow-up of the alternating line, with the action",
        run_blowup_suite,
        notes="The action is orientation preserving on every mapped arc; "
              "minimality of the action is a stated hypothesis, not checked.",
    ),
    ExampleEntry(
        "roundtrip-z", "order, tree, manifold, and back on the integers",
        lambda r=6: run_roundtrip_suite(z_standard(), r),
    ),
    ExampleEntry(
        "roundtrip-dihedral", "order, tree, manifold, and back for the dihedral group",
        lambda r=6: run_roundtrip_suite(dihedral_standard(), r),
        notes="Exactness relies on the built window covering the ball; the "
              "correspondence assumes the action has no fixed end, which is "
              "recorded here rather than decided.",
    ),
    ExampleEntry(
        "quotient-z2-lex", "coset order of the plane by its second factor",
        lambda r=6: run_quotient_suite("z2-lex-by-second-factor", r),
    ),
    ExampleEntry(
        "detect-nonconvex-quotient", "a non-convex subgroup is caught with a witness",
        _expect_nonconvex,
        notes="Passes when 1 is reported between two even integers.",
    ),
    ExampleEntry(
        "orbit-dihedral", "the dihedral orbit order is tagged but unbounded",
        run_orbit_suite,
        notes="Every tagged pair lacks a realized bound among orbit points; "
              "the bounds exist only on the blown-in rays, which the orbit "
              "never meets.",
    ),
]

EXAMPLE_INDEX = {e.name: e for e in EXAMPLES}


def get_example(name: str) -> ExampleEntry:
    return _lookup(EXAMPLE_INDEX, "example", name)
