"""Named example structures and the composite check suites built on them.

The catalog is the single place where concrete cones, subgroups, and
scenarios are named; checker commands and tests look structures up by name
so that every entry point exercises the same objects.  The dihedral cone
predicates are frozen here in closed form; their provenance is the orbit
order of the alternating-line action (``derive_cone_pieces`` regenerates
them from the action, and the tests compare).

The subgroups load on first use from ``quotient``; the other registries
but the cones, the suites but build and round trip, the negative controls
and ``derive_cone_pieces`` from ``suites``; ``__getattr__`` serves both.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Optional

from . import lazy_names
from .errors import CatalogError

if TYPE_CHECKING:
    from .grouporder import ConeStructure

# Every layer is imported inside the factories, suites and scenarios that use
# it, each import naming only what its function calls, so listing the
# examples loads no group code, and looking up a cone or running a cone
# check loads no tree code, ``poset`` or ``fractions``.


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


# -- composite suites ----------------------------------------------------------


def run_build_suite(cone: ConeStructure, radius: int = 6, stages: Optional[int] = 6) -> dict:
    """Stagewise construction checks: the four structural laws and
    injectivity of the labeling, read off the build's own points.  Unit
    directions are decided only where a tree is laid out (orient_segments)."""
    from .orbitorder import ConePipeline
    from .treebuild import PLAIN, verify_stage_properties

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


def _served(name: str) -> Callable:
    """This module's ``name``, served from ``suites``, looked up when an
    example runs: a name used inside its own module never reaches the
    module's ``__getattr__``."""
    return getattr(sys.modules[__name__], name)


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
        lambda *r: _served("_expect_broken_cone")(*r),
        notes="Passes when condition 2 fails on the pair (1, 1).",
    ),
    ExampleEntry(
        "gplus-z", "doubled-order laws on an integer ball",
        lambda r=6: _served("run_gplus_suite")(z_standard(), r),
    ),
    ExampleEntry(
        "gplus-dihedral", "doubled-order laws on a dihedral ball",
        lambda r=6: _served("run_gplus_suite")(dihedral_standard(), r),
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
        lambda *r: _served("run_blowup_suite")(*r),
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
        lambda r=6: _served("run_quotient_suite")("z2-lex-by-second-factor", r),
    ),
    ExampleEntry(
        "detect-nonconvex-quotient", "a non-convex subgroup is caught with a witness",
        lambda *r: _served("_expect_nonconvex")(*r),
        notes="Passes when 1 is reported between two even integers.",
    ),
    ExampleEntry(
        "orbit-dihedral", "the dihedral orbit order is tagged but unbounded",
        lambda *r: _served("run_orbit_suite")(*r),
        notes="Every tagged pair lacks a realized bound among orbit points; "
              "the bounds exist only on the blown-in rays, which the orbit "
              "never meets.",
    ),
]

EXAMPLE_INDEX = {e.name: e for e in EXAMPLES}


def get_example(name: str) -> ExampleEntry:
    return _lookup(EXAMPLE_INDEX, "example", name)


# name -> the sibling that defines it: the subgroups, and the other registries, suites and negative controls
_HOME = dict.fromkeys(("SUBGROUPS", "second_factor_subgroup", "even_subgroup", "get_subgroup"), "quotient")
_HOME.update(dict.fromkeys((
    "QUOTIENT_SCENARIOS", "get_quotient_scenario", "TREES", "get_tree",
    "ACTION_SCENARIOS", "get_action_scenario", "derive_cone_pieces",
    "run_gplus_suite", "run_blowup_suite", "run_quotient_suite", "run_orbit_suite",
    "_expect_broken_cone", "_expect_nonconvex",
), "suites"))
__getattr__ = lazy_names(__name__, _HOME)
