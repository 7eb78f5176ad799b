"""Left-invariant orders on groups, their tagged extensions, and order trees.

The package has three layers.  ``poset`` carries the tagged relation tables
(strict order plus upper/lower similarity on incomparable pairs) and their
validity laws, over the codes of the leaf ``relations``.
``groups``/``grouporder``/``treebuild`` go from a group with order cones to a
stagewise tree construction; ``ordertree``/``orbitorder`` go back from an
oriented tree with a group action to an order on the group.
``corpus``, ``catalog``, ``specio``, and ``cli`` form the desk-scale shell:
exhaustive small instances, named scenarios, a JSON spec format, and a
command line driver.  ``errors`` holds the error classes of the CLI's exit
statuses and depends on nothing.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A name is imported on first
# use (PEP 562), so ``import treeorder`` loads no submodule and a caller pays
# only for the layers it touches.  The error classes live in the
# dependency-free ``errors`` module and are re-exported by the modules that
# raise them.
_HOME = {
    "BuildError": "errors",
    "ConeError": "errors",
    "ConeStructure": "grouporder",
    "EQ": "relations",
    "EXAMPLES": "catalog",
    "ExtendedPoset": "poset",
    "FreeGroup": "groups",
    "GT": "relations",
    "GroupError": "errors",
    "InfiniteDihedral": "groups",
    "LT": "relations",
    "OneManifold": "ordertree",
    "OrbitError": "errors",
    "OrderTree": "ordertree",
    "PosetError": "errors",
    "SIML": "relations",
    "SIMU": "relations",
    "TableGroup": "groups",
    "TreeAction": "orbitorder",
    "TreeError": "errors",
    "Z": "groups",
    "Zk": "groups",
    "all_extended_posets": "corpus",
    "between_by_codes": "relations",
    "build_from_cones": "treebuild",
    "check_action": "actions",
    "check_blowup": "actions",
    "check_completely_convex": "quotient",
    "denjoy_blowup": "ordertree",
    "alternating_line_tree": "actions",
    "get_cone": "catalog",
    "get_example": "catalog",
    "induced_ball_poset": "grouporder",
    "make_group": "groups",
    "manifold_order": "ordertree",
    "orbit_poset": "orbitorder",
    "orient_segments": "treebuild",
    "quotient_order": "quotient",
    "roundtrip_orbit": "orbitorder",
    "run_corpus_suite": "corpus",
    "stabilizer_extension_order": "actions",
    "verify_cone_axioms": "grouporder",
    "verify_stage_properties": "treebuild",
}

__all__ = list(_HOME)


def lazy_names(module: str, homes: dict):
    """A PEP 562 ``__getattr__`` for ``module`` that serves each name of
    ``homes`` (name -> sibling module) from its sibling, importing the
    sibling on first use and binding the name in ``module``, so later
    lookups skip the hook.  Any other name raises AttributeError."""
    namespace = importlib.import_module(module).__dict__

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        namespace[name] = value = getattr(importlib.import_module(f"{__name__}.{homes[name]}"), name)
        return value

    return __getattr__


__getattr__ = lazy_names(__name__, _HOME)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
