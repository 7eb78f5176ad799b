"""The exit-status error classes, and ``jsonable`` for report values; no dependencies.

Each class is re-exported from the module that raises it (``PosetError``
from ``poset``, ``SpecError`` from ``specio``, and so on), so
``treeorder.poset.PosetError is treeorder.errors.PosetError``.  Keeping them
here lets the command line map errors to exit statuses without importing
the layers that raise them: a failed check exits 1, a malformed spec or an
unknown name exits 2.
"""

from __future__ import annotations


class GroupError(ValueError):
    """Raised for malformed elements or unsupported model operations."""


class PosetError(ValueError):
    """Raised when a relation table violates an admissibility constraint."""


class ConeError(ValueError):
    """Raised when a cone structure cannot support the requested operation."""


class BuildError(ValueError):
    """Raised when a stage violates a layout invariant."""


class TreeError(ValueError):
    """Raised for malformed trees or points that do not exist."""


class OrbitError(ValueError):
    """Raised when an action violates an orbit-order precondition."""


class SpecError(ValueError):
    """Raised for malformed or unknown document content."""


class CatalogError(KeyError):
    """Raised when a name is not in the catalog, or when a catalog subgroup
    meets an element of a group it does not apply to."""

    def __str__(self) -> str:
        # KeyError would repr the message and add quotes.
        return self.args[0] if self.args else ""


# a failed check exits 1, a malformed spec or an unknown name exits 2
CHECK_ERRORS = (PosetError, ConeError, BuildError, OrbitError, TreeError)
SPEC_ERRORS = (SpecError, CatalogError, GroupError)


def jsonable(x):
    """Plain JSON data: tuples become arrays, keys become strings, and exact
    fractions (or any other non-JSON value) their ``str``."""
    if isinstance(x, dict):
        return {str(jsonable(k)): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x if isinstance(x, (str, int, float, bool)) or x is None else str(x)
