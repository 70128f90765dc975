"""Shared error types, validation records and the global enumeration budget."""

import os
from collections import namedtuple


class StructureError(ValueError):
    """Malformed input: dangling identifiers, partial tables, shape mismatches.

    Structural defects are raised, while violations of equational laws on
    well-formed data are collected into reports so that a single run can
    name every offending pair or triple.
    """


class EnumerationLimitError(RuntimeError):
    """A construction would enumerate more cells than the budget allows."""


DEFAULT_MAX_CELLS = 20000


def cell_budget() -> int:
    """Maximum number of cells any single enumeration may produce.

    Controlled by the FATCAT_MAX_CELLS environment variable.
    """
    raw = os.environ.get("FATCAT_MAX_CELLS", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_CELLS
    return value if value > 0 else DEFAULT_MAX_CELLS


def check_budget(count: int, what: str) -> None:
    budget = cell_budget()
    if count > budget:
        raise EnumerationLimitError(
            f"{what} needs {count} cells, exceeding FATCAT_MAX_CELLS={budget}"
        )


class Violation(namedtuple("Violation", "law witness detail", defaults=("",))):
    """One failed law instance.  ``witness`` names the offending tuple."""

    __slots__ = ()

    def to_json(self):
        from .ids import encode_id

        return {
            "law": self.law,
            "witness": [encode_id(w) for w in self.witness],
            "detail": self.detail,
        }
