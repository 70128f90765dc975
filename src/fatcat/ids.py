"""Canonical identifiers.

Objects, morphisms and cells are identified by nested tuples of ints and
strings.  JSON stores tuples as arrays; dictionary keys use a compact JSON
encoding.  ``sort_ids`` orders every identifier list in the package, in
the one total order over mixed identifiers that ``sort_key`` defines, so
every enumeration is deterministic.
"""

import json

from .errors import StructureError


def decode_id(value):
    """Normalize JSON-decoded or user-supplied identifiers to hashable form
    (arrays become tuples); the inverse of :func:`encode_id`."""
    if isinstance(value, (list, tuple)):
        return tuple(decode_id(v) for v in value)
    if isinstance(value, bool) or value is None:
        raise StructureError(f"unsupported identifier component: {value!r}")
    if isinstance(value, (int, str)):
        return value
    raise StructureError(f"unsupported identifier component: {value!r}")


def encode_id(value):
    """Identifier to a JSON-ready value (tuples become arrays)."""
    if isinstance(value, tuple):
        return [encode_id(v) for v in value]
    return value


def id_key(value) -> str:
    """Canonical string form, used for JSON object keys."""
    return json.dumps(encode_id(value), separators=(",", ":"), sort_keys=True)


def sort_key(value):
    """Total order on identifiers: ints, then strings, then tuples."""
    if isinstance(value, tuple):
        return (2, tuple(sort_key(v) for v in value))
    if isinstance(value, str):
        return (1, value)
    return (0, value)


def sort_ids(values, key=None):
    """``values`` in the order of ``sort_key`` (of ``key(value)`` when a key
    is given), found by native comparison where it can be.

    Native comparison of two identifiers succeeds only where every pair of
    components it orders has one type: an int against a string, or a tuple
    against either, raises TypeError.  Where it succeeds it agrees with
    ``sort_key``.  Ints order as ints and strings as strings under both.
    Two tuples are ordered by their first unequal components, or by length
    when one is a prefix of the other; ``sort_key`` gives equal keys to
    equal identifiers and only to them, so both find the same first
    unequal components.  A sort that meets no TypeError has therefore seen
    the outcome a sort by ``sort_key`` sees at every comparison, and it
    returns the same list.  A sort that meets one starts again by
    ``sort_key``.
    """
    values = list(values)
    try:
        return sorted(values, key=key)
    except TypeError:
        return sorted(values, key=sort_key if key is None else lambda v: sort_key(key(v)))
