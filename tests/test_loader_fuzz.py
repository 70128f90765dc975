"""Seeded loader fuzz: a malformed input document exits 2 with one JSON
line on stderr, never with a traceback.

Each mutation drops, truncates or retypes one field, to depth 2, of one of
four bundled documents, and runs the command that loads it in process.
"""

import copy
import json
import random

from fatcat.cli import main
from fatcat.cocycle import cocycle_to_json, covered_complex_to_json
from fatcat.fincat import category_to_json, groupoid_to_json
from fatcat.fixtures import (
    circle_star_cover,
    idempotent_monoid_category,
    mobius_cocycle,
    z2_groupoid,
)

# each document with the command that loads it
DOCUMENTS = {
    "idempotent-monoid": (category_to_json(idempotent_monoid_category()),
                          ["verify", "lemma42", "--N", "2", "--D", "2"]),
    "z2": (groupoid_to_json(z2_groupoid()), ["verify", "universal-cocycle", "--N", "2", "--D", "2"]),
    "circle-star-cover": (covered_complex_to_json(circle_star_cover()), ["verify", "blowup", "--d", "1"]),
    "mobius": (cocycle_to_json(mobius_cocycle()), ["verify", "cocycle"]),
}

# what a field is retyped to: every JSON type, and lists and objects that
# mix types
RETYPES = [None, True, 7, "x", [], {}, [[1, "a"]], {"x": 1}]

DROP = object()

# mutations run per test; all of them take about three times as long
SAMPLE = 240


def _replacements(value):
    """Drop the field, keep the first half of a list, string or object, or
    put a value of another type or shape in its place."""
    yield DROP
    if isinstance(value, (list, str)):
        yield value[: len(value) // 2]
    elif isinstance(value, dict):
        yield dict(list(value.items())[: len(value) // 2])
    for other in RETYPES:
        if other != value or type(other) is not type(value):
            yield other


def _fields(value):
    """The keys of an object, the indices of a list, none of a scalar."""
    if isinstance(value, dict):
        return list(value)
    return range(len(value)) if isinstance(value, list) else ()


def _mutated(doc, path, value):
    out = copy.deepcopy(doc)
    holder = out
    for key in path[:-1]:
        holder = holder[key]
    if value is DROP:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return out


def mutations():
    """(document name, field path, mutated document), every field to depth 2."""
    for name, (doc, _) in DOCUMENTS.items():
        paths = [(key,) for key in doc]
        paths += [(key, inner) for key in doc for inner in _fields(doc[key])]
        for path in paths:
            value = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
            for replacement in _replacements(value):
                yield name, path, _mutated(doc, path, replacement)


def test_malformed_documents_exit_2_without_a_traceback(tmp_path, capsys):
    cases = list(mutations())
    assert len(cases) > 3 * SAMPLE
    source = tmp_path / "input.json"
    failures = []
    for name, path, doc in random.Random(14).sample(cases, SAMPLE):
        source.write_text(json.dumps(doc))
        argv = DOCUMENTS[name][1] + ["--input", str(source)]
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001  (the fault under test)
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 1, 2):
            failures.append((name, path, code))
        elif code == 2:
            lines = err.splitlines()
            if len(lines) != 1 or "error" not in json.loads(lines[0]):
                failures.append((name, path, err))
    assert not failures


def test_every_mutation_of_vertices_exits_2(tmp_path, capsys):
    """``vertices`` must list exactly the vertices of the faces."""
    cases = [(name, doc) for name, path, doc in mutations() if path[0] == "vertices"]
    assert len(cases) > 50
    source = tmp_path / "input.json"
    for name, doc in cases:
        source.write_text(json.dumps(doc))
        assert main(DOCUMENTS[name][1] + ["--input", str(source)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
