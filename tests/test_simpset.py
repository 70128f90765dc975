import copy
import json
import random
from collections import Counter
from itertools import combinations

import pytest

import fatcat.simpset as simpset
from fatcat.cli import main
from fatcat.comparison import projection_map
from fatcat.errors import EnumerationLimitError, StructureError, Violation
from fatcat.fincat import FinCategory, category_to_json, ordinal, unravel
from fatcat.fixtures import pair_groupoid, terminal_category, z2_groupoid
from fatcat.simpset import (
    SemiSimplicialSet,
    SimplicialMap,
    TruncatedSimplicialSet,
    lemma42_bijection,
    maximal_flags,
    nerve,
    product_with_S,
    s_semisimplicial,
    sd_flags,
    simplicial_set,
    truncation,
    unravel_simplicial,
)

from oracles import (
    Rules,
    _group_index,
    face,
    is_degenerate,
    nerve_map,
    oracle_map_audit,
    oracle_maximal_flags,
    oracle_nerve,
    oracle_sd_flags,
    oracle_simplicial_audit,
    oracle_simplicial_map,
    oracle_simplicial_set,
    unravel_nerve_isomorphism,
)


def brute_force_chains(c, k):
    """Independent chain enumeration for nerve cell counts."""
    if k == 0:
        return list(c.objects)
    chains = [[m] for m in c.morphism_ids()]
    for _ in range(k - 1):
        chains = [
            ch + [m]
            for ch in chains
            for m in c.morphism_ids()
            if c.tgt[ch[-1]] == c.src[m]
        ]
    return chains


def test_nerve_counts_interval():
    ner = nerve(ordinal(1), 2)
    assert [ner.n_cells(k) for k in range(3)] == [2, 3, 4]
    assert [len(ner.nondegenerate(k)) for k in range(3)] == [2, 1, 0]
    for k in range(3):
        assert ner.n_cells(k) == len(brute_force_chains(ordinal(1), k))


def test_nerve_counts_flip_group():
    ner = nerve(z2_groupoid().base, 3)
    assert [ner.n_cells(k) for k in range(4)] == [1, 2, 4, 8]
    assert [len(ner.nondegenerate(k)) for k in range(4)] == [1, 1, 1, 1]


def record_builds(monkeypatch, cls=TruncatedSimplicialSet):
    """List that every cls (by default TruncatedSimplicialSet) built from
    now on joins."""
    built = []
    original = cls.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return built


def test_nerve_is_refused_before_any_cell_is_built(monkeypatch):
    built = record_builds(monkeypatch)
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    ten = pair_groupoid(tuple("abcdefghij")).base
    with pytest.raises(EnumerationLimitError, match="needs 111110 cells"):
        nerve(ten, 4)
    assert built == []


@pytest.mark.parametrize("cat", [ordinal(2), z2_groupoid().base, pair_groupoid().base])
def test_nerve_budget_counts_every_cell(monkeypatch, cat):
    total = sum(nerve(cat, 3).n_cells(k) for k in range(4))
    built = record_builds(monkeypatch)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total))
    nerve(cat, 3)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total - 1))
    with pytest.raises(EnumerationLimitError, match=f"needs {total} cells"):
        nerve(cat, 3)
    assert len(built) == 1


def test_product_and_unraveling_are_refused_before_any_cell_is_built(monkeypatch):
    y = nerve(z2_groupoid().base, 3)
    s = s_semisimplicial(20, 3)
    # every SemiSimplicialSet, TruncatedSimplicialSet included, joins
    built = record_builds(monkeypatch, SemiSimplicialSet)
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    with pytest.raises(EnumerationLimitError, match="^SemiSimplicialSet needs 53641 cells"):
        product_with_S(y, s)
    with pytest.raises(
        EnumerationLimitError, match="^TruncatedSimplicialSet needs 71764 cells"
    ):
        unravel_simplicial(y, 20)
    assert built == []


def test_stage_complex_is_refused_before_any_cell_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("stage complex built before its budget was checked")

    monkeypatch.setattr(simpset, "simplicial_set", build)
    monkeypatch.setenv("FATCAT_MAX_CELLS", "100")
    # 7 + 21 + 35 + 35 + 21 tuples of 1 to 5 stages out of 7
    with pytest.raises(EnumerationLimitError, match="^SemiSimplicialSet needs 119 cells"):
        s_semisimplicial(6, 4)
    # no degree above N has a cell: 3 + 3 + 1
    monkeypatch.setenv("FATCAT_MAX_CELLS", "6")
    with pytest.raises(EnumerationLimitError, match="^SemiSimplicialSet needs 7 cells"):
        s_semisimplicial(2, 10**9)


def test_huge_truncation_degree_is_refused_before_counting(monkeypatch):
    counted = []
    count = simpset.chain_count

    def counting(ends, D):
        counted.append(D)
        # counting to 10^9 would run for minutes
        assert D < 10**6, "chains counted before the bound refused D"
        return count(ends, D)

    monkeypatch.setattr(simpset, "chain_count", counting)
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    # every object has a cell in each degree: D + 1 of them on the terminal category
    with pytest.raises(
        EnumerationLimitError, match="^TruncatedSimplicialSet needs 1000000001 cells"
    ):
        nerve(terminal_category(), 10**9)
    assert counted == []
    # below the bound the count still runs, and names the exact number
    with pytest.raises(EnumerationLimitError, match="needs 111110 cells"):
        nerve(pair_groupoid(tuple("abcdefghij")).base, 4)
    assert counted == [4]


def test_nerve_of_no_objects_counts_no_degree_past_zero(monkeypatch):
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    assert simpset.chain_count({}, 10**7) == [0]
    with pytest.raises(EnumerationLimitError, match="position tables"):
        nerve(FinCategory([], [], {}, {}), 10**7)


def test_truncation_degree_is_budgeted_before_any_cell_is_built(monkeypatch):
    built = record_builds(monkeypatch, SemiSimplicialSet)
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    terminal = terminal_category()
    # one cell per degree: D(D + 3)/2 face and D(D + 1)/2 degeneracy tables
    with pytest.raises(
        EnumerationLimitError, match="^TruncatedSimplicialSet needs 160800 position tables"
    ):
        nerve(terminal, 400)
    # and C(D + 2, 3) - 1 face identities, 20,824 at D = 49
    with pytest.raises(
        EnumerationLimitError, match="^TruncatedSimplicialSet needs 20824 face identities"
    ):
        nerve(terminal, 49)
    with pytest.raises(EnumerationLimitError, match="^SemiSimplicialSet needs 20099 position tables"):
        s_semisimplicial(2, 199)
    assert built == []
    assert nerve(terminal, 48).D == 48


def test_audit_skips_degrees_without_cells(monkeypatch):
    # above N the stage complex has no cells, and a law over none holds
    composed = []
    compose = simpset._compose
    monkeypatch.setattr(simpset, "_compose", lambda *args: composed.append(args) or compose(*args))
    s = s_semisimplicial(2, 150)
    assert [s.n_cells(k) for k in range(4)] == [3, 3, 1, 0]
    # d_i d_j = d_{j-1} d_i for the three pairs i < j of degree 2, two tables each
    assert len(composed) == 6


@pytest.mark.parametrize("cat", [ordinal(2), z2_groupoid().base, pair_groupoid().base])
@pytest.mark.parametrize("build", ["product", "unravel"])
def test_product_and_unraveling_budget_count_every_cell(monkeypatch, cat, build):
    y = nerve(cat, 3)
    s = s_semisimplicial(4, 3)
    make = {
        "product": lambda: product_with_S(y, s),
        "unravel": lambda: unravel_simplicial(y, 4),
    }
    total = sum(make[build]().n_cells(k) for k in range(4))
    built = record_builds(monkeypatch, SemiSimplicialSet)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total))
    make[build]()
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total - 1))
    with pytest.raises(EnumerationLimitError, match=f"needs {total} cells"):
        make[build]()
    assert len(built) == 1


def test_nerve_refuses_a_composite_leaving_another_object():
    """a: 0 -> 1 then the identity of 1 composed to b: 1 -> 1.  b sits as
    far from the identity of 1 as a from that of 0, so placed among the
    arrows leaving 0 it would read as a, and only the check sees it."""
    a, b = (0, 1, "le"), (1, 1, "x")
    ids = {0: (0, 0, "le"), 1: (1, 1, "le")}
    table = {(ids[0], ids[0]): ids[0], (ids[0], a): a, (a, ids[1]): b, (a, b): a,
             (ids[1], ids[1]): ids[1], (ids[1], b): b, (b, ids[1]): b, (b, b): b}
    morphisms = [(ids[0], 0, 0), (a, 0, 1), (ids[1], 1, 1), (b, 1, 1)]
    bad = FinCategory([0, 1], morphisms, ids, table)
    assert nerve(bad, 1).n_cells(1) == 4
    for build in (nerve, oracle_nerve):
        with pytest.raises(StructureError):
            build(bad, 2)


def test_nerve_refuses_an_identity_leaving_another_object(capsys, tmp_path):
    """The identity of 1 is the arrow 0 -> 1.  It is a morphism and the
    table is total on composable pairs, so the loader takes the category,
    and only the nerve's check sees that the identity leaves 0."""
    c = ordinal(1)
    bad = FinCategory(c.objects, c.morphisms, {**c.identity, 1: (0, 1, "le")}, c.table)
    message = "an identity does not leave its object"
    with pytest.raises(StructureError, match=f"^{message}$"):
        nerve(bad, 1)
    doc = tmp_path / "identity-leaves.json"
    doc.write_text(json.dumps(category_to_json(bad)))
    assert main(["nerve", "--input", str(doc), "--D", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err) == {"error": message}


def test_nerve_terminal_is_a_point():
    ner = nerve(terminal_category(), 3)
    assert [ner.n_cells(k) for k in range(4)] == [1, 1, 1, 1]


def test_nondegenerate_cells_have_no_identity_arrow():
    for cat in (ordinal(2), z2_groupoid().base, pair_groupoid().base):
        ner = nerve(cat, 3)
        for k in range(1, 4):
            for cell in ner.cells[k]:
                plain = not any(cat.is_identity(m) for m in cell)
                assert plain == (not is_degenerate(ner, k, cell))


def test_stage_complex_counts():
    s = s_semisimplicial(2, 2)
    assert [s.n_cells(k) for k in range(3)] == [3, 3, 1]
    s = s_semisimplicial(4, 2)
    assert [s.n_cells(k) for k in range(3)] == [5, 10, 10]
    for k in range(3):
        from math import comb

        assert s.n_cells(k) == comb(5, k + 1)


def test_stage_complex_face_deletes_entry():
    s = s_semisimplicial(3, 2)
    assert face(s, 2, 1, (0, 2, 3)) == (0, 3)


def test_product_counts():
    ner = nerve(z2_groupoid().base, 2)
    s = s_semisimplicial(2, 2)
    p = product_with_S(ner, s)
    assert [p.n_cells(k) for k in range(3)] == [3, 6, 4]


def test_product_empty_top_degree():
    ner = nerve(z2_groupoid().base, 2)
    s = s_semisimplicial(1, 2)
    p = product_with_S(ner, s)
    assert p.n_cells(2) == 0


def test_product_truncation_mismatch():
    with pytest.raises(StructureError):
        product_with_S(nerve(ordinal(1), 2), s_semisimplicial(3, 3))


def test_truncation_is_the_nerve_of_the_lower_degree(monkeypatch):
    """The nerve through 4 cut at 2 holds the cells and tables of the nerve
    through 2, and is audited as an object of its own."""
    c = pair_groupoid().base
    ner = nerve(c, 4)
    built = record_builds(monkeypatch)
    low = truncation(ner, 2)
    assert built == [low] and low.D == 2
    want = nerve(c, 2)
    assert (low.cells, low.faces, low.degeneracies) == (want.cells, want.faces, want.degeneracies)
    assert truncation(ner, 4) is ner
    for D in (-1, 5):
        with pytest.raises(StructureError, match=f"cannot truncate a set truncated at 4 at {D}"):
            truncation(ner, D)


def test_product_face_is_componentwise():
    ner = nerve(z2_groupoid().base, 2)
    s = s_semisimplicial(2, 2)
    p = product_with_S(ner, s)
    sigma = ("*", "*", "s")
    cell = ((sigma, sigma), (0, 1, 2))
    assert face(p, 2, 0, cell) == ((sigma,), (1, 2))


def test_unravel_simplicial_degree_one_count():
    y = nerve(ordinal(1), 2)
    u = unravel_simplicial(y, 2)
    assert u.n_cells(1) == 15
    assert u.n_cells(1) == len(unravel(ordinal(1), 2).morphisms)


def test_unravel_simplicial_face_keeps_cell_in_shared_group():
    y = nerve(ordinal(1), 2)
    u = unravel_simplicial(y, 2)
    assert face(u, 1, 0, ((0, 0), 0)) == ((0,), 0)
    assert face(u, 1, 1, ((0, 0), 1)) == ((0,), 1)


def test_unravel_simplicial_strict_part_is_the_product():
    y = nerve(z2_groupoid().base, 2)
    N = 3
    u = unravel_simplicial(y, N)
    p = product_with_S(y, s_semisimplicial(N, 2))
    for k in range(3):
        strict = [cell for cell in u.cells[k] if len(set(cell[0])) == k + 1]
        paired = [(z, seq) for seq, z in strict]
        assert sorted(map(repr, paired)) == sorted(map(repr, p.cells[k]))
        for seq, z in strict:
            for i in range(k + 1) if k else ():
                fs, fz = face(u, k, i, (seq, z))
                assert (fz, fs) == face(p, k, i, (z, seq))


def test_lemma42_interval():
    rep = lemma42_bijection(ordinal(1), 2, 2)
    assert rep.ok
    assert rep.product_counts == (6, 9, 4)
    assert rep.nondegenerate_counts == (6, 9, 4)


def test_lemma42_terminal_is_stage_complex():
    rep = lemma42_bijection(terminal_category(), 2, 2)
    assert rep.ok
    assert rep.product_counts == (3, 3, 1)


def test_lemma42_flip_group():
    rep = lemma42_bijection(z2_groupoid().base, 3, 2)
    assert rep.ok


def test_unravel_nerve_isomorphism_audits():
    unravel_nerve_isomorphism(ordinal(1), 2, 2)
    unravel_nerve_isomorphism(z2_groupoid().base, 2, 2)
    unravel_nerve_isomorphism(pair_groupoid().base, 2, 2)


def test_audits_pass_on_all_constructions():
    for x in (
        nerve(ordinal(2), 3),
        s_semisimplicial(3, 3),
        product_with_S(nerve(ordinal(1), 2), s_semisimplicial(4, 2)),
        unravel_simplicial(nerve(z2_groupoid().base, 2), 3),
    ):
        assert x.audit() == []


def brute_force_flag_count(n, k):
    subsets = []
    for size in range(1, n + 2):
        subsets.extend(frozenset(c) for c in combinations(range(n + 1), size))
    count = 0

    def grow(chain):
        nonlocal count
        if len(chain) == k + 1:
            count += 1
            return
        for cand in subsets:
            if chain[-1] < cand:
                grow(chain + [cand])

    for first in subsets:
        grow([first])
    return count


@pytest.mark.parametrize("n", range(5))
def test_sd_flags_match_the_filtered_enumeration(n):
    for k in range(n + 2):
        assert sd_flags(n, k) == oracle_sd_flags(n, k), k


def test_sd_flags_counts():
    assert len(sd_flags(0, 0)) == 1
    assert len(sd_flags(1, 1)) == 2 == brute_force_flag_count(1, 1)
    maximal = [
        f
        for f in sd_flags(2, 2)
        if all(len(f[i]) == i + 1 for i in range(3)) and f[-1] == (0, 1, 2)
    ]
    assert len(maximal) == 6
    assert len(sd_flags(2, 1)) == brute_force_flag_count(2, 1)


@pytest.mark.parametrize("n", range(5))
def test_sd_flags_are_strictly_nested_chains_of_sorted_subsets(n):
    vertices = set(range(n + 1))
    for k in range(n + 1):
        for flag in sd_flags(n, k):
            assert type(flag) is tuple and len(flag) == k + 1
            for part in flag:
                assert type(part) is tuple and part
                assert list(part) == sorted(set(part)) and set(part) <= vertices
            assert all(set(a) < set(b) for a, b in zip(flag, flag[1:])), flag


def test_maximal_flags_signs():
    flags = dict(maximal_flags(1))
    assert flags[((0,), (0, 1))] == 1
    assert flags[((1,), (0, 1))] == -1


@pytest.mark.parametrize("n", range(6))
def test_maximal_flags_match_the_permutation_enumeration(n):
    assert maximal_flags(n) == oracle_maximal_flags(n)
    assert [flag for flag, _ in maximal_flags(n)] == sd_flags(n, n)


@pytest.mark.parametrize("case", ["collision", "degenerate"])
def test_lemma42_reports_a_doctored_interleaving(monkeypatch, case):
    """One 1-cell of the product sent onto another's image, or onto a
    degenerate cell, is not injective or not onto the nondegenerate cells,
    and it misses the image it replaced."""
    c, N, D = ordinal(1), 2, 2
    prod = product_with_S(nerve(c, D), s_semisimplicial(N, D))
    original = simpset.interleave_cell
    images = [original(c, 1, *cell) for cell in prod.cells[1]]
    cN = unravel(c, N)
    degenerate = (cN.identity[cN.objects[0]],)
    lost, found = (images[1], images[0]) if case == "collision" else (images[0], degenerate)

    def doctored(c, k, *cell):
        image = original(c, k, *cell)
        return found if k == 1 and image == lost else image

    monkeypatch.setattr(simpset, "interleave_cell", doctored)
    report = lemma42_bijection(c, N, D)
    first = (Violation("bijection-injective", (1,)) if case == "collision"
             else Violation("bijection-image", (1, degenerate)))
    assert report.violations[:2] == [first, Violation("bijection-surjective", (1, lost))]
    assert {v.law for v in report.violations[2:]} == {"bijection-face"}
    assert not report.ok


def test_audit_rejects_wrong_face_table():
    cells = [[0, 1, 2], [("e", 0), ("e", 1), ("e", 2)]]
    # a triangle with one edge endpoint wired inconsistently with the filling
    face = [
        None,
        [
            {("e", 0): 1, ("e", 1): 0, ("e", 2): 2},
            {("e", 0): 0, ("e", 1): 1, ("e", 2): 0},
        ],
    ]
    cells2 = cells + [[("t",)]]
    face2 = [
        None,
        face[1],
        [
            {("t",): ("e", 1)},
            {("t",): ("e", 2)},
            {("t",): ("e", 0)},
        ],
    ]
    with pytest.raises(StructureError):
        simplicial_set(2, cells2, lambda k, i, c: face2[k][i][c])


def test_audit_rejects_swapped_group_rule():
    """Reading the stage groups after deletion breaks the face identities."""
    y = nerve(z2_groupoid().base, 2)
    N = 2
    from itertools import combinations_with_replacement

    cells = []
    for n in range(3):
        level = []
        for seq in combinations_with_replacement(range(N + 1), n + 1):
            l = len(set(seq))
            for z in y.cells[l - 1]:
                level.append((seq, z))
        cells.append(level)
    faces = [None]
    for n in range(1, 3):
        tables = []
        for i in range(n + 1):
            table = {}
            for seq, z in cells[n]:
                rest = seq[:i] + seq[i + 1:]
                # wrong rule: apply the face of the underlying cell whenever
                # the stage value still occurs after deletion
                if seq[i] in rest and len(set(seq)) > 1:
                    table[(seq, z)] = (rest, face(y, len(set(seq)) - 1, _group_index(seq, i), z))
                else:
                    table[(seq, z)] = (rest, z)
            tables.append(table)
        faces.append(tables)
    degeneracy = []
    for n in range(2):
        tables = []
        for i in range(n + 1):
            tables.append({(seq, z): (seq[: i + 1] + seq[i:], z) for seq, z in cells[n]})
        degeneracy.append(tables)
    with pytest.raises(StructureError):
        oracle_simplicial_set(
            2, cells, lambda k, i, c: faces[k][i][c], lambda k, i, c: degeneracy[k][i][c]
        )


# --- whole-table audits against the per-cell oracle

AUDITED = {
    "nerve-z2": lambda: nerve(z2_groupoid().base, 3),
    "unravel-ordinal-2": lambda: unravel_simplicial(nerve(ordinal(2), 2), 2),
    "product": lambda: product_with_S(nerve(z2_groupoid().base, 2), s_semisimplicial(3, 2)),
    "projection": lambda: projection_map(z2_groupoid().base, 3, 2),
    # a map between two simplicial sets, so map-degeneracy is audited too
    "unravel-iso": lambda: unravel_nerve_isomorphism(ordinal(1), 2, 2),
}


def table_slots(x):
    """(attribute, k, i, size) of every position table of x, size being
    the number of cells its positions index (i is None for a map)."""
    if isinstance(x, SimplicialMap):
        return [("maps", k, None, x.target.n_cells(k)) for k in range(x.source.D + 1)]
    slots = [("faces", k, i, x.n_cells(k - 1)) for k in range(1, x.D + 1) for i in range(k + 1)]
    if x.has_degeneracies:
        slots += [
            ("degeneracies", k, i, x.n_cells(k + 1)) for k in range(x.D) for i in range(k + 1)
        ]
    return slots


def corrupted(x, rng):
    """Copies of x's tables with one to three entries changed: mostly to
    another position in range, sometimes out of range or cut off."""
    names = [n for n in ("faces", "degeneracies", "maps") if hasattr(x, n)]
    tables = {n: copy.deepcopy(getattr(x, n)) for n in names}
    slots = table_slots(x)
    for _ in range(rng.randint(1, 3)):
        name, k, i, size = rng.choice(slots)
        table = tables[name][k] if i is None else tables[name][k][i]
        if not table:
            continue
        roll = rng.random()
        if roll < 0.1:
            table.pop()
        elif roll < 0.2:
            table[rng.randrange(len(table))] = rng.choice((-1, size))
        else:
            table[rng.randrange(len(table))] = rng.randrange(size)
    return tables


def cell_at(cells, p):
    """cells[p], or something that is no cell for a position out of range."""
    return cells[p] if 0 <= p < len(cells) else ("outside", p)


def rules_of(x, tables):
    """Per-cell rules reading x's position tables (or their replacements in
    ``tables``); an entry cut off a table raises IndexError."""

    def rule(name, shift):
        table = tables.get(name, getattr(x, name, None))
        return lambda k, i, cell: cell_at(x.cells[k + shift], table[k][i][x.index(k)[cell]])

    degeneracy = rule("degeneracies", 1) if x.has_degeneracies else None
    return Rules(x.cells, rule("faces", -1), degeneracy)


def oracle_verdict(x, tables):
    try:
        if isinstance(x, SimplicialMap):
            maps = tables.get("maps", x.maps)
            return oracle_map_audit(
                x.source.D,
                rules_of(x.source, {}),
                rules_of(x.target, {}),
                lambda k, cell: cell_at(x.target.cells[k], maps[k][x.source.index(k)[cell]]),
            )
        return oracle_simplicial_audit(x.D, rules_of(x, tables))
    except StructureError as e:
        return str(e)


def audit_verdict(x, tables):
    y = copy.copy(x)
    vars(y).update(tables)
    try:
        return y.audit()
    except StructureError as e:
        return str(e)


def constructor_verdict(x, tables):
    try:
        if isinstance(x, SimplicialMap):
            SimplicialMap(x.source, x.target, tables["maps"])
        elif x.has_degeneracies:
            TruncatedSimplicialSet(x.D, x.cells, tables["faces"], tables["degeneracies"])
        else:
            SemiSimplicialSet(x.D, x.cells, tables["faces"])
    except StructureError as e:
        return str(e)
    return None


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_table_audits_match_the_per_cell_oracle(name):
    x = AUDITED[name]()
    assert audit_verdict(x, {}) == oracle_verdict(x, {}) == []
    outcomes = Counter()
    for seed in range(40):
        tables = corrupted(x, random.Random(seed))
        want = oracle_verdict(x, tables)
        # the same laws, witnesses and order, or the same structural error
        assert audit_verdict(x, tables) == want, seed
        if isinstance(want, str):
            outcomes["error"] += 1
            message = want
        elif want:
            outcomes["several" if len(want) > 1 else "one"] += 1
            maps = isinstance(x, SimplicialMap)
            lead = "structure maps do not commute" if maps else "face identities fail"
            message = f"{lead}, e.g. {want[0]}"
        else:
            message = None
        assert constructor_verdict(x, tables) == message, seed
    assert outcomes["error"] and outcomes["several"], outcomes


# --- builders and constructors refuse malformed tables


def test_builder_refuses_a_face_outside_the_degree_below():
    cells = [[0, 1], [("e",)]]
    for build in (simplicial_set, oracle_simplicial_set):
        with pytest.raises(StructureError, match="^face d_1 leaves degree 0$"):
            build(1, cells, lambda k, i, c: 1 if i == 0 else 2)


def test_builder_refuses_a_degeneracy_outside_the_degree_above():
    cells = [[0, 1], [("e",), ("id", 0), ("id", 1)]]
    with pytest.raises(StructureError, match="^degeneracy s_0 leaves degree 1$"):
        oracle_simplicial_set(
            1, cells, lambda k, i, c: c[1] if c[0] == "id" else 1 - i, lambda k, i, c: ("id", 2)
        )


def test_builder_refuses_a_map_image_outside_the_target():
    x = nerve(ordinal(1), 2)
    point = nerve(terminal_category(), 2)
    with pytest.raises(StructureError, match="^map image leaves target degree 0$"):
        oracle_simplicial_map(x, point, lambda k, cell: cell)
    with pytest.raises(StructureError, match="^map image leaves target degree 0$"):
        nerve_map(x, point, lambda v: v, lambda m: m)


def test_nerve_map_keeps_the_target_indexes_it_reads():
    """A nerve map looks its images up in the target's degree 0 and 1
    indexes, built on first use and kept for the next map; no other degree
    is indexed until asked for."""
    x = nerve(ordinal(2), 3)
    assert x._index == {}
    ident = nerve_map(x, x, lambda v: v, lambda m: m)
    assert ident.maps == [list(range(x.n_cells(k))) for k in range(4)]
    assert sorted(x._index) == [0, 1]
    kept = [x.index(0), x.index(1)]
    nerve_map(x, x, lambda v: v, lambda m: m)
    assert all(x.index(k) is index for k, index in enumerate(kept))
    assert x.index(3) == {cell: p for p, cell in enumerate(x.cells[3])}


def test_constructors_refuse_tables_of_the_wrong_length_or_range():
    cells = [[0, 1], [("e",)]]
    with pytest.raises(StructureError, match="^face d_1 undefined on a 1-cell$"):
        SemiSimplicialSet(1, cells, [None, [[1], []]])
    with pytest.raises(StructureError, match="^face d_0 leaves degree 0$"):
        SemiSimplicialSet(1, cells, [None, [[2], [0]]])
    with pytest.raises(StructureError, match="^degeneracy s_0 undefined on a 0-cell$"):
        TruncatedSimplicialSet(1, [[0], [("id",)]], [None, [[0], [0]]], [[[]]])
    x = nerve(ordinal(1), 1)
    with pytest.raises(StructureError, match="^map undefined on a 1-cell$"):
        SimplicialMap(x, x, [[0, 1], [0, 1]])
    with pytest.raises(StructureError, match="^map image leaves target degree 0$"):
        SimplicialMap(x, x, [[0, -1], [0, 1, 2]])
