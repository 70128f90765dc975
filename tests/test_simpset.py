from itertools import combinations

import pytest

from fatcat.errors import EnumerationLimitError, StructureError
from fatcat.fincat import ordinal, unravel
from fatcat.fixtures import pair_groupoid, terminal_category, z2_groupoid
from fatcat.simpset import (
    BarycentricFlag,
    SemiSimplicialSet,
    TruncatedSimplicialSet,
    lemma42_bijection,
    maximal_flags,
    nerve,
    product_with_S,
    s_semisimplicial,
    sd_flags,
    unravel_nerve_isomorphism,
    unravel_simplicial,
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


def test_nerve_terminal_is_a_point():
    ner = nerve(terminal_category(), 3)
    assert [ner.n_cells(k) for k in range(4)] == [1, 1, 1, 1]


def test_nondegenerate_cells_have_no_identity_arrow():
    for cat in (ordinal(2), z2_groupoid().base, pair_groupoid().base):
        ner = nerve(cat, 3)
        for k in range(1, 4):
            for cell in ner.cells[k]:
                plain = not any(cat.is_identity(m) for m in cell)
                assert plain == (not ner.is_degenerate(k, cell))


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
    assert s.face(2, 1, (0, 2, 3)) == (0, 3)


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


def test_product_face_is_componentwise():
    ner = nerve(z2_groupoid().base, 2)
    s = s_semisimplicial(2, 2)
    p = product_with_S(ner, s)
    sigma = ("*", "*", "s")
    cell = ((sigma, sigma), (0, 1, 2))
    assert p.face(2, 0, cell) == ((sigma,), (1, 2))


def test_unravel_simplicial_degree_one_count():
    y = nerve(ordinal(1), 2)
    u = unravel_simplicial(y, 2)
    assert u.n_cells(1) == 15
    assert u.n_cells(1) == len(unravel(ordinal(1), 2).morphisms)


def test_unravel_simplicial_face_keeps_cell_in_shared_group():
    y = nerve(ordinal(1), 2)
    u = unravel_simplicial(y, 2)
    assert u.face(1, 0, ((0, 0), 0)) == ((0,), 0)
    assert u.face(1, 1, ((0, 0), 1)) == ((0,), 1)


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
                fs, fz = u.face(k, i, (seq, z))
                assert (fz, fs) == p.face(k, i, (z, seq))


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


def test_sd_flags_counts():
    assert len(sd_flags(0, 0)) == 1
    assert len(sd_flags(1, 1)) == 2 == brute_force_flag_count(1, 1)
    maximal = [
        f
        for f in sd_flags(2, 2)
        if all(len(f.chain[i]) == i + 1 for i in range(3))
        and f.chain[-1] == frozenset({0, 1, 2})
    ]
    assert len(maximal) == 6
    assert len(sd_flags(2, 1)) == brute_force_flag_count(2, 1)


def test_flag_validation():
    with pytest.raises(StructureError):
        BarycentricFlag(1, (frozenset({0, 1}), frozenset({0})))
    with pytest.raises(StructureError):
        BarycentricFlag(1, (frozenset(), frozenset({0})))


def test_maximal_flags_signs():
    flags = dict()
    for f, sign in maximal_flags(1):
        flags[tuple(sorted(tuple(sorted(p)) for p in f.chain))] = sign
    assert flags[((0,), (0, 1))] == 1
    assert flags[((0, 1), (1,))] == -1


def test_audit_rejects_wrong_face_table():
    from fatcat.simpset import SemiSimplicialSet

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
        SemiSimplicialSet(2, cells2, face2)


def test_audit_rejects_swapped_group_rule():
    """Reading the stage groups after deletion breaks the face identities."""
    from fatcat.simpset import TruncatedSimplicialSet, _group_index, _in_multi_group

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
    face = [None]
    for n in range(1, 3):
        tables = []
        for i in range(n + 1):
            table = {}
            for seq, z in cells[n]:
                rest = seq[:i] + seq[i + 1:]
                # wrong rule: apply the face of the underlying cell whenever
                # the stage value still occurs after deletion
                if seq[i] in rest and len(set(seq)) > 1:
                    table[(seq, z)] = (rest, y.face(len(set(seq)) - 1, _group_index(seq, i), z))
                else:
                    table[(seq, z)] = (rest, z)
            tables.append(table)
        face.append(tables)
    degeneracy = []
    for n in range(2):
        tables = []
        for i in range(n + 1):
            tables.append({(seq, z): (seq[: i + 1] + seq[i:], z) for seq, z in cells[n]})
        degeneracy.append(tables)
    with pytest.raises(StructureError):
        TruncatedSimplicialSet(2, cells, face, degeneracy)
