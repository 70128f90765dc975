import json
import random
from collections import Counter

import pytest

from fatcat import fincat
from fatcat.comparison import quillen_fiber
from fatcat.errors import EnumerationLimitError, StructureError, Violation
from fatcat.fincat import (
    FinCategory,
    FinGroupoid,
    Functor,
    NatTransformation,
    category_from_json,
    category_to_json,
    check_category,
    check_functor,
    check_groupoid,
    check_natural,
    compose_functors,
    forgetful,
    groupoid_from_json,
    groupoid_to_json,
    identity_functor,
    ordinal,
    ordinal_unravel_equivalences,
    unravel,
)
from fatcat.fixtures import (
    broken_category_rewired_identity,
    broken_groupoid_bad_inverse,
    cyclic_groupoid,
    idempotent_monoid_category,
    pair_groupoid,
    standard_categories,
    standard_groupoids,
    terminal_category,
    z2_groupoid,
)
from fatcat.ids import sort_ids, sort_key

from oracles import (
    oracle_check_category,
    oracle_check_functor,
    poset_category,
    simplex_leg,
    unraveled_leg,
)
from test_chain_layer import CATEGORIES as FIBER_CATEGORY_FIXTURES
from test_chain_layer import FIBER_CATEGORIES, core_cells


def sort_differential_categories():
    """Every fixture category, their unravelings at N = 2 and 3, ordinal(m)
    for m <= 4, and a pair groupoid on mixed identifiers."""
    cats = dict(standard_categories())
    cats["rewired"] = broken_category_rewired_identity()
    cats["bad-inverse"] = broken_groupoid_bad_inverse().base
    cats.update({f"z{n}": cyclic_groupoid(n).base for n in range(2, 6)})
    for name, c in list(cats.items()):
        for N in (2, 3):
            cats[f"{name}-unravel-{N}"] = unravel(c, N)
    cats.update({f"ordinal-{m}": ordinal(m) for m in range(5)})
    cats["mixed-pair"] = pair_groupoid((2, "b", (1, "a"), (1, 2), ("a",), ((0,), "x"))).base
    return cats


def test_sort_ids_matches_sort_key():
    """Native comparison, with its fallback, orders every identifier set
    the way ``sort_key`` does, from a shuffled start; the mixed pair
    groupoid reaches the fallback."""
    rng = random.Random(3)
    fallbacks = 0
    for name, c in sort_differential_categories().items():
        for ids, key in ((c.objects, None), (c.morphisms, lambda m: m[0])):
            ids = rng.sample(ids, len(ids))
            by_key = sorted(ids, key=lambda v: sort_key(v if key is None else key(v)))
            assert sort_ids(ids, key=key) == by_key, name
            try:
                sorted(ids, key=key)
            except TypeError:
                fallbacks += 1
        assert sort_ids(c.objects) == list(c.objects)
    assert fallbacks == 2


def brute_force_unravel_morphisms(c, N):
    """Independent enumeration: all (f, i <= j) minus non-identities over i = i."""
    count = 0
    for m, _, _ in c.morphisms:
        for i in range(N + 1):
            for j in range(i, N + 1):
                if i == j and not c.is_identity(m):
                    continue
                count += 1
    return count


def test_ordinal_counts():
    assert len(ordinal(0).objects) == 1 and len(ordinal(0).morphisms) == 1
    assert len(ordinal(1).objects) == 2 and len(ordinal(1).morphisms) == 3
    assert len(ordinal(3).objects) == 4 and len(ordinal(3).morphisms) == 10


def test_truncated_nat_counts():
    assert len(ordinal(0).morphisms) == 1
    assert len(ordinal(2).objects) == 3
    assert len(ordinal(2).morphisms) == 6
    assert len(ordinal(4).objects) == 5
    assert len(ordinal(4).morphisms) == 15


def test_check_category_accepts_lawful_fixtures():
    for name, cat in standard_categories().items():
        assert check_category(cat) == [], name


def test_check_category_idempotent_monoid():
    assert check_category(idempotent_monoid_category()) == []


def test_check_category_names_the_rewired_pair():
    report = check_category(broken_category_rewired_identity())
    assert report
    laws = {(v.law, v.witness) for v in report}
    assert ("identity-law", ((0, 1, "le"), (0, 0, "le"))) in laws


def test_check_category_names_the_non_associative_triple():
    """f: 0 -> 1, g: 1 -> 2, h: 2 -> 3 compose to p as h(gf) but to q as
    (hg)f; every other law holds, so the triple is the only violation."""
    f, g, h = (0, 1, "f"), (1, 2, "g"), (2, 3, "h")
    gf, hg, p, q = (0, 2, "gf"), (1, 3, "hg"), (0, 3, "p"), (0, 3, "q")
    arrows = [f, g, h, gf, hg, p, q]
    identity = {x: (x, x, "id") for x in range(4)}
    compose = {(f, g): gf, (g, h): hg, (gf, h): p, (f, hg): q}
    for m in arrows + list(identity.values()):
        compose[(identity[m[0]], m)] = m
        compose[(m, identity[m[1]])] = m
    c = FinCategory(range(4), [(m, m[0], m[1]) for m in arrows + list(identity.values())],
                    identity, compose)
    assert check_category(c) == [Violation("associativity", (f, g, h), "h(gf) != (hg)f")]


def test_check_category_structural_error_on_dangling_ids():
    c = ordinal(1)
    broken = FinCategory(
        c.objects,
        list(c.morphisms) + [((9, 9, "le"), 9, 9)],
        c.identity,
        c.table,
    )
    with pytest.raises(StructureError):
        check_category(broken)


def test_missing_composite_is_reported_in_memory_and_refused_on_load():
    c = ordinal(1)
    pair = ((0, 0, "le"), (0, 1, "le"))
    table = {k: v for k, v in c.table.items() if k != pair}
    partial = FinCategory(c.objects, c.morphisms, c.identity, table)
    assert [(v.law, v.witness) for v in check_category(partial)] == [("compose-total", pair)]
    with pytest.raises(StructureError):
        category_from_json(category_to_json(partial))


def audit(check, c):
    """The law report of ``check`` on c, or the message it refuses c with."""
    try:
        return check(c)
    except StructureError as exc:
        return str(exc)


def doctored(c, rng):
    """c with one to three seeded defects in its tables: a rewired
    composite, a dropped entry, an entry on a pair that does not compose, an
    identity moved to another arrow, or a composite moved to a parallel
    arrow, which breaks associativity or a unit law and nothing else.  The
    table comes in a shuffled order, so the audit must order what it
    reports itself."""
    mids = c.morphism_ids()
    entries = sorted(c.table.items(), key=lambda kv: sort_key(kv[0]))
    identity, table = dict(c.identity), dict(rng.sample(entries, len(entries)))
    for _ in range(rng.randint(1, 3)):
        pair = rng.choice(sorted(table, key=sort_key))
        kind = rng.randrange(5)
        if kind == 0:
            table[pair] = rng.choice(mids)
        elif kind == 1:
            del table[pair]
        elif kind == 2:
            table[(rng.choice(mids), rng.choice(mids))] = rng.choice(mids)
        elif kind == 3:
            identity[rng.choice(c.objects)] = rng.choice(mids)
        else:
            h = table[pair]
            table[pair] = rng.choice([m for m in mids if c.src[m] == c.src[h]
                                      and c.tgt[m] == c.tgt[h]])
    return FinCategory(c.objects, c.morphisms, identity, table)


def test_check_category_matches_the_identifier_keyed_oracle():
    """Same violations, same witnesses, same order, or the same refusal."""
    cases = list(standard_categories().values())
    cases += [idempotent_monoid_category(), broken_category_rewired_identity(),
              broken_groupoid_bad_inverse().base]
    cases += [unravel(ordinal(n), N) for n in range(4) for N in range(6)]
    cases += [unravel(g.base, N) for g in standard_groupoids().values() for N in range(4)]
    rng = random.Random(0)
    bases = [ordinal(2), z2_groupoid().base, pair_groupoid().base, unravel(ordinal(1), 2),
             unravel(z2_groupoid().base, 2), idempotent_monoid_category()]
    cases += [doctored(rng.choice(bases), rng) for _ in range(300)]
    cases += dangling_ids(ordinal(1))
    found, refusals = set(), set()
    for c in cases:
        expected = audit(oracle_check_category, c)
        assert audit(check_category, c) == expected, c
        if isinstance(expected, list):
            found.update(v.law for v in expected)
        else:
            refusals.add(expected.split(" ")[0])
    # the doctored tables reach every law, and the dangling ids every refusal
    assert found == {"identity-endpoints", "compose-total", "compose-domain",
                     "compose-endpoints", "identity-law", "associativity"}
    assert refusals == {"morphism", "identity", "composition"}


def dangling_ids(c):
    """c with ids that name nothing, one kind or several at once, so the
    refusal must be the first one the loader's check meets."""
    first, *_ = c.table
    (x, m), stray = next(iter(c.identity.items())), ("dangling",)
    ident, arrows = c.identity, list(c.morphisms)
    to_nowhere, from_nowhere = ((0, 9, "x"), 0, 9), ((9, 1, "y"), 9, 1)
    tables = [{**c.table, first: stray}, {**c.table, (stray, m): m},
              {**c.table, (m, stray): m, (stray, m): m}]
    cases = [(arrows, {y: f for y, f in ident.items() if y != x}, c.table),
             (arrows, {**ident, 9: m}, c.table),
             (arrows, {**ident, x: stray}, tables[0]),
             (arrows + [from_nowhere], ident, c.table),
             (arrows + [to_nowhere, from_nowhere], {**ident, x: stray}, tables[1])]
    cases += [(arrows, ident, table) for table in tables]
    return [FinCategory(c.objects, *case) for case in cases]


def functor_cases():
    """Every functor of the ordinal equivalences at (1, 2), (2, 4) and
    (3, 5), the forgetful functor of each standard groupoid's unraveling
    at N = 3, and both quillen-a projections of every core of the fiber
    categories, at N = 2, D = 3, both built by the oracle on the pullback
    category of the package's up-sets."""
    cases = []
    for n, N in ((1, 2), (2, 4), (3, 5)):
        bundle = ordinal_unravel_equivalences(n, N)
        cases += [bundle.pi0, bundle.pi1, bundle.pi2, bundle.iota1, bundle.iota2]
        cases += [*bundle.phi1[:2], *bundle.phi2[:2]]
    cases += [forgetful(unravel(g.base, 3)) for g in standard_groupoids().values()]
    for name in FIBER_CATEGORIES:
        c = FIBER_CATEGORY_FIXTURES[name]
        target = unravel(c, 2)
        for k, cell in core_cells(c):
            fib = quillen_fiber(c, 2, 3, cell, k)
            pullback = poset_category(fib.steps)
            cases += [simplex_leg(pullback, fib.degree),
                      unraveled_leg(c, target, cell, k, pullback)]
    return cases


def doctored_functors(F, rng):
    """F with a wrong object image, with a wrong arrow image, with both,
    and with a stray object or arrow image, each drawn by ``rng``; a
    target with no other object or arrow gets no wrong image of that
    kind."""
    x, m = rng.choice(F.source.objects), rng.choice(F.source.morphism_ids())
    others = [y for y in F.target.objects if y != F.omap[x]]
    omap = {**F.omap, x: rng.choice(others)} if others else F.omap
    others = [f for f in F.target.morphism_ids() if f != F.mmap[m]]
    mmap = {**F.mmap, m: rng.choice(others)} if others else F.mmap
    stray = ("stray",)
    return [F._replace(omap=omap), F._replace(mmap=mmap), F._replace(omap=omap, mmap=mmap),
            F._replace(omap={**F.omap, x: stray}), F._replace(mmap={**F.mmap, m: stray})]


def test_check_functor_matches_the_identifier_keyed_oracle():
    """The same violations, as a multiset, or the same refusal.  Only the
    composition witnesses may come in another order: the package's in (f,
    g) position order, the oracle's in the source table's order."""
    rng = random.Random(0)
    cases = []
    for F in functor_cases():
        cases += [F, *doctored_functors(F, rng)]
    found, refusals, reordered = set(), set(), 0
    for F in cases:
        expected, got = audit(oracle_check_functor, F), audit(check_functor, F)
        if isinstance(expected, str):
            assert got == expected
            refusals.add(expected.split(" ")[0])
            continue
        assert Counter(got) == Counter(expected)

        def others(violations):
            return [v for v in violations if v.law != "functor-composition"]

        assert others(got) == others(expected)
        number = F.source.numbering.number
        pairs = [tuple(map(number.get, v.witness)) for v in got
                 if v.law == "functor-composition"]
        assert pairs == sorted(pairs)
        found.update(v.law for v in expected)
        reordered += got != expected
    # the doctored maps reach every law and both refusals, and in some the
    # table order is not the position order
    assert found == {"functor-endpoints", "functor-identity", "functor-composition"}
    assert refusals == {"object", "morphism"}
    assert reordered


def test_check_groupoid_fixtures():
    assert check_groupoid(z2_groupoid()) == []
    assert check_groupoid(pair_groupoid()) == []


def test_check_groupoid_bad_inverse_names_flip():
    report = check_groupoid(broken_groupoid_bad_inverse())
    flip = ("*", "*", "s")
    assert any(v.law == "right-inverse" and v.witness[0] == flip for v in report)


def test_an_inverse_with_wrong_endpoints_is_reported():
    g = pair_groupoid()
    f, wrong = ("a", "b", "p"), ("a", "a", "p")
    report = check_groupoid(FinGroupoid(g.base, {**g.inverse, f: wrong}))
    assert [(v.law, v.witness) for v in report] == [("inverse-endpoints", (f, wrong))]


def test_check_groupoid_partial_inverse_is_structural():
    g = z2_groupoid()
    with pytest.raises(StructureError):
        check_groupoid(type(g)(g.base, {("*", "*", "e"): ("*", "*", "e")}))


def test_unravel_counts_against_enumeration():
    c = ordinal(1)
    u = unravel(c, 2)
    assert len(u.objects) == 6
    assert len(u.morphisms) == 15
    assert len(u.morphisms) == brute_force_unravel_morphisms(c, 2)

    g = z2_groupoid().base
    uz = unravel(g, 1)
    assert len(uz.morphisms) == 4 == brute_force_unravel_morphisms(g, 1)
    assert sorted(m[2][2] for m in uz.morphism_ids()) == ["e", "e", "e", "s"]


def test_unravel_is_always_a_category():
    for n in range(4):
        for N in range(6):
            assert check_category(unravel(ordinal(n), N)) == []
    for g in standard_groupoids().values():
        assert check_category(unravel(g.base, 3)) == []


def test_unravel_object_count():
    for c in (ordinal(2), z2_groupoid().base, pair_groupoid().base):
        for N in (0, 1, 3):
            assert len(unravel(c, N).objects) == len(c.objects) * (N + 1)


def test_unravel_terminal_matches_truncated_nat():
    N = 3
    u = unravel(terminal_category(), N)
    t = ordinal(N)
    omap = {(0, i): i for i in range(N + 1)}
    mmap = {m: (m[0][1], m[1][1], "le") for m in u.morphism_ids()}
    from fatcat.fincat import Functor

    f = Functor(u, t, omap, mmap)
    assert check_functor(f) == []
    assert len(set(omap.values())) == len(t.objects)
    assert len(set(mmap.values())) == len(t.morphisms)


def test_unravel_is_refused_before_any_morphism_is_built(monkeypatch):
    lifts = []
    mid = fincat.mid
    monkeypatch.setattr(fincat, "mid", lambda *args: lifts.append(args) or mid(*args))
    monkeypatch.delenv("FATCAT_MAX_CELLS", raising=False)
    eight = pair_groupoid(tuple("abcdefgh")).base
    # 1,400 unraveled morphisms and 20,664 composable pairs
    with pytest.raises(EnumerationLimitError, match="^UnraveledCategory needs 22064 cells"):
        unravel(eight, 6)
    assert lifts == []


@pytest.mark.parametrize(
    "cat, N",
    [
        (ordinal(2), 3),
        (z2_groupoid().base, 3),
        (pair_groupoid().base, 3),
        (pair_groupoid(tuple("abcdefgh")).base, 6),
    ],
    ids=["ordinal-2", "z2", "pair", "pair-8"],
)
def test_unravel_budget_counts_every_morphism_and_composite(monkeypatch, cat, N):
    monkeypatch.setenv("FATCAT_MAX_CELLS", "100000")
    u = unravel(cat, N)
    total = len(u.morphisms) + len(u.table)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total))
    assert unravel(cat, N).table == u.table
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(total - 1))
    with pytest.raises(EnumerationLimitError, match=f"needs {total} cells"):
        unravel(cat, N)


def test_forgetful_functor():
    u = unravel(ordinal(1), 2)
    f = forgetful(u)
    assert check_functor(f) == []
    assert f.mmap[((0, 0), (1, 2), (0, 1, "le"))] == (0, 1, "le")
    assert set(f.omap.values()) == set(ordinal(1).objects)
    assert set(f.mmap.values()) == set(ordinal(1).morphism_ids())


def test_forgetful_rejects_plain_categories():
    with pytest.raises(StructureError):
        forgetful(ordinal(2))


@pytest.mark.parametrize("n,N", [(1, 2), (0, 0), (2, 4)])
def test_ordinal_unravel_equivalences(n, N):
    bundle = ordinal_unravel_equivalences(n, N)
    assert bundle.report == []


def test_equivalences_report_doctored_functors(monkeypatch):
    """An identity functor that moves one object and a forgetful functor
    that sends one arrow to an identity break every comparison the bundle
    makes."""
    identity, forget = fincat.identity_functor, fincat.forgetful

    def moving_identity(c):
        F = identity(c)
        return F._replace(omap={**F.omap, c.objects[0]: c.objects[-1]})

    def collapsing_forgetful(cN):
        F = forget(cN)
        m = next(m for m in cN.morphism_ids() if not F.target.is_identity(F.mmap[m]))
        return F._replace(mmap={**F.mmap, m: F.target.identity[F.target.objects[0]]})

    monkeypatch.setattr(fincat, "identity_functor", moving_identity)
    monkeypatch.setattr(fincat, "forgetful", collapsing_forgetful)
    report = ordinal_unravel_equivalences(1, 2).report
    assert Counter(v.law for v in report) == {
        "pi0-functor-endpoints": 1,
        "pi0-functor-composition": 2,
        "pi1-iota1-identity": 1,
        "pi2-iota2-identity": 1,
        "phi1-component-endpoints": 1,
        "phi2-component-endpoints": 1,
        "pi0-factorization": 1,
    }


def test_check_natural_reports_wrong_component_endpoints():
    """A component 0 -> 1 at object 0 of the identity transformation on
    ordinal(1) has the wrong target, and no square through it commutes."""
    c = ordinal(1)
    F = identity_functor(c)
    up = (0, 1, "le")
    report = check_natural(NatTransformation(F, F, {0: up, 1: c.identity[1]}))
    assert [(v.law, v.witness) for v in report] == [
        ("component-endpoints", (0, up)),
        ("naturality", ((0, 0, "le"),)),
        ("naturality", (up,)),
    ]


def test_check_natural_reports_a_square_that_does_not_commute():
    """From the identity of BZ/2 to the trivial functor, the identity
    component would need s = e."""
    c = z2_groupoid().base
    e, s = c.identity["*"], ("*", "*", "s")
    trivial = Functor(c, c, {"*": "*"}, {m: e for m in c.morphism_ids()})
    report = check_natural(NatTransformation(identity_functor(c), trivial, {"*": e}))
    assert [(v.law, v.witness) for v in report] == [("naturality", (s,))]


def test_equivalences_phi1_identity_on_ordered_objects():
    bundle = ordinal_unravel_equivalences(2, 3)
    cN = bundle.pi0.source
    for (k, l), m in bundle.phi1.component.items():
        if k <= l:
            assert m == cN.identity[(k, l)]


def test_pi0_is_the_forgetful_functor():
    bundle = ordinal_unravel_equivalences(1, 2)
    assert bundle.pi0 == forgetful(bundle.pi0.source)
    assert compose_functors(bundle.pi2, bundle.pi1) == bundle.pi0


def test_equivalences_require_enough_stages():
    with pytest.raises(StructureError):
        ordinal_unravel_equivalences(3, 2)


def test_functor_composition_identity():
    c = ordinal(2)
    assert compose_functors(identity_functor(c), identity_functor(c)) == identity_functor(c)


def test_category_json_roundtrip():
    for cat in (ordinal(2), unravel(ordinal(1), 1), pair_groupoid().base):
        doc = json.loads(json.dumps(category_to_json(cat)))
        again = category_from_json(doc)
        assert again == cat


def test_groupoid_json_roundtrip():
    for g in standard_groupoids().values():
        doc = json.loads(json.dumps(groupoid_to_json(g)))
        again = groupoid_from_json(doc)
        assert again.base == g.base and again.inverse == g.inverse


def test_json_serialization_is_sorted():
    doc = category_to_json(pair_groupoid().base)
    assert doc["objects"] == sorted(doc["objects"], key=lambda x: json.dumps(x))
    ids = [json.dumps(m["id"]) for m in doc["morphisms"]]
    assert ids == sorted(ids)
