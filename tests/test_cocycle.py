import json
import random
import re
import sys
import types
from fractions import Fraction

import pytest

from fatcat import cocycle, simpset
from fatcat.cocycle import (
    GRID_DENOMINATOR,
    CocycleIsomorphism,
    CoveredComplex,
    GCocycle,
    base_chain_complex,
    bg_complex,
    blowup,
    blowup_vs_base,
    check_cocycle,
    check_isomorphism,
    check_partition_grid,
    classifying_chain_map,
    closure,
    cocycle_from_json,
    cocycle_to_json,
    covered_complex_from_json,
    covered_complex_to_json,
    partition_grid,
    partition_homotopy,
    pullback_is_restriction,
    universal_cocycle,
    _cover_nerve,
)
from fatcat.errors import EnumerationLimitError, StructureError, Violation
from fatcat.fincat import FinCategory, FinGroupoid
from fatcat.fixtures import (
    broken_circle_cocycle,
    broken_groupoid_bad_inverse,
    cyclic_groupoid,
    octahedron_complex,
    bundled_cocycles,
    circle_complex,
    circle_star_cover,
    edge_star_cover,
    hemisphere_cover,
    mobius_cocycle,
    pair_groupoid,
    random_two_complex,
    standard_groupoids,
    trivial_cocycle,
    vertex_star_cover,
    z2_groupoid,
)
from fatcat.homology import HomologyClasses, cellular_map, homology
from fatcat.ids import sort_key
from fatcat.intlinalg import IntMatrix
from fatcat.simpset import TruncatedSimplicialSet, nerve, unraveled_counts

from cocycle_calculus import (
    PartitionPoint,
    compose_isomorphisms,
    concat_cocycle,
    gamma,
    identity_isomorphism,
    restrict_to_layer,
    same_cocycle,
    same_covered_complex,
    stage_cover,
)
from oracles import (
    betti_torsion,
    column,
    is_zero,
    nondegenerate,
    oracle_check_cocycle,
    oracle_cover_nerve,
    oracle_homology,
    oracle_partition_homotopy,
    oracle_universal_cocycle,
    oracle_unravel_simplicial,
)


def test_closure_and_validation():
    faces = closure([(0, 1, 2)])
    assert (0, 1) in faces and (2,) in faces
    with pytest.raises(StructureError):
        CoveredComplex([(0, 1)], [[(0, 1)]])  # not downward closed
    with pytest.raises(StructureError):
        CoveredComplex(closure([(0, 1)]), [[(0,), (1,)]])  # cover misses the edge


def test_overlap_components():
    cc = circle_star_cover()
    assert cc.components_of_overlap((0, 1)) == ((0, 1), (2,))
    ec = edge_star_cover()
    assert ec.components_of_overlap((0, 1)) == ((1,),)
    assert ec.components_of_overlap((0, 1, 2)) == ()


def nerve_covers():
    """The bundled covers, seeded vertex-star covers and a 2-simplex with
    three isolated points, each point its own cover set."""
    covers = {
        "circle-stars": circle_star_cover(),
        "edge-stars": edge_star_cover(),
        "hemispheres": hemisphere_cover(),
        "octahedron-stars": vertex_star_cover(octahedron_complex()),
        "single-set": CoveredComplex(circle_complex(), [circle_complex()]),
        "points": CoveredComplex(closure([(0, 1, 2), (3,), (4,), (5,)]),
                                 [closure([(0, 1, 2)]), [(3,)], [(4,)], [(5,)]]),
    }
    for seed in range(4):
        covers[f"vertex-stars-{seed}"] = vertex_star_cover(random_two_complex(seed=seed))
    return covers


@pytest.mark.parametrize("name", sorted(nerve_covers()))
def test_cover_nerve_matches_every_combination(name):
    cc = nerve_covers()[name]
    for top in range(len(cc.cover) + 1):
        assert list(_cover_nerve(cc, top)) == oracle_cover_nerve(cc, top)


def test_cover_nerve_leaves_out_empty_overlaps():
    # disjoint cover sets have no overlap, so only the sets themselves are left
    points = nerve_covers()["points"]
    assert [idx for idx, _ in _cover_nerve(points, 3)] == [(0,), (1,), (2,), (3,)]
    assert [idx for idx, _ in _cover_nerve(edge_star_cover(), 2)] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


def test_trivial_cocycle_passes():
    assert check_cocycle(trivial_cocycle(edge_star_cover())) == []
    single = CoveredComplex(circle_complex(), [circle_complex()])
    assert check_cocycle(trivial_cocycle(single)) == []


def test_mobius_cocycle_passes_vacuously():
    mob = mobius_cocycle()
    assert mob.base.components_of_overlap((0, 1, 2)) == ()
    assert check_cocycle(mob) == []


def test_incompatible_flips_are_reported():
    report = check_cocycle(broken_circle_cocycle())
    assert report
    assert all(v.law == "cocycle-law" for v in report)


def test_a_diagonal_flip_is_reported():
    u = mobius_cocycle()
    comp = u.base.components_of_overlap((0,))[0]
    flip = {**u.transitions, (0, 0, comp): ("*", "*", "s")}
    report = check_cocycle(GCocycle(u.base, u.groupoid, u.objects, flip))
    assert [(v.law, v.witness) for v in report] == [("diagonal-identity", (0, comp))]


def test_endpoint_mismatch_is_structural():
    pg = pair_groupoid()
    u = trivial_cocycle(edge_star_cover(), pg, "a")
    bad = dict(u.transitions)
    key = next(iter(bad))
    bad[key] = ("b", "b", "p")
    with pytest.raises(StructureError):
        check_cocycle(GCocycle(u.base, pg, u.objects, bad))


def test_identity_isomorphism_composes_to_identity():
    u = trivial_cocycle(edge_star_cover())
    iso = identity_isomorphism(u)
    assert check_isomorphism(iso) == []
    comp = compose_isomorphisms(iso, iso)
    assert comp.ok
    assert check_isomorphism(comp.iso) == []
    assert comp.iso.phi == iso.phi


def conjugation_iso(u, v, morphism):
    phi = {}
    for alpha in range(len(u.base.cover)):
        for gamma in range(len(v.base.cover)):
            for comp in u.base.components_of_overlap((alpha, gamma)):
                phi[(alpha, gamma, comp)] = morphism
    return CocycleIsomorphism(u, v, phi)


def test_conjugation_round_trip_is_identity():
    pg = pair_groupoid()
    ua = trivial_cocycle(edge_star_cover(), pg, "a")
    ub = trivial_cocycle(edge_star_cover(), pg, "b")
    up = conjugation_iso(ua, ub, ("a", "b", "p"))
    down = conjugation_iso(ub, ua, ("b", "a", "p"))
    assert check_isomorphism(up) == []
    comp = compose_isomorphisms(up, down)
    assert comp.ok
    assert set(comp.iso.phi.values()) == {("a", "a", "p")}


def test_flip_isomorphisms_compose():
    g = z2_groupoid()
    u = trivial_cocycle(edge_star_cover(), g)
    flip = ("*", "*", "s")
    phi = conjugation_iso(u, u, flip)
    assert check_isomorphism(phi) == []
    comp = compose_isomorphisms(phi, phi)
    assert comp.ok
    assert set(comp.iso.phi.values()) == {("*", "*", "e")}


def random_gauge_cocycle(seed):
    """Conjugate the trivial pair-groupoid cocycle by a random object gauge;
    always a valid cocycle, with a canonical comparison to the original."""
    rng = random.Random(seed)
    pg = pair_groupoid()
    base = edge_star_cover()
    gauge = {}
    for alpha in range(len(base.cover)):
        for comp in base.components_of_overlap((alpha,)):
            gauge[(alpha, comp)] = rng.choice(["a", "b"])
    objects = dict(gauge)
    transitions = {}
    for alpha in range(len(base.cover)):
        for beta in range(len(base.cover)):
            if alpha == beta:
                continue
            for comp in base.components_of_overlap((alpha, beta)):
                src = gauge[(alpha, base.component_containing((alpha,), comp))]
                tgt = gauge[(beta, base.component_containing((beta,), comp))]
                transitions[(alpha, beta, comp)] = (src, tgt, "p")
    u = GCocycle(base, pg, objects, transitions)
    ref = trivial_cocycle(base, pg, "a")
    phi = {}
    for alpha in range(len(base.cover)):
        for gamma in range(len(base.cover)):
            for comp in base.components_of_overlap((alpha, gamma)):
                tgt = gauge[(gamma, base.component_containing((gamma,), comp))]
                phi[(alpha, gamma, comp)] = ("a", tgt, "p")
    return u, CocycleIsomorphism(ref, u, phi)


def inverse_isomorphism(iso):
    inv = iso.source.groupoid.inverse
    phi = {
        (gamma, alpha, comp): inv[m]
        for (alpha, gamma, comp), m in iso.phi.items()
    }
    return CocycleIsomorphism(iso.target, iso.source, phi)


@pytest.mark.parametrize("seed", range(8))
def test_random_gauge_cocycles_compose(seed):
    u, into_u = random_gauge_cocycle(seed)
    v, into_v = random_gauge_cocycle(seed + 100)
    assert check_cocycle(u) == []
    assert check_isomorphism(into_u) == []
    back = compose_isomorphisms(inverse_isomorphism(into_u), into_v)
    assert back.ok
    assert check_isomorphism(back.iso) == []


def flip_cocycle(seed):
    """A Z/2 cocycle on a seeded vertex-star cover, every transition and
    every diagonal entry drawn at random, so the law fails on many triples
    and some diagonal entries are flips."""
    rng = random.Random(seed)
    u = trivial_cocycle(vertex_star_cover(random_two_complex(seed=seed)))
    flips = [("*", "*", "e"), ("*", "*", "s")]
    transitions = {key: rng.choice(flips) for key in u.transitions}
    for alpha, comp in u.objects:
        transitions[(alpha, alpha, comp)] = rng.choice(flips)
    return GCocycle(u.base, u.groupoid, u.objects, transitions)


def law_cases():
    cases = {**bundled_cocycles(), "broken-circle": broken_circle_cocycle()}
    for seed in range(4):
        cases[f"gauge-{seed}"] = random_gauge_cocycle(seed)[0]
        cases[f"flips-{seed}"] = flip_cocycle(seed)
    return cases


@pytest.mark.parametrize("name", sorted(law_cases()))
def test_check_cocycle_matches_the_triple_walk(name):
    u = law_cases()[name]
    assert check_cocycle(u) == oracle_check_cocycle(u)
    if name.startswith("flips"):
        laws = {v.law for v in check_cocycle(u)}
        assert laws == {"diagonal-identity", "cocycle-law"}


def test_check_cocycle_refuses_like_the_triple_walk():
    u = flip_cocycle(0)
    (alpha, beta, comp), m = next((k, m) for k, m in u.transitions.items() if k[0] != k[1])
    missing = {k: f for k, f in u.transitions.items() if k != (alpha, beta, comp)}
    # cover sets 0 and 1 of the points cover do not meet
    points = CoveredComplex(closure([(0, 1), (2,)]), [closure([(0, 1)]), [(2,)]])
    disjoint = trivial_cocycle(points)
    cases = [
        GCocycle(u.base, u.groupoid, u.objects, missing),
        GCocycle(u.base, u.groupoid, {**u.objects, (alpha, comp): "x"}, u.transitions),
        GCocycle(u.base, u.groupoid, dict(list(u.objects.items())[1:]), u.transitions),
        GCocycle(u.base, u.groupoid, u.objects, {**u.transitions, (alpha, beta, comp): "x"}),
        GCocycle(points, disjoint.groupoid, disjoint.objects,
                 {(0, 1, (0, 1)): m, **disjoint.transitions}),
    ]
    for v in cases:
        with pytest.raises(StructureError) as expected:
            oracle_check_cocycle(v)
        with pytest.raises(StructureError, match=f"^{re.escape(str(expected.value))}$"):
            check_cocycle(v)


def test_concat_trivial_prism():
    u = trivial_cocycle(edge_star_cover())
    iso = identity_isomorphism(u)
    prism = concat_cocycle(u, u, iso)
    assert check_cocycle(prism) == []
    assert same_cocycle(restrict_to_layer(prism, 3), u)
    assert same_cocycle(restrict_to_layer(prism, 0), u)


def test_concat_conjugated_prism():
    pg = pair_groupoid()
    ua = trivial_cocycle(edge_star_cover(), pg, "a")
    ub = trivial_cocycle(edge_star_cover(), pg, "b")
    iso = conjugation_iso(ua, ub, ("a", "b", "p"))
    prism = concat_cocycle(ua, ub, iso)
    assert check_cocycle(prism) == []
    assert same_cocycle(restrict_to_layer(prism, 3), ua)
    assert same_cocycle(restrict_to_layer(prism, 0), ub)


def test_bg_complex_terminal_and_cover():
    from fatcat.fixtures import terminal_category
    from fatcat.fincat import FinGroupoid

    term = terminal_category()
    g = FinGroupoid(term, {m: m for m in term.morphism_ids()})
    bg = bg_complex(g, 2, 2)
    assert [len(nondegenerate(bg, k)) for k in range(3)] == [3, 3, 1]
    cover = stage_cover(bg, 2)
    for j in range(3):
        for k in range(3):
            for cell in cover[j][k]:
                assert j in cell[0]


def test_bg_flip_group_nondegenerate_count():
    bg = bg_complex(z2_groupoid(), 2, 2)
    assert len(nondegenerate(bg, 1)) == 6


def test_bg_cover_intersection():
    cover = stage_cover(bg_complex(z2_groupoid(), 2, 2), 2)
    both = cover[0][1] & cover[2][1]
    assert both
    for cell in both:
        assert 0 in cell[0] and 2 in cell[0]


def test_bg_cover_is_computed_on_first_use():
    bg = bg_complex(z2_groupoid(), 2, 2)
    # the cover is the tests', not an attribute of the complex
    assert not hasattr(bg, "cover")
    assert stage_cover(bg, 2)[1][0] == frozenset([((1,), "*")])


def test_universal_cocycle_values():
    g = z2_groupoid()
    assert universal_cocycle(g, 2, 2) == []
    sigma = ("*", "*", "s")
    ident = ("*", "*", "e")
    gam = gamma(g, bg_complex(g, 2, 2), 2, ((0, 1, 2), (sigma, sigma)))
    assert gam[(0, 2)] == ident
    assert gam[(2, 0)] == ident
    assert gam[(0, 1)] == sigma
    assert gam[(1, 1)] == ident


@pytest.mark.parametrize("name", ["z2", "pair"])
def test_universal_cocycle_laws(name):
    from fatcat.fixtures import standard_groupoids

    g = standard_groupoids()[name]
    assert universal_cocycle(g, 3, 2) == []


def test_universal_cocycle_reports_a_bad_inverse():
    g = broken_groupoid_bad_inverse()
    for N, D in ((2, 1), (2, 2), (3, 2)):
        report = universal_cocycle(g, N, D)
        assert report
        assert {v.law for v in report} == {"universal-cocycle-law"}
    # the flip s has inverse e, so s after its declared inverse is not e
    s, e = ("*", "*", "s"), ("*", "*", "e")
    assert report[0].witness == (1, ((0, 1), (s,)), 0, 1, 0)
    cell = ((0, 1), (s,))
    assert gamma(g, bg_complex(g, N, D), 1, cell) == {(0, 0): e, (0, 1): s, (1, 0): e, (1, 1): e}


def mutated_groupoids(rng, count):
    """``count`` mutants of Z/2, Z/3, Z/4 and the pair groupoid in turn,
    each with one or two composition or inverse entries rewritten to
    another arrow, drawn by ``rng``."""
    bases = [cyclic_groupoid(2), cyclic_groupoid(3), cyclic_groupoid(4), pair_groupoid()]
    for n in range(count):
        g = bases[n % len(bases)]
        c = g.base
        mors = sorted(c.morphism_ids(), key=sort_key)
        table, inverse = dict(c.table), dict(g.inverse)
        for _ in range(rng.choice((1, 2))):
            entries = table if rng.random() < 0.5 else inverse
            key = rng.choice(sorted(entries, key=repr))
            entries[key] = rng.choice([f for f in mors if f != entries[key]])
        yield FinGroupoid(FinCategory(c.objects, c.morphisms, c.identity, table), inverse)


def face_compat(report):
    return sum(v.law == "universal-face-compat" for v in report)


def test_audited_nerves_need_no_face_check(monkeypatch):
    """The package checks no face compatibility: wherever the audit of
    nerve(G, 3) accepts a mutated table, at N = 2 and 3, the cell-by-cell
    oracle finds every face's transitions equal to its cell's, and its
    report is the package's.  With the simplicial identity audits patched
    out, the oracle finds faces that disagree, so the face check it keeps
    can fail."""
    mutants = list(mutated_groupoids(random.Random(0), 300))
    audited = 0
    for g in mutants:
        try:
            nerve(g.base, 3)
        except StructureError:
            continue
        for N in (2, 3):
            _, report = oracle_universal_cocycle(g, N, 3)
            assert face_compat(report) == 0, (g, N)
            assert universal_cocycle(g, N, 3) == report, (g, N)
            audited += 1
    assert audited >= 100
    # the tables are still checked for length and range
    monkeypatch.setattr(simpset, "_violations", lambda law, pairs, cells: [])
    unaudited = 0
    for g in mutants:
        c = g.base
        # a composite with other endpoints leaves the unaudited nerve
        # holding chains that do not compose
        if any((c.src[h], c.tgt[h]) != (c.src[f], c.tgt[k]) for (f, k), h in c.table.items()):
            continue
        _, report = oracle_universal_cocycle(g, 3, 3)
        unaudited += face_compat(report) > 0
    assert unaudited >= 10


def test_universal_cocycle_budgets_the_classifying_complex(monkeypatch):
    """The classifying complex is counted, not built: refused at one cell
    short of its count, with only the nerve built, and accepted at its
    count, still with only the nerve built."""
    g, N, D = cyclic_groupoid(3), 3, 3
    counts = unraveled_counts(nerve(g.base, D), N)
    assert counts == [len(cells) for cells in bg_complex(g, N, D).cells]
    built = []
    init = TruncatedSimplicialSet.__init__

    def counted(self, D, cells, *tables):
        built.append(list(map(len, cells)))
        init(self, D, cells, *tables)

    monkeypatch.setattr(TruncatedSimplicialSet, "__init__", counted)
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(sum(counts) - 1))
    with pytest.raises(EnumerationLimitError, match=f"TruncatedSimplicialSet needs {sum(counts)} "):
        universal_cocycle(g, N, D)
    assert built == [[1, 3, 9, 27]]
    monkeypatch.setenv("FATCAT_MAX_CELLS", str(sum(counts)))
    assert universal_cocycle(g, N, D) == []
    assert built == [[1, 3, 9, 27]] * 2


def test_universal_gamma_refuses_a_non_cell():
    g = z2_groupoid()
    bg = bg_complex(g, 2, 2)
    sigma = ("*", "*", "s")
    assert gamma(g, bg, 1, ((0, 2), (sigma,)))[(2, 0)] == sigma
    non_cells = [
        (1, ((0, 3), (sigma,))),  # stage 3 is past N
        (2, ((0, 2), (sigma,))),  # a 1-cell asked for in degree 2
        (3, ((0, 1, 1, 2), (sigma, sigma))),  # past D
        (-1, "*"),
        (0, ((0,), ("*", "*", "x"))),
    ]
    for k, cell in non_cells:
        with pytest.raises(StructureError):
            gamma(g, bg, k, cell)


def differential_groupoids():
    """Every standard groupoid, the bad-inverse one, and seeded Z/n with one
    inverse entry pointed at a wrong morphism."""
    out = dict(standard_groupoids())
    out["bad-inverse"] = broken_groupoid_bad_inverse()
    for seed in range(3):
        rng = random.Random(seed)
        g = cyclic_groupoid(rng.randint(3, 4))
        mors = sorted(g.inverse, key=sort_key)
        m = rng.choice(mors)
        inverse = dict(g.inverse)
        inverse[m] = rng.choice([f for f in mors if f != g.inverse[m]])
        out[f"corrupted-seed-{seed}"] = FinGroupoid(g.base, inverse)
    return out


DIFFERENTIAL_GROUPOIDS = differential_groupoids()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GROUPOIDS))
def test_universal_cocycle_matches_the_cell_by_cell_oracle(name):
    g = DIFFERENTIAL_GROUPOIDS[name]
    witnesses = 0
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            tables, report = oracle_universal_cocycle(g, N, D)
            found = universal_cocycle(g, N, D)
            assert [v.to_json() for v in found] == [v.to_json() for v in report], (N, D)
            witnesses += len(report)
            bg = bg_complex(g, N, D)
            for (k, cell), table in tables.items():
                assert list(gamma(g, bg, k, cell).items()) == list(table.items())
            ref = oracle_unravel_simplicial(nerve(g.base, D), N)
            assert bg.cells == ref.cells
            assert bg.faces == ref.faces
            assert bg.degeneracies == ref.degeneracies
    assert (witnesses > 0) == (name not in standard_groupoids())


def test_partition_point_validation():
    with pytest.raises(StructureError):
        PartitionPoint((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(StructureError):
        PartitionPoint((Fraction(-1, 2), Fraction(3, 2)))


def rationals(numerators, q):
    return tuple(Fraction(n, q) for n in numerators)


def test_partition_homotopy_examples():
    # t = (1, 0, 0) at s = 1/2
    w, total = partition_homotopy((2, 0, 0), 1, 2)
    assert rationals(w, total) == (1, 0, 0)
    # t = (1/2, 1/2) at s = 1: w comes scaled by q * q
    w, total = partition_homotopy((1, 1), 2, 2)
    assert rationals(w, 4) == (Fraction(1, 2), 0)
    assert rationals(w, total) == (1, 0)
    # t = (1/3, 1/3, 1/3) at s = 0
    w, total = partition_homotopy((1, 1, 1), 0, 3)
    assert rationals(w, total) == rationals((1, 1, 1), 3)
    with pytest.raises(StructureError, match="s must lie in"):
        partition_homotopy((1, 1), 3, 2)


def test_partition_grid_is_exact():
    pairs, violations = check_partition_grid()
    assert pairs >= 100
    assert violations == []
    assert any(max(a) == GRID_DENOMINATOR for a in partition_grid())


def test_partition_homotopy_matches_the_fraction_oracle():
    """The integer formula against the Fraction one, as rationals: every
    grid point and seeded random points over q = 1..12, at every b / q."""
    rng = random.Random(0)
    cases = [(a, GRID_DENOMINATOR) for a in partition_grid()]
    for q in range(1, 13):
        for _ in range(8):
            cuts = sorted(rng.randint(0, q) for _ in range(rng.randint(0, 5)))
            cases.append((tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [q])), q))
    for a, q in cases:
        for b in range(q + 1):
            w, total = partition_homotopy(a, b, q)
            expected_w, expected_v = oracle_partition_homotopy(rationals(a, q), Fraction(b, q))
            assert rationals(w, q * q) == expected_w, (a, b, q)
            assert rationals(w, total) == expected_v, (a, b, q)


def test_passing_partition_grid_builds_no_fraction(monkeypatch):
    built = []

    def counted_fraction(*args):
        built.append(args)
        return Fraction(*args)

    # The grid imports Fraction where it builds one, so a stand-in
    # ``fractions`` module counts them.  Patching the real module's
    # attribute would break Fraction.__new__, which reads it.
    counting = types.ModuleType("fractions")
    counting.Fraction = counted_fraction
    monkeypatch.setitem(sys.modules, "fractions", counting)
    pairs, violations = check_partition_grid()
    assert (pairs, violations, built) == (350, [], [])
    # a witness is the one place it builds them
    monkeypatch.setattr(cocycle, "partition_homotopy", lambda a, b, q: (a, q + 1))
    assert check_partition_grid()[1] and built


def test_blowup_circle_star_cover():
    rep = blowup_vs_base(circle_star_cover(), 1)
    assert rep.ok
    assert [betti_torsion(c.target) for c in rep.degrees] == [(1, ()), (1, ())]
    blow = blowup(circle_star_cover(), 2)
    for k in range(2):
        assert oracle_homology(blow, k) == betti_torsion(homology(blow, k))


def test_blowup_single_set_cover():
    single = CoveredComplex(circle_complex(), [circle_complex()])
    rep = blowup_vs_base(single, 1)
    assert rep.ok
    # the collapse sends (idx, face) to face when idx names one cover set
    collapse = cellular_map(blowup(single, 1), base_chain_complex(single, 1),
                            lambda cell: ((cell[1], 1),) if len(cell[0]) == 1 else ())
    assert collapse.matrices[1].ncols == collapse.matrices[1].nrows


def test_blowup_octahedron_hemispheres():
    rep = blowup_vs_base(hemisphere_cover(), 2)
    assert rep.ok
    assert [betti_torsion(c.source) for c in rep.degrees] == [(1, ()), (0, ()), (1, ())]


def test_blowup_random_star_cover():
    faces = random_two_complex(seed=7)
    assert len(faces) <= 50
    cover = vertex_star_cover(faces)
    assert blowup_vs_base(cover, 2).ok


def test_classifying_map_trivial_single_set():
    single = CoveredComplex(circle_complex(), [circle_complex()])
    u = trivial_cocycle(single)
    mat = classifying_chain_map(u, 2, 2).matrices[0]
    hit_rows = {i for i in range(mat.nrows) for j in range(mat.ncols) if mat.rows[i][j]}
    assert len(hit_rows) == 1
    assert pullback_is_restriction(u, 2, 2) == []


def test_classifying_map_mobius_hits_flips():
    u = mobius_cocycle()
    cm = classifying_chain_map(u, 2, 2)
    sigma = ("*", "*", "s")
    mat = cm.matrices[1]
    flip_rows = [
        i
        for i, cell in enumerate(cm.target.basis[1])
        if cell[1] == (sigma,)
    ]
    hits = sum(mat.rows[i][j] for i in flip_rows for j in range(mat.ncols))
    assert hits == 1
    assert pullback_is_restriction(u, 2, 2) == []


def test_classifying_map_induced_h1():
    # the trivial class maps to zero, the flipped class to the generator
    cases = {"trivial": (trivial_cocycle(edge_star_cover()), (0,)),
             "mobius": (mobius_cocycle(), (1,))}
    for name, (u, expected) in cases.items():
        cm = classifying_chain_map(u, 2, 2)
        src = HomologyClasses(cm.source, 1)
        tgt = HomologyClasses(cm.target, 1)
        assert src.betti == 1 and tgt.torsion == (2,)
        tor, free = tgt.coords(cm.matrices[1].mulvec(src.generators[0]))
        assert tor == expected and free == ()


def test_classifying_map_index_overflow():
    u = mobius_cocycle()
    with pytest.raises(StructureError):
        classifying_chain_map(u, 1, 2)


@pytest.mark.parametrize("name", sorted(bundled_cocycles()))
def test_bundled_cocycles_pull_back_to_restrictions(name):
    u = bundled_cocycles()[name]
    assert check_cocycle(u) == []
    classifying_chain_map(u, 3, 2)
    assert pullback_is_restriction(u, 3, 2) == []


def test_incompatible_flips_do_not_pull_back_to_restrictions():
    """On the triple overlap, the classifying cell's 0 -> 2 transition
    composes u's flip from 0 to 1 with its identity from 1 to 2, a flip,
    where u has the identity."""
    report = pullback_is_restriction(broken_circle_cocycle(), 3, 2)
    assert report == [
        Violation("pullback-restriction", ((0, 1, 2), (v,), a, b),
                  "gamma ('*', '*', 's') vs ('*', '*', 'e')")
        for v in range(3) for a, b in ((0, 2), (2, 0))
    ]


def bundled_and_generated_covers():
    """The bundled covers, and vertex-star covers of seeded random
    complexes, as the benchmark generates them."""
    covers = {
        "edge-stars": edge_star_cover(),
        "circle-stars": circle_star_cover(),
        "hemispheres": hemisphere_cover(),
    }
    for seed in range(20):
        try:
            faces = random_two_complex(seed=seed)
        except StructureError:  # more than 50 faces after closure
            continue
        covers[f"random-stars-{seed}"] = vertex_star_cover(faces)
    return covers


def test_covered_complex_json_roundtrip():
    covers = bundled_and_generated_covers()
    assert len(covers) > 10
    for name, cc in covers.items():
        doc = json.loads(json.dumps(covered_complex_to_json(cc)))
        assert same_covered_complex(covered_complex_from_json(doc), cc), name


def test_cocycle_json_roundtrip():
    for name, u in bundled_cocycles().items():
        doc = json.loads(json.dumps(cocycle_to_json(u)))
        again = cocycle_from_json(doc)
        assert same_cocycle(again, u), name


def split_blowup_differential(total, k):
    """Separate the index-deleting and face parts of one total boundary."""
    idx_map = {cell: i for i, cell in enumerate(total.basis[k - 1])}
    cech = [[0] * total.rank(k) for _ in range(total.rank(k - 1))]
    simp = [[0] * total.rank(k) for _ in range(total.rank(k - 1))]
    for j, (indices, face) in enumerate(total.basis[k]):
        for i, v in enumerate(column(total.boundary[k], j)):
            if not v:
                continue
            child = total.basis[k - 1][i]
            if len(child[0]) == len(indices) - 1:
                cech[i][j] = v
            else:
                simp[i][j] = v
    return (
        IntMatrix(cech, ncols=total.rank(k)),
        IntMatrix(simp, ncols=total.rank(k)),
    )


def test_blowup_differentials_square_to_zero_and_anticommute():
    blow = blowup(circle_star_cover(), 2)
    pieces = {k: split_blowup_differential(blow, k) for k in range(1, blow.D + 1)}
    # both parts are present, so the identities below cannot hold vacuously
    assert not any(is_zero(part) for parts in pieces.values() for part in parts)
    for k in range(2, blow.D + 1):
        cech_hi, simp_hi = pieces[k]
        cech_lo, simp_lo = pieces[k - 1]
        assert is_zero(cech_lo.mul(cech_hi))
        assert is_zero(simp_lo.mul(simp_hi))
        mixed = cech_lo.mul(simp_hi)
        other = simp_lo.mul(cech_hi)
        summed = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(mixed.rows, other.rows)
        ]
        assert all(not v for row in summed for v in row)


def test_flip_gauge_isomorphisms_random():
    import random as _random

    g = z2_groupoid()
    u = trivial_cocycle(edge_star_cover(), g)
    rng = _random.Random(5)
    for _ in range(6):
        first = ("*", "*", rng.choice(["e", "s"]))
        second = ("*", "*", rng.choice(["e", "s"]))
        phi = conjugation_iso(u, u, first)
        psi = conjugation_iso(u, u, second)
        assert check_isomorphism(phi) == []
        comp = compose_isomorphisms(phi, psi)
        assert comp.ok
        assert check_isomorphism(comp.iso) == []


def test_concat_mobius_prism():
    u = mobius_cocycle()
    iso = identity_isomorphism(u)
    assert check_isomorphism(iso) == []
    prism = concat_cocycle(u, u, iso)
    assert check_cocycle(prism) == []
    assert same_cocycle(restrict_to_layer(prism, 3), u)
    assert same_cocycle(restrict_to_layer(prism, 0), u)


def test_universal_cocycle_all_small_parameters():
    for g in (z2_groupoid(), pair_groupoid()):
        for N in (2, 3, 4):
            for D in (2, 3):
                assert universal_cocycle(g, N, D) == [], (N, D)


def test_universal_gamma_orientation_on_pair_groupoid():
    # on a groupoid with distinct objects the forward value must run from
    # the object at the lower stage to the object at the higher one
    g = pair_groupoid()
    cell = ((0, 1), (("a", "b", "p"),))
    gam = gamma(g, bg_complex(g, 2, 2), 1, cell)
    assert gam[(0, 1)] == ("a", "b", "p")
    assert gam[(1, 0)] == ("b", "a", "p")
    assert gam[(0, 0)] == ("a", "a", "p")
    assert gam[(1, 1)] == ("b", "b", "p")


def test_blowup_star_cover_of_octahedron():
    cover = vertex_star_cover(sorted(octahedron_complex()))
    rep = blowup_vs_base(cover, 2)
    assert rep.ok
    assert [betti_torsion(c.target) for c in rep.degrees] == [(1, ()), (0, ()), (1, ())]
