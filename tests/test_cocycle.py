import json
import random
from fractions import Fraction

import pytest

from fatcat.cocycle import (
    CocycleIsomorphism,
    CoveredComplex,
    GCocycle,
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
    PartitionPoint,
    _face_failures,
)
from fatcat.errors import StructureError
from fatcat.fincat import FinGroupoid
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
from fatcat.homology import HomologyClasses, homology
from fatcat.ids import sort_key
from fatcat.intlinalg import IntMatrix
from fatcat.simpset import nerve

from cocycle_calculus import (
    compose_isomorphisms,
    concat_cocycle,
    identity_isomorphism,
    restrict_to_layer,
)
from oracles import (
    is_zero,
    oracle_homology,
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
        for comp in base.components_of_set(alpha):
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


def test_concat_trivial_prism():
    u = trivial_cocycle(edge_star_cover())
    iso = identity_isomorphism(u)
    prism = concat_cocycle(u, u, iso)
    assert check_cocycle(prism) == []
    assert restrict_to_layer(prism, 3) == u
    assert restrict_to_layer(prism, 0) == u


def test_concat_conjugated_prism():
    pg = pair_groupoid()
    ua = trivial_cocycle(edge_star_cover(), pg, "a")
    ub = trivial_cocycle(edge_star_cover(), pg, "b")
    iso = conjugation_iso(ua, ub, ("a", "b", "p"))
    prism = concat_cocycle(ua, ub, iso)
    assert check_cocycle(prism) == []
    assert restrict_to_layer(prism, 3) == ua
    assert restrict_to_layer(prism, 0) == ub


def test_bg_complex_terminal_and_cover():
    from fatcat.fixtures import terminal_category
    from fatcat.fincat import FinGroupoid

    term = terminal_category()
    g = FinGroupoid(term, {m: m for m in term.morphism_ids()})
    bg = bg_complex(g, 2, 2)
    assert [len(bg.space.nondegenerate(k)) for k in range(3)] == [3, 3, 1]
    for j in range(3):
        for k in range(3):
            for cell in bg.cover[j][k]:
                assert j in cell[0]


def test_bg_flip_group_nondegenerate_count():
    bg = bg_complex(z2_groupoid(), 2, 2)
    assert len(bg.space.nondegenerate(1)) == 6


def test_bg_cover_intersection():
    bg = bg_complex(z2_groupoid(), 2, 2)
    both = bg.cover[0][1] & bg.cover[2][1]
    assert both
    for cell in both:
        assert 0 in cell[0] and 2 in cell[0]


def test_bg_cover_is_computed_on_first_use():
    g = z2_groupoid()
    bg = bg_complex(g, 2, 2)
    assert bg.nerve.cells == nerve(g.base, 2).cells
    assert "cover" not in vars(bg)
    assert bg.cover[1][0] == frozenset([((1,), "*")])
    assert "cover" in vars(bg)


def test_universal_cocycle_values():
    uc = universal_cocycle(z2_groupoid(), 2, 2)
    assert uc.ok
    sigma = ("*", "*", "s")
    ident = ("*", "*", "e")
    gam = uc.gamma(2, ((0, 1, 2), (sigma, sigma)))
    assert gam[(0, 2)] == ident
    assert gam[(2, 0)] == ident
    assert gam[(0, 1)] == sigma
    assert gam[(1, 1)] == ident


@pytest.mark.parametrize("name", ["z2", "pair"])
def test_universal_cocycle_laws(name):
    from fatcat.fixtures import standard_groupoids

    g = standard_groupoids()[name]
    assert universal_cocycle(g, 3, 2).ok


def test_universal_cocycle_reports_a_bad_inverse():
    for N, D in ((2, 1), (2, 2), (3, 2)):
        uc = universal_cocycle(broken_groupoid_bad_inverse(), N, D)
        assert not uc.ok
        assert {v.law for v in uc.report} == {"universal-cocycle-law"}
    # the flip s has inverse e, so s after its declared inverse is not e
    s, e = ("*", "*", "s"), ("*", "*", "e")
    assert uc.report[0].witness == (1, ((0, 1), (s,)), 0, 1, 0)
    assert uc.gamma(1, ((0, 1), (s,))) == {(0, 0): e, (0, 1): s, (1, 0): e, (1, 1): e}


def transitions(m, forward):
    """A hand-built transition table on vertices 0..m from its forward
    entries: identities on the diagonal, formal inverses backward."""
    return {
        (a, b): "id" if a == b else forward[(a, b)] if a < b else ("inv", forward[(b, a)])
        for a in range(m + 1) for b in range(m + 1)
    }


def test_face_compat_names_the_mismatched_vertex_pair():
    """The face check can fire.  Over a 3-cell (f, g, h) of a table where
    h(gf) is not (hg)f, the face d_2 = (f, hg) runs from vertex 0 to its
    vertex 2 (the cell's vertex 3) by (hg)f, and the cell by the left fold
    h(gf).  An audited nerve at D >= 3 refuses such a table, so both are
    built by hand."""
    cell = transitions(3, {(0, 1): "f", (1, 2): "g", (2, 3): "h",
                           (0, 2): "gf", (1, 3): "hg", (0, 3): "h(gf)"})
    d2 = transitions(2, {(0, 1): "f", (1, 2): "hg", (0, 2): "(hg)f"})
    assert _face_failures(cell, d2, 2) == [(0, 2), (2, 0)]
    # d_1 = (gf, h) folds the way the cell does, so it agrees
    d1 = transitions(2, {(0, 1): "gf", (1, 2): "h", (0, 2): "h(gf)"})
    assert _face_failures(cell, d1, 1) == []


def test_universal_gamma_refuses_a_non_cell():
    uc = universal_cocycle(z2_groupoid(), 2, 2)
    sigma = ("*", "*", "s")
    assert uc.gamma(1, ((0, 2), (sigma,)))[(2, 0)] == sigma
    non_cells = [
        (1, ((0, 3), (sigma,))),  # stage 3 is past N
        (2, ((0, 2), (sigma,))),  # a 1-cell asked for in degree 2
        (3, ((0, 1, 1, 2), (sigma, sigma))),  # past D
        (-1, "*"),
        (0, ((0,), ("*", "*", "x"))),
    ]
    for k, cell in non_cells:
        with pytest.raises(StructureError):
            uc.gamma(k, cell)


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
            gamma, report = oracle_universal_cocycle(g, N, D)
            uc = universal_cocycle(g, N, D)
            assert [v.to_json() for v in uc.report] == [v.to_json() for v in report], (N, D)
            witnesses += len(report)
            for (k, cell), table in gamma.items():
                assert list(uc.gamma(k, cell).items()) == list(table.items())
            ours = uc.classifying.space
            ref = oracle_unravel_simplicial(uc.classifying.nerve, N)
            assert ours.cells == ref.cells
            assert ours.faces == ref.faces
            assert ours.degeneracies == ref.degeneracies
    assert (witnesses > 0) == (name not in standard_groupoids())


def test_partition_point_validation():
    with pytest.raises(StructureError):
        PartitionPoint((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(StructureError):
        PartitionPoint((Fraction(-1, 2), Fraction(3, 2)))


def test_partition_homotopy_examples():
    w, v = partition_homotopy((Fraction(1), Fraction(0), Fraction(0)), Fraction(1, 2))
    assert v == (1, 0, 0)
    w, v = partition_homotopy((Fraction(1, 2), Fraction(1, 2)), 1)
    assert w == (Fraction(1, 2), 0)
    assert v == (1, 0)
    t = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    _, v = partition_homotopy(t, 0)
    assert v == t


def test_partition_grid_is_exact():
    pairs, violations = check_partition_grid()
    assert pairs >= 100
    assert violations == []
    assert any(max(t) == 1 for t in partition_grid())


def test_blowup_circle_star_cover():
    rep = blowup_vs_base(circle_star_cover(), 1)
    assert rep.ok
    assert [c.target.group() for c in rep.degrees] == [(1, ()), (1, ())]
    blow = blowup(circle_star_cover())
    for k in range(2):
        assert oracle_homology(blow.total, k) == homology(blow.total, k).group()


def test_blowup_single_set_cover():
    single = CoveredComplex(circle_complex(), [circle_complex()])
    rep = blowup_vs_base(single, 1)
    assert rep.ok
    blow = blowup(single)
    assert blow.projection.matrices[1].ncols == blow.projection.matrices[1].nrows


def test_blowup_octahedron_hemispheres():
    rep = blowup_vs_base(hemisphere_cover(), 2)
    assert rep.ok
    assert [c.source.group() for c in rep.degrees] == [(1, ()), (0, ()), (1, ())]


def test_blowup_random_star_cover():
    faces = random_two_complex(seed=7)
    assert len(faces) <= 50
    cover = vertex_star_cover(faces)
    assert blowup_vs_base(cover, 2).ok


def test_classifying_map_trivial_single_set():
    single = CoveredComplex(circle_complex(), [circle_complex()])
    u = trivial_cocycle(single)
    cm = classifying_chain_map(u, 2, 2)
    mat = cm.chain_map.matrices[0]
    hit_rows = {i for i in range(mat.nrows) for j in range(mat.ncols) if mat.rows[i][j]}
    assert len(hit_rows) == 1
    assert pullback_is_restriction(u, 2, 2) == []


def test_classifying_map_mobius_hits_flips():
    u = mobius_cocycle()
    cm = classifying_chain_map(u, 2, 2)
    sigma = ("*", "*", "s")
    mat = cm.chain_map.matrices[1]
    flip_rows = [
        i
        for i, cell in enumerate(cm.chain_map.target.basis[1])
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
        src = HomologyClasses(cm.chain_map.source, 1)
        tgt = HomologyClasses(cm.chain_map.target, 1)
        assert src.betti == 1 and tgt.torsion == (2,)
        tor, free = tgt.coords(cm.chain_map.matrices[1].mulvec(src.generators[0]))
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
        assert covered_complex_from_json(doc) == cc, name


def test_cocycle_json_roundtrip():
    for name, u in bundled_cocycles().items():
        doc = json.loads(json.dumps(cocycle_to_json(u)))
        again = cocycle_from_json(doc)
        assert again == u, name


def split_blowup_differential(blow, k):
    """Separate the index-deleting and face parts of one total boundary."""
    total = blow.total
    idx_map = {cell: i for i, cell in enumerate(total.basis[k - 1])}
    cech = [[0] * total.rank(k) for _ in range(total.rank(k - 1))]
    simp = [[0] * total.rank(k) for _ in range(total.rank(k - 1))]
    for j, (indices, face) in enumerate(total.basis[k]):
        for i, v in enumerate(total.boundary[k].column(j)):
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
    blow = blowup(circle_star_cover())
    pieces = {k: split_blowup_differential(blow, k) for k in range(1, blow.total.D + 1)}
    # both parts are present, so the identities below cannot hold vacuously
    assert not any(is_zero(part) for parts in pieces.values() for part in parts)
    for k in range(2, blow.total.D + 1):
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
    assert restrict_to_layer(prism, 3) == u
    assert restrict_to_layer(prism, 0) == u


def test_universal_cocycle_all_small_parameters():
    for g in (z2_groupoid(), pair_groupoid()):
        for N in (2, 3, 4):
            for D in (2, 3):
                assert universal_cocycle(g, N, D).ok, (N, D)


def test_universal_gamma_orientation_on_pair_groupoid():
    # on a groupoid with distinct objects the forward value must run from
    # the object at the lower stage to the object at the higher one
    uc = universal_cocycle(pair_groupoid(), 2, 2)
    cell = ((0, 1), (("a", "b", "p"),))
    gam = uc.gamma(1, cell)
    assert gam[(0, 1)] == ("a", "b", "p")
    assert gam[(1, 0)] == ("b", "a", "p")
    assert gam[(0, 0)] == ("a", "a", "p")
    assert gam[(1, 1)] == ("b", "b", "p")


def test_blowup_star_cover_of_octahedron():
    cover = vertex_star_cover(sorted(octahedron_complex()))
    rep = blowup_vs_base(cover, 2)
    assert rep.ok
    assert [c.target.group() for c in rep.degrees] == [(1, ()), (0, ()), (1, ())]
