"""Bundled desk-scale examples: categories, groupoids, complexes, covers and
cocycles used by the verification suites and the command line."""

from .errors import StructureError
from .fincat import FinCategory, FinGroupoid, ordinal


def terminal_category() -> FinCategory:
    return ordinal(0)


def idempotent_monoid_category() -> FinCategory:
    """One object, morphisms {id, s} with s o s = s."""
    obj = "*"
    e = (obj, obj, "id")
    s = (obj, obj, "s")
    compose = {
        (e, e): e,
        (e, s): s,
        (s, e): s,
        (s, s): s,
    }
    return FinCategory([obj], [(e, obj, obj), (s, obj, obj)], {obj: e}, compose)


def z2_groupoid() -> FinGroupoid:
    """The group of order two as a one-object groupoid."""
    obj = "*"
    e = (obj, obj, "e")
    s = (obj, obj, "s")
    compose = {
        (e, e): e,
        (e, s): s,
        (s, e): s,
        (s, s): e,
    }
    base = FinCategory([obj], [(e, obj, obj), (s, obj, obj)], {obj: e}, compose)
    return FinGroupoid(base, {e: e, s: s})


def cyclic_groupoid(n) -> FinGroupoid:
    """The cyclic group Z/n as a one-object groupoid; morphism k is the
    residue k, composed by addition mod n."""
    obj = "*"
    mor = [(obj, obj, k) for k in range(n)]
    compose = {(f, g): mor[(f[2] + g[2]) % n] for f in mor for g in mor}
    base = FinCategory([obj], [(m, obj, obj) for m in mor], {obj: mor[0]}, compose)
    return FinGroupoid(base, {m: mor[-m[2] % n] for m in mor})


def pair_groupoid(objects=("a", "b")) -> FinGroupoid:
    """Exactly one morphism between every ordered pair of objects."""
    objs = list(objects)
    morphisms = [((x, y, "p"), x, y) for x in objs for y in objs]
    identity = {x: (x, x, "p") for x in objs}
    compose = {}
    for x in objs:
        for y in objs:
            for z in objs:
                compose[((x, y, "p"), (y, z, "p"))] = (x, z, "p")
    base = FinCategory(objs, morphisms, identity, compose)
    inverse = {(x, y, "p"): (y, x, "p") for x in objs for y in objs}
    return FinGroupoid(base, inverse)


def broken_category_rewired_identity() -> FinCategory:
    """The arrow category with one composite rewired, so id o f = f fails."""
    c = ordinal(1)
    table = dict(c.table)
    table[((0, 0, "le"), (0, 1, "le"))] = (1, 1, "le")
    return FinCategory(c.objects, c.morphisms, c.identity, table)


def broken_groupoid_bad_inverse() -> FinGroupoid:
    """Order-two groupoid whose flip is declared self-inverse incorrectly."""
    g = z2_groupoid()
    e = ("*", "*", "e")
    s = ("*", "*", "s")
    return FinGroupoid(g.base, {e: e, s: e})


def standard_categories():
    """Catalog used by the law suites: name -> category."""
    cats = {
        "terminal": terminal_category(),
        "ordinal-1": ordinal(1),
        "ordinal-2": ordinal(2),
        "ordinal-3": ordinal(3),
        "idempotent-monoid": idempotent_monoid_category(),
        "z2": z2_groupoid().base,
        "pair": pair_groupoid().base,
    }
    return cats


def standard_groupoids():
    return {"z2": z2_groupoid(), "pair": pair_groupoid()}


# ---------------------------------------------------------------------------
# Covered complexes and cocycles


def circle_complex():
    """Triangle boundary: three vertices, three edges, no filling."""
    from .cocycle import closure

    faces = closure([(0, 1), (1, 2), (0, 2)])
    return faces


def edge_star_cover():
    """The circle covered by the three closed edge stars.

    Pairwise overlaps are single vertices and the triple overlap is empty.
    """
    from .cocycle import CoveredComplex, closure

    faces = circle_complex()
    cover = [closure([(0, 1)]), closure([(1, 2)]), closure([(0, 2)])]
    return CoveredComplex(faces, cover)


def vertex_star_cover(faces):
    """Cover of a complex by the closed stars of its vertices."""
    from .cocycle import CoveredComplex, closure

    vertices = sorted({v for f in faces for v in f})
    cover = []
    for v in vertices:
        star = [f for f in faces if v in f]
        cover.append(closure(star))
    return CoveredComplex(faces, cover)


def circle_star_cover():
    return vertex_star_cover(circle_complex())


def octahedron_complex():
    """Boundary of the octahedron: vertex pairs (0,1), (2,3), (4,5) are the
    antipodal axes; every triangle picks one vertex per axis."""
    from .cocycle import closure

    triangles = [
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    return closure(triangles)


def hemisphere_cover():
    """Octahedron covered by the two closed hemispheres around vertices 4
    and 5; they share the equatorial square."""
    from .cocycle import CoveredComplex, closure

    faces = octahedron_complex()
    north = closure([f for f in faces if len(f) == 3 and 4 in f])
    south = closure([f for f in faces if len(f) == 3 and 5 in f])
    return CoveredComplex(faces, [north, south])


def random_two_complex(seed=7, n_vertices=7, n_triangles=9):
    """Seeded random pure-ish 2-complex with at most 50 faces after closure."""
    import random

    from .cocycle import closure

    rng = random.Random(seed)
    triangles = set()
    while len(triangles) < n_triangles:
        tri = tuple(sorted(rng.sample(range(n_vertices), 3)))
        triangles.add(tri)
    faces = closure(sorted(triangles))
    if len(faces) > 50:
        raise StructureError("random complex exceeded the 50-face budget")
    return faces


def _cocycle(base, g, obj, flipped=()):
    """Every cover component at one object and every transition its
    identity, except the Z/2 flip over each overlap of the flipped pair."""
    from .cocycle import GCocycle

    ident = g.base.identity[obj]
    n = len(base.cover)
    objects = {(alpha, comp): obj for alpha in range(n) for comp in base.components_of_overlap((alpha,))}
    transitions = {
        (alpha, beta, comp): ("*", "*", "s") if {alpha, beta} == set(flipped) else ident
        for alpha in range(n) for beta in range(n) if alpha != beta
        for comp in base.components_of_overlap((alpha, beta))
    }
    return GCocycle(base, g, objects, transitions)


def trivial_cocycle(base, groupoid=None, at=None):
    """All transitions are the identity at a single object."""
    g = groupoid if groupoid is not None else z2_groupoid()
    return _cocycle(base, g, at if at is not None else g.objects[0])


def mobius_cocycle():
    """Flip-valued transitions on the circle with the edge-star cover.

    The triple overlap is empty, so the cocycle law is vacuous and a single
    flipped overlap is allowed; this is the combinatorial Moebius class.
    """
    return _cocycle(edge_star_cover(), z2_groupoid(), "*", (0, 2))


def broken_circle_cocycle():
    """Star-covered circle with two incompatible flips on a nonempty triple
    overlap, violating the composition law."""
    return _cocycle(circle_star_cover(), z2_groupoid(), "*", (0, 1))


def bundled_cocycles():
    """Cocycles exercised by the classifying-map suite."""
    from .cocycle import CoveredComplex

    single = CoveredComplex(circle_complex(), [circle_complex()])
    return {
        "trivial-single-set": trivial_cocycle(single),
        "trivial-circle": trivial_cocycle(edge_star_cover()),
        "mobius-circle": mobius_cocycle(),
        "trivial-pair": trivial_cocycle(edge_star_cover(), pair_groupoid(), "a"),
    }
