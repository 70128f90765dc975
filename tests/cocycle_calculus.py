"""What the tests need of ``fatcat.cocycle`` beyond what its commands run.

* The cocycle isomorphism calculus: identity and composite comparisons
  between cocycles on one complex, and their concatenation over a prism.
  ``fatcat.cocycle`` keeps :class:`CocycleIsomorphism` and
  :func:`check_isomorphism`, which validates a comparison as a cocycle on
  the joint cover.
* Field-wise equality of covered complexes and cocycles.
* The stage cover and the canonical transitions of one cell of the
  classifying complex.
* Validated partition points.

No command or claim of the package runs these, so they live with the tests
that exercise them.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from fatcat.cocycle import (
    CocycleIsomorphism,
    CoveredComplex,
    GCocycle,
    _components,
    _cross_overlap,
    _transition_table,
)
from fatcat.errors import StructureError, Violation, check_budget
from fatcat.ids import sort_key

from oracles import cell_index


def same_covered_complex(a: CoveredComplex, b: CoveredComplex) -> bool:
    return a.faces == b.faces and a.cover == b.cover


def same_cocycle(u: GCocycle, v: GCocycle) -> bool:
    return (
        same_covered_complex(u.base, v.base)
        and u.groupoid == v.groupoid
        and u.objects == v.objects
        and u.transitions == v.transitions
    )


def _cross_component(base_u, base_v, alpha, gamma, face):
    for comp in _components(_cross_overlap(base_u, base_v, alpha, gamma)):
        if set(face) <= set(comp):
            return comp
    raise StructureError(f"face {face} is not in the cross overlap ({alpha}, {gamma})")


def iso_value(iso: CocycleIsomorphism, alpha, gamma, face):
    """The morphism of ``iso`` over the cross-overlap component holding face."""
    comp = _cross_component(iso.source.base, iso.target.base, alpha, gamma, face)
    return iso.phi[(alpha, gamma, comp)]


def identity_isomorphism(u: GCocycle) -> CocycleIsomorphism:
    phi = {}
    n = len(u.base.cover)
    for alpha in range(n):
        for beta in range(n):
            for comp in u.base.components_of_overlap((alpha, beta)):
                phi[(alpha, beta, comp)] = u.transition(alpha, beta, comp)
    return CocycleIsomorphism(u, u, phi)


@dataclass
class IsoComposition:
    iso: CocycleIsomorphism
    obstructions: list

    @property
    def ok(self):
        return not self.obstructions


def compose_isomorphisms(phi: CocycleIsomorphism, psi: CocycleIsomorphism) -> IsoComposition:
    """Composite comparison u -> w through v.

    The mediating value is computed on every component of every triple
    cross overlap and must be independent of the middle index; any
    disagreement is returned as an obstruction instead of being assumed
    away.
    """
    u = phi.source
    v = phi.target
    w = psi.target
    if not same_cocycle(psi.source, v):
        raise StructureError("isomorphisms are not composable")
    cat = u.groupoid.base
    rho = {}
    obstructions = []
    for alpha in range(len(u.base.cover)):
        for eps in range(len(w.base.cover)):
            cross = _cross_overlap(u.base, w.base, alpha, eps)
            for comp in _components(cross):
                candidates = {}
                for gamma in range(len(v.base.cover)):
                    triple = (
                        set(u.base.cover[alpha])
                        & set(v.base.cover[gamma])
                        & set(w.base.cover[eps])
                    )
                    for tcomp in _components(triple):
                        if not set(tcomp) <= set(comp):
                            continue
                        f1 = iso_value(phi, alpha, gamma, tcomp)
                        f2 = iso_value(psi, gamma, eps, tcomp)
                        candidates[(gamma, tcomp)] = cat.table[(f1, f2)]
                values = sorted(set(candidates.values()), key=sort_key)
                if not candidates:
                    raise StructureError(
                        f"middle cover misses component {comp} of ({alpha}, {eps})"
                    )
                if len(values) > 1:
                    obstructions.append(
                        Violation(
                            "mediator-disagreement",
                            (alpha, eps, comp),
                            f"values {values}",
                        )
                    )
                rho[(alpha, eps, comp)] = values[0]
    return IsoComposition(CocycleIsomorphism(u, w, rho), obstructions)


# ---------------------------------------------------------------------------
# Concatenation over a prism


def prism_complex(faces) -> frozenset:
    """Product of a complex with a three-segment interval, triangulated by
    staircase chains; vertices are pairs (x, level) with levels 0..3."""
    base_faces = frozenset(tuple(sorted(f)) for f in faces)
    out = set()
    for face in base_faces:
        for seg in range(3):
            pool = [(x, j) for x in face for j in (seg, seg + 1)]
            pool.sort(key=sort_key)

            def chains(prefix, rest):
                if prefix:
                    out.add(tuple(prefix))
                for idx, cand in enumerate(rest):
                    last = prefix[-1] if prefix else None
                    if last is None or (
                        sort_key(last[0]) <= sort_key(cand[0]) and last[1] <= cand[1]
                        and last != cand
                    ):
                        chains(prefix + [cand], rest[idx + 1:])

            chains([], pool)
    check_budget(len(out), "prism complex")
    return frozenset(out)


def _layer_levels(side):
    return (1, 2, 3) if side == "upper" else (0, 1, 2)


def concat_cocycle(u: GCocycle, v: GCocycle, iso: CocycleIsomorphism) -> GCocycle:
    """Cocycle on the prism joining u on the top band to v on the bottom,
    glued over the middle band by the isomorphism."""
    if not (same_cocycle(iso.source, u) and same_cocycle(iso.target, v)):
        raise StructureError("isomorphism does not join u to v")
    faces = u.base.faces
    prism_faces = prism_complex(faces)

    def lift(part, levels):
        allowed = set(levels)
        return [
            pf
            for pf in prism_faces
            if all(j in allowed for _, j in pf)
            and tuple(sorted({x for x, _ in pf})) in part
        ]

    nu = len(u.base.cover)
    nv = len(v.base.cover)
    cover = [lift(u.base.cover[a], _layer_levels("upper")) for a in range(nu)]
    cover += [lift(v.base.cover[g], _layer_levels("lower")) for g in range(nv)]
    prism = CoveredComplex(sorted(prism_faces, key=sort_key), cover)

    def project(comp):
        return tuple(sorted({x for x, _ in comp}))

    objects = {}
    for alpha in range(nu + nv):
        for comp in prism.components_of_overlap((alpha,)):
            shadow = project(comp)
            if alpha < nu:
                objects[(alpha, comp)] = u.object_at(alpha, shadow[:1])
            else:
                objects[(alpha, comp)] = v.object_at(alpha - nu, shadow[:1])
    transitions = {}
    for alpha in range(nu + nv):
        for beta in range(nu + nv):
            if alpha == beta:
                continue
            for comp in prism.components_of_overlap((alpha, beta)):
                shadow = project(comp)
                if alpha < nu and beta < nu:
                    val = u.transition(alpha, beta, shadow[:1])
                elif alpha >= nu and beta >= nu:
                    val = v.transition(alpha - nu, beta - nu, shadow[:1])
                elif alpha < nu:
                    val = iso_value(iso, alpha, beta - nu, shadow[:1])
                else:
                    val = u.groupoid.inverse[iso_value(iso, beta, alpha - nu, shadow[:1])]
                transitions[(alpha, beta, comp)] = val
    return GCocycle(prism, u.groupoid, objects, transitions)


def restrict_to_layer(prism_cocycle: GCocycle, level: int) -> GCocycle:
    """Slice a prism cocycle at one level, dropping cover sets that miss it."""
    base = prism_cocycle.base
    layer_faces = [f for f in base.faces if all(j == level for _, j in f)]
    if not layer_faces:
        raise StructureError(f"no faces at level {level}")

    def shadow(face):
        return tuple(sorted(x for x, _ in face))

    faces = [shadow(f) for f in layer_faces]
    kept = []
    cover = []
    for alpha, part in enumerate(base.cover):
        sliced = [shadow(f) for f in part if all(j == level for _, j in f)]
        if sliced:
            kept.append(alpha)
            cover.append(sliced)
    restricted = CoveredComplex(faces, cover)
    objects = {}
    transitions = {}
    for new_alpha, alpha in enumerate(kept):
        for comp in restricted.components_of_overlap((new_alpha,)):
            lifted = tuple((x, level) for x in comp)
            objects[(new_alpha, comp)] = prism_cocycle.object_at(alpha, lifted[:1])
    for ia, alpha in enumerate(kept):
        for ib, beta in enumerate(kept):
            if ia == ib:
                continue
            for comp in restricted.components_of_overlap((ia, ib)):
                lifted = ((comp[0], level),)
                transitions[(ia, ib, comp)] = prism_cocycle.transition(alpha, beta, lifted)
    return GCocycle(restricted, prism_cocycle.groupoid, objects, transitions)


# ---------------------------------------------------------------------------
# The classifying complex


def stage_cover(space, N):
    """``cover[j][k]``: the k-cells of the classifying complex ``space`` on
    stages 0..N whose stage tuple contains j, the combinatorial shadow of
    the j-th coordinate being positive."""
    return {
        j: tuple(
            frozenset(cell for cell in space.cells[k] if j in cell[0])
            for k in range(space.D + 1)
        )
        for j in range(N + 1)
    }


def gamma(g, space, k, cell):
    """Canonical transitions of the groupoid g on a k-cell of its
    classifying complex ``space``, keyed by stage pairs."""
    if not 0 <= k <= space.D or cell not in cell_index(space, k):
        raise StructureError(f"not a {k}-cell of the classifying complex: {cell}")
    # the nerve cell's transitions, vertex a at the a-th distinct stage
    seq, z = cell
    values = sorted(set(seq))
    table = _transition_table(g, len(values) - 1, z)
    return {(values[a], values[b]): f for (a, b), f in table.items()}


# ---------------------------------------------------------------------------
# Partition points


class PartitionPoint(namedtuple("PartitionPoint", "coords")):
    """Finitely supported exact partition values t_0, ..., t_N."""

    __slots__ = ()

    def __new__(cls, coords):
        total = Fraction(0)
        for t in coords:
            if not isinstance(t, Fraction):
                raise StructureError("partition values must be exact rationals")
            if t < 0:
                raise StructureError("partition values must be nonnegative")
            total += t
        if total != 1:
            raise StructureError("partition values must sum to 1 exactly")
        return super().__new__(cls, coords)
