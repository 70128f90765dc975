"""Comparison maps between fat realizations and stagewise products.

This module holds the canonical projection away from the stage factor, the
barycentric subdivision chain operator, the section built from maximal
flags and last-vertex collapses, the face-compatibility failure of the
naive coordinate-sorting assignment, and the comma fibers whose vanishing
reduced homology backs the projection being an equivalence.  The nerve
preserves pullbacks, so each comma fiber is the nerve of a pullback
category P, and P has at most one arrow between two points: it is a
poset.  A fiber is held as P's up-sets and audited as an order, C's own
law audit stands in for the projection onto unravel(C, N), and no
category but C is built.  The order complex of P is built only when P's
dismantling gets stuck, and degenerate cells inherit their core's report
through the degeneracy tables.

The projection's quasi-isomorphism check builds the stage product only
through degree d + 1 and takes H_k for k <= d off the nerve when the
projection's mapping cone certifies it; otherwise homology presentations
of both sides decide.

Flags are the chains of sorted tuples that :func:`fatcat.simpset.sd_flags`
lists.  Stage label convention for the section: a maximal flag
A_0 < ... < A_n of subsets of {0..n} is sent to the stage tuple
(|A_0|, ..., |A_n|) = (1, ..., n+1) read verbatim as labels, so the stage
bound must satisfy N >= D + 1.  The sign of a flag is the parity of the
permutation pi with A_i = {pi(0), ..., pi(i)}; this is the unique
convention under which the boundary identity holds already for the
interval.
"""

from collections import namedtuple
from itertools import combinations
from math import comb

from .errors import EnumerationLimitError, StructureError, Violation, check_budget
from .fincat import FinCategory, check_category
from .homology import (
    ChainMap,
    DegreeComparison,
    IntegerChainComplex,
    QuasiIsoReport,
    cell_matrix,
    check_degree_range,
    cone_certifies,
    deletion_complex,
    fat_chains,
    homology,
    identity_on_homology_through,
    induced_map,
    named_matrix,
    noncommuting_degrees,
    quasi_iso_through,
)
from .simpset import (
    SemiSimplicialSet,
    SimplicialMap,
    _compose,
    chain_composites,
    chain_count,
    chain_objects,
    check_size,
    maximal_flags,
    nerve,
    product_with_S,
    s_semisimplicial,
    sd_flags,
    stage_counts,
    truncation,
)


# ---------------------------------------------------------------------------
# The canonical projection


def projection_map(c: FinCategory, N: int, D: int) -> SimplicialMap:
    """Simplicial map from the stage product onto the nerve, (x, a) -> x."""
    return stage_projection(nerve(c, D), N)


def stage_projection(x, N: int) -> SimplicialMap:
    """Simplicial map from x times the stage complex on N + 1 stages onto
    x: the product k-cell at position p * |s_k| + q lies over the cell of x
    at p."""
    s = s_semisimplicial(N, x.D)
    maps = [[p for p in range(x.n_cells(k)) for _ in range(s.n_cells(k))]
            for k in range(x.D + 1)]
    return SimplicialMap(product_with_S(x, s), x, maps)


def projection_pi(c: FinCategory, N: int, D: int) -> ChainMap:
    """Chain-level projection on fat chains."""
    return induced_map(projection_map(c, N, D))


def projection_quasi_iso(c: FinCategory, N: int, D: int, d: int) -> QuasiIsoReport:
    """Is π a homology isomorphism in degrees <= d?  The verdict, groups
    and witnesses are those of :func:`quasi_iso_through` on
    ``projection_pi(c, N, D)``, for N >= d + 1.

    The nerve is built and audited through max(D, d + 2), and C's laws are
    audited after it.  The stage complex and the stage product are
    budgeted at D, as :func:`projection_pi` would, but they and π are built
    only through degree d + 1, the most that H_k for k <= d reads; π lands
    in the nerve's chains.  When :func:`cone_certifies` π, both sides of
    each degree take the nerve's group and no presentation is built.
    Otherwise, and when the nerve's extra degree is over budget,
    :func:`quasi_iso_through` decides on this π.
    """
    check_degree_range(d, D)
    try:
        ner = nerve(c, max(D, d + 2))
    except EnumerationLimitError:
        # decide without the cone; a refusal at D itself is raised again
        ner = nerve(c, D)
    _require(check_category(c), "C breaks a law")
    stages = stage_counts(N, D)
    check_size(SemiSimplicialSet, D, stages)
    check_size(SemiSimplicialSet, D, [ner.n_cells(k) * n for k, n in enumerate(stages)])
    pi = induced_map(stage_projection(truncation(ner, d + 1), N), fat_chains(ner))
    if ner.D > d + 1 and cone_certifies(pi, d):
        groups = (homology(pi.target, k) for k in range(d + 1))
        return QuasiIsoReport([DegreeComparison(g.degree, g, g, True) for g in groups], [])
    return quasi_iso_through(pi, d)


# ---------------------------------------------------------------------------
# Barycentric subdivision as a chain operator


def flag_chain_complex(n: int) -> IntegerChainComplex:
    """Chains on the barycentric subdivision of the n-simplex.

    A k-cell is a flag of :func:`sd_flags`, a strict chain of k+1 nonempty
    subsets of {0..n}; the face d_i deletes the i-th subset.
    """
    return deletion_complex([sd_flags(n, k) for k in range(n + 1)])


def subdivision_chain_operator(n: int):
    """Per-degree matrices of the subdivision operator Sd on the n-simplex.

    Sd sends a k-face to the signed sum of the (k+1)! maximal flags of that
    face, the maximal flags of {0..k} relabelled by the face's vertices.
    A face is an increasing tuple, so a relabelled part stays sorted.  The
    degree-k matrix maps simplex chains, the chains of the stage
    complex on n + 1 stages, to flag chains.
    """
    if n < 0:
        raise StructureError("n must be >= 0")
    flags = flag_chain_complex(n)
    simp = fat_chains(s_semisimplicial(n, n))
    top = [maximal_flags(k) for k in range(n + 1)]

    def terms(cell):
        for flag, sign in top[len(cell) - 1]:
            yield tuple(tuple(cell[v] for v in part) for part in flag), sign

    mats = [named_matrix(simp.basis[k], flags.basis[k], terms) for k in range(n + 1)]
    return simp, flags, mats


def subdivision_commutes(n: int):
    """Exact check of the boundary identity for Sd in every degree: one
    violation per degree where Sd does not commute."""
    simp, flags, mats = subdivision_chain_operator(n)
    return [Violation("subdivision-boundary", (n, k))
            for k in noncommuting_degrees(simp, flags, mats)]


# ---------------------------------------------------------------------------
# The flag section into the stage product


def apply_operator(x, k_from: int, u):
    """Position table of a monotone map u: [k_to] -> [k_from] on the
    k_from-cells of x.

    Standard peeling into faces (missed values) followed by degeneracies
    (repeated values), composed as whole tables; the identity is a range.
    """
    k_to = len(u) - 1
    image = set(u)
    for v in range(k_from + 1):
        if v not in image:
            reduced = tuple(val if val < v else val - 1 for val in u)
            return _compose(apply_operator(x, k_from - 1, reduced), x.faces[k_from][v])
    for i in range(k_to):
        if u[i] == u[i + 1]:
            dropped = u[: i + 1] + u[i + 2:]
            return _compose(x.degeneracies[k_to - 1][i], apply_operator(x, k_from, dropped))
    return range(x.n_cells(k_from))


def _check_stage_labels(N: int, D: int) -> None:
    if N < D + 1:
        raise StructureError("need N >= D + 1 so stage labels 1..D+1 exist")


def tau_chain_map(proj: SimplicialMap, pi: ChainMap, N: int) -> ChainMap:
    """Section of the projection on fat chains.

    ``proj`` is :func:`projection_map` at N stages and ``pi`` its induced
    map; the section runs from pi's target, the chains of the nerve x, back
    to pi's source, the chains of the stage product, so it lands on the
    complexes pi already holds.  A degree-n generator maps to the signed
    sum, over maximal flags of {0..n}, of its pullback along i -> max(A_i),
    the last entry of the sorted part A_i, paired with the stage tuple
    (1, ..., n+1).  Flags with one pullback u add their signs.  The
    product cell at positions (a, b) sits at a * |s_n| + b (see
    :func:`product_with_S`), where |s_n| = C(N+1, n+1) and (1, ..., n+1)
    comes right after the C(N, n) stage tuples that start at 0.
    """
    x, prod = proj.target, proj.source
    _check_stage_labels(N, x.D)
    if any(prod.n_cells(n) != x.n_cells(n) * comb(N + 1, n + 1) for n in range(x.D + 1)):
        raise StructureError("the projection's stage complex has another N")

    def matrix(n):
        signs = {}
        for flag, sign in maximal_flags(n):
            u = tuple(part[-1] for part in flag)
            signs[u] = signs.get(u, 0) + sign
        pullbacks = [(apply_operator(x, n, u), sign) for u, sign in signs.items() if sign]
        width, stage = comb(N + 1, n + 1), comb(N, n)
        return cell_matrix(
            prod.n_cells(n), x.n_cells(n),
            lambda j: ((table[j] * width + stage, sign) for table, sign in pullbacks),
        )

    return ChainMap(pi.target, pi.source, [matrix(n) for n in range(x.D + 1)])


def pi_tau_homology_check(c: FinCategory, N: int, D: int, d: int) -> QuasiIsoReport:
    """The collapse-after-subdivision composite must fix every homology
    class of the fat nerve in degrees <= d."""
    check_degree_range(d, D)
    _check_stage_labels(N, D)
    proj = projection_map(c, N, D)
    pi = induced_map(proj)
    return identity_on_homology_through(pi.compose(tau_chain_map(proj, pi, N)), d)


# ---------------------------------------------------------------------------
# The coordinate-sorting assignment and its failure


class BarycentricPoint(namedtuple("BarycentricPoint", "n coords")):
    """Exact rational point of the n-simplex."""

    __slots__ = ()

    def __new__(cls, n, coords):
        from fractions import Fraction

        if len(coords) != n + 1:
            raise StructureError("need n + 1 coordinates")
        total = Fraction(0)
        for t in coords:
            if not isinstance(t, Fraction):
                raise StructureError("coordinates must be exact rationals")
            if t < 0:
                raise StructureError("coordinates must be nonnegative")
            total += t
        if total != 1:
            raise StructureError("coordinates must sum to 1 exactly")
        return super().__new__(cls, n, coords)

    @classmethod
    def barycenter(cls, n):
        from fractions import Fraction

        return cls(n, tuple(Fraction(1, n + 1) for _ in range(n + 1)))


class RhoWitness(
    namedtuple(
        "RhoWitness",
        "n convention kind face_index point face_of_image image_of_face detail",
        defaults=("",),
    )
):
    """Concrete ill-definedness evidence for one reading of the assignment."""

    __slots__ = ()

    def to_json(self):
        from .ids import encode_id

        return {
            "n": self.n,
            "convention": self.convention,
            "kind": self.kind,
            "face_index": self.face_index,
            "point": [str(t) for t in self.point],
            "face_of_image": encode_id(self.face_of_image),
            "image_of_face": encode_id(self.image_of_face),
            "detail": self.detail,
        }


def _stage_tuple(convention, degree):
    if convention == "zero-based":
        return tuple(range(degree + 1))
    if convention == "literal":
        return tuple(range(1, degree + 1))
    raise StructureError(f"unknown convention: {convention}")


def rho_witnesses(n: int, convention: str):
    """Search one reading of the assignment for ill-definedness witnesses.

    The cell component attached to a degree-q generator is the fixed stage
    tuple given by the convention.  A face mismatch arises when deleting
    entry i from the degree-n stage tuple differs from the degree-(n-1)
    stage tuple; the literal reading additionally fails on dimension
    grounds since its tuple is one entry short.
    """
    if n < 1:
        raise StructureError("witness search needs n >= 1")
    witnesses = []
    point = BarycentricPoint.barycenter(n)
    seq_n = _stage_tuple(convention, n)
    seq_lower = _stage_tuple(convention, n - 1)
    if len(seq_n) != n + 1:
        witnesses.append(
            RhoWitness(
                n,
                convention,
                "dimension-mismatch",
                -1,
                point.coords,
                ("y", seq_n),
                ("y", seq_n),
                f"a degree-{n} generator is paired with a stage cell of "
                f"degree {len(seq_n) - 1}",
            )
        )
    for i in range(len(seq_n)):
        face_of_image = (f"d{i}(y)", seq_n[:i] + seq_n[i + 1:])
        image_of_face = (f"d{i}(y)", seq_lower)
        if face_of_image != image_of_face:
            witnesses.append(
                RhoWitness(
                    n,
                    convention,
                    "face-mismatch",
                    i,
                    point.coords,
                    face_of_image,
                    image_of_face,
                    "deleting the stage entry does not reproduce the "
                    "assignment on the face",
                )
            )
    return witnesses


# ---------------------------------------------------------------------------
# Comma fibers over nerve simplices


class CommaFiber(namedtuple("CommaFiber", "degree steps D")):
    """Comma fiber of a simplex y: [m] -> C against the stage
    forgetting functor: the nerve, truncated at D, of the poset P = [m]
    x_C unravel(C, N).  ``steps[v]`` lists, ascending, the points w >= v
    of P, the up-set of v."""

    __slots__ = ()


def _core_pattern(c: FinCategory, k: int, cell):
    """The degree k and the identity pattern of a nerve cell: the vertex
    pairs a0 < a1 whose composite is an identity.  A nondegenerate cell is
    its own core."""
    composite = chain_composites(c, chain_objects(c, k, cell), cell)
    return k, frozenset(
        pair for pair in combinations(range(k + 1), 2) if c.is_identity(composite[pair])
    )


def _require(violations, what):
    """Raise :class:`StructureError` naming the first violation, if any."""
    if violations:
        raise StructureError(f"{what}, e.g. {violations[0]}")


def _fiber_shape(m: int, pattern, N: int):
    """The up-sets of P, audited as an order; they depend only on the core
    degree m, N and the identity pattern."""
    # steps[v]: the points w >= v, ascending
    steps = {
        (a0, l0): [
            (a1, l1) for a1 in range(a0, m + 1) for l1 in range(l0, N + 1)
            if l0 < l1 or a0 == a1 or (a0, a1) in pattern
        ]
        for a0 in range(m + 1) for l0 in range(N + 1)
    }
    # P's points, arrows and composable pairs: the transitivity audit walks
    # each pair once
    check_budget(sum(chain_count(steps, 2)), "pullback category")
    _check_order(steps)
    return steps


def _check_order(steps):
    """Raise :class:`StructureError` unless ``steps`` are the up-sets of an
    order inside the product order of [m] x [N]: every step v -> w ends at
    a point and lowers neither the core vertex nor the stage, every point
    lies in its own up-set, and up[w] lies in up[v] for every step v -> w.
    The product order makes the relation antisymmetric."""
    up = {v: set(ws) for v, ws in steps.items()}
    _require([(v, w) for v, ws in steps.items() for w in ws
              if w not in up or w[0] < v[0] or w[1] < v[1]],
             "a step of P leaves the product order of [m] x [N]")
    _require([v for v, ws in up.items() if v not in ws], "P misses a reflexive step")
    _require([(v, w) for v, ws in up.items() for w in ws if not up[w] <= ws],
             "P misses a transitive step")


def quillen_fiber(c: FinCategory, N: int, D: int, y_cell, y_degree: int) -> CommaFiber:
    """Comma fiber of a nerve simplex, as the up-sets of a poset.

    The fiber is built for the simplex as given.  The sweep of
    :func:`all_fibers_contractible` passes only nondegenerate simplices,
    and degenerate cells inherit their core's report through the
    degeneracy tables.  The nerve preserves pullbacks, so the fiber of y:
    [m] -> C is the nerve of P = [m] x_C unravel(C, N): its points are the
    pairs (a, l) of a vertex and a stage, with one arrow (a0, l0) -> (a1,
    l1) when a0 <= a1, l0 <= l1 and either l0 < l1 or the composite a0 ->
    a1 of y is an identity.  The legs of the fiber are the nerves of the projections of P, (a, l) -> a
    and (a, l) -> (y(a), l).

    P has at most one arrow between two points, so it is a category
    exactly when its arrows are reflexive and transitive, and then the
    identity laws and associativity hold by themselves.  The projection
    onto [m] is a functor exactly when no arrow lowers a.  The projection
    onto unravel(C, N) sends (a0, l0) -> (a1, l1) to the lift of the
    composite a0 -> a1 from stage l0 to l1, which lies in unravel(C, N)
    when l0 <= l1 and the stage stays only over an identity; C is a
    category, so lifting its composites to unravel(C, N) preserves them,
    and :func:`all_fibers_contractible` audits C before the first fiber.
    So the up-sets are audited as an order inside the product order of
    [m] x [N], and neither P nor a projection is built as a category; a
    failed audit raises :class:`StructureError`.

    The up-sets depend only on m, N and the identity pattern, the pairs
    a0 < a1 whose composite is an identity.  P's points, arrows and
    composable pairs are counted from them and budgeted before the audit.
    """
    m, pattern = _core_pattern(c, y_degree, y_cell)
    return CommaFiber(m, _fiber_shape(m, pattern, N), D)


def dismantle(steps):
    """Remove beat points from the finite poset with up-sets ``steps``.

    A point x is a beat point when its strict up-set has a minimum or its
    strict down-set has a maximum, among the points still there; removing
    it is a strong deformation retraction of the order complex (Stong,
    "Finite topological spaces", 1966).  Passes over the points in the
    order of ``steps`` remove each beat point met, until one point is left
    or a pass removes none.  Returns the removals (x, w) in order, w the
    minimum or maximum that made x a beat point.
    """
    # the live strict up- and down-sets; up[w] lies in up[x] for w in
    # up[x], so w is its minimum when up[w] misses only w itself
    up = {v: set(ws) - {v} for v, ws in steps.items()}
    down = {v: set() for v in steps}
    for v, ws in up.items():
        for w in ws:
            down[w].add(v)
    removals = []
    removed = True
    while removed and len(up) > 1:
        removed = False
        for x in steps:
            if x not in up:
                continue
            w = next((w for w in up[x] if len(up[w]) == len(up[x]) - 1), None)
            if w is None:
                w = next((w for w in down[x] if len(down[w]) == len(down[x]) - 1), None)
            if w is None:
                continue
            for y in up.pop(x):
                down[y].discard(x)
            for y in down.pop(x):
                up[y].discard(x)
            removals.append((x, w))
            removed = True
            if len(up) == 1:
                break
    return removals


def replay_dismantling(steps, removals) -> bool:
    """Check a removal sequence against the up-sets ``steps``: each removed
    x must still be there, with its witness w the minimum of the other
    points above x or the maximum of those below it, and exactly one point
    must be left at the end."""
    up = {v: set(ws) for v, ws in steps.items()}
    live = set(steps)
    for x, w in removals:
        if x not in live or w not in live or w == x:
            return False
        live.discard(x)
        if w in up[x]:
            if not up[x] & live <= up[w]:
                return False
        elif x in up[w]:
            if not all(w in up[y] for y in live if x in up[y]):
                return False
        else:
            return False
    return len(live) == 1


def contractibility_report(fiber: CommaFiber, d: int):
    """Reduced homology of the fiber must vanish in degrees <= d: the
    violations, empty when it does.

    The fiber is the nerve of the poset P, so a replayed dismantling of P
    to one point proves it contractible.  A P with no beat point left
    before that, which may still be contractible, is decided by the
    homology of its order complex through degree D: its k-cells are the
    strict chains v_0 < ... < v_k of P and its face d_i deletes v_i, so its
    chains are the normalized chains of the nerve of P.  The chains are
    counted and budgeted before any is listed."""
    check_degree_range(d, fiber.D)
    if replay_dismantling(fiber.steps, dismantle(fiber.steps)):
        return []
    above = {v: [w for w in ws if w != v] for v, ws in fiber.steps.items()}
    check_size(SemiSimplicialSet, fiber.D, chain_count(above, fiber.D))
    cells = [[(v,) for v in above]]
    while len(cells) <= fiber.D:
        cells.append([chain + (w,) for chain in cells[-1] for w in above[chain[-1]]])
    chains = deletion_complex(cells)
    violations = []
    for k in range(d + 1):
        h = homology(chains, k)
        group = (h.betti, h.torsion)
        expected = (1, ()) if k == 0 else (0, ())
        if group != expected:
            violations.append(
                Violation(
                    "fiber-contractible",
                    (k,),
                    f"H_{k} = {group}, expected {expected}",
                )
            )
    return violations


def all_fibers_contractible(c: FinCategory, N: int, D: int, d: int):
    """Run the fiber check over every simplex of the truncated nerve.

    The fiber of a cell depends only on its nondegenerate core, and its
    poset P only on the core's degree and identity pattern.  The audits of
    nerve(C, D) and of C's laws come first.  Degenerate cells inherit their
    core's report through the degeneracy tables: s_i(q) has q's core, so it
    takes q's report, and only the cells that no s_i reaches, which are
    their own cores, have their pattern read.  C is a category, so lifting
    its composites to unravel(C, N) preserves them, and the projection of a
    fiber onto unravel(C, N) needs no check of its own (see
    :func:`quillen_fiber`); neither it nor unravel(C, N) is built.
    The cells are walked in order: the first cell of each pattern builds,
    audits and dismantles its P, and every cell gets its pattern's
    violations under its own ``(k, cell)`` prefix.  Returns the number of
    nerve cells checked and the violations in cell order.
    """
    check_degree_range(d, D)
    ner = nerve(c, D)
    _require(check_category(c), "C breaks a law")
    # numbers[key]: the pattern's position in reports, from 1
    numbers, reports = {}, [None]
    violations = []
    # here[p]: the pattern number of the p-th cell of the current degree, 0
    # until read.  Four bytes a cell: a list of references to the reports,
    # at eight, raised the run's peak RSS by the size of its top degree.
    here = ()
    for k in range(D + 1):
        inherited = memoryview(bytearray(4 * ner.n_cells(k))).cast("I")
        for table in ner.degeneracies[k - 1] if k else ():
            for p, q in enumerate(table):
                inherited[q] = here[p]
        here = inherited
        for p, cell in enumerate(ner.cells[k]):
            if not here[p]:
                key = _core_pattern(c, k, cell)
                if key not in numbers:
                    numbers[key] = len(reports)
                    reports.append(contractibility_report(quillen_fiber(c, N, D, cell, k), d))
                here[p] = numbers[key]
            violations += [Violation(v.law, (k, cell) + v.witness, v.detail)
                           for v in reports[here[p]]]
    return sum(map(len, ner.cells)), violations
