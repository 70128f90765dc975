"""Comparison maps between fat realizations and stagewise products.

This module holds the canonical projection away from the stage factor, the
barycentric subdivision chain operator, the section built from maximal
flags and last-vertex collapses, the face-compatibility failure of the
naive coordinate-sorting assignment, and the comma fibers whose vanishing
reduced homology backs the projection being an equivalence.  The nerve
preserves pullbacks, so each comma fiber is the nerve of a pullback
category, built by :func:`nerve`, and its legs are nerves of the two
projection functors.

Stage label convention for the section: a maximal flag A_0 < ... < A_n of
subsets of {0..n} is sent to the stage tuple (|A_0|, ..., |A_n|) =
(1, ..., n+1) read verbatim as labels, so the stage bound must satisfy
N >= D + 1.  The sign of a flag is the parity of the permutation pi with
A_i = {pi(0), ..., pi(i)}; this is the unique convention under which the
boundary identity holds already for the interval.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import StructureError, Violation, check_budget
from .fincat import FinCategory, mid, ordinal, unravel
from .homology import (
    ChainMap,
    IntegerChainComplex,
    QuasiIsoReport,
    cell_matrix,
    check_degree_range,
    deletion_complex,
    fat_chains,
    geometric_chains,
    homology,
    identity_on_homology_through,
    induced_map,
    named_matrix,
)
from .simpset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    _compose,
    chain_composites,
    chain_count,
    maximal_flags,
    nerve,
    nerve_map,
    product_with_S,
    s_semisimplicial,
    sd_flags,
)


# ---------------------------------------------------------------------------
# The canonical projection


def projection_map(c: FinCategory, N: int, D: int) -> SimplicialMap:
    """Simplicial map from the stage product onto the nerve, (x, a) -> x:
    the product k-cell at position p lies over the nerve cell at p // |s_k|."""
    ner = nerve(c, D)
    s = s_semisimplicial(N, D)
    prod = product_with_S(ner, s)
    maps = [[p // s.n_cells(k) for p in range(prod.n_cells(k))] for k in range(D + 1)]
    return SimplicialMap(prod, ner, maps)


def projection_pi(c: FinCategory, N: int, D: int) -> ChainMap:
    """Chain-level projection on fat chains."""
    return induced_map(projection_map(c, N, D))


# ---------------------------------------------------------------------------
# Barycentric subdivision as a chain operator


def _flag_id(parts):
    return tuple(tuple(sorted(p)) for p in parts)


def flag_chain_complex(n: int) -> IntegerChainComplex:
    """Chains on the barycentric subdivision of the n-simplex.

    A k-cell is a strict chain of k+1 nonempty subsets of {0..n}; the face
    d_i deletes the i-th subset.
    """
    return deletion_complex(
        [[_flag_id(f.chain) for f in sd_flags(n, k)] for k in range(n + 1)]
    )


def subdivision_chain_operator(n: int):
    """Per-degree matrices of the subdivision operator Sd on the n-simplex.

    Sd sends a k-face to the signed sum of the (k+1)! maximal flags of that
    face, the maximal flags of {0..k} relabelled by the face's vertices;
    the degree-k matrix maps simplex chains, the chains of the stage
    complex on n + 1 stages, to flag chains.
    """
    if n < 0:
        raise StructureError("n must be >= 0")
    flags = flag_chain_complex(n)
    simp = fat_chains(s_semisimplicial(n, n))
    top = [maximal_flags(k) for k in range(n + 1)]

    def terms(cell):
        for flag, sign in top[len(cell) - 1]:
            yield _flag_id([cell[v] for v in part] for part in flag.chain), sign

    mats = [named_matrix(simp.basis[k], flags.basis[k], terms) for k in range(n + 1)]
    return simp, flags, mats


def subdivision_commutes(n: int):
    """Exact check of the boundary identity for Sd in every degree."""
    simp, flags, mats = subdivision_chain_operator(n)
    violations = []
    for k in range(1, n + 1):
        left = flags.boundary[k].mul(mats[k])
        right = mats[k - 1].mul(simp.boundary[k])
        if left != right:
            violations.append(Violation("subdivision-boundary", (n, k)))
    return violations


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


def tau_chain_map(proj: SimplicialMap, pi: ChainMap, N: int) -> ChainMap:
    """Section of the projection on fat chains.

    ``proj`` is :func:`projection_map` at N stages and ``pi`` its induced
    map; the section runs from pi's target, the chains of the nerve x, back
    to pi's source, the chains of the stage product, so it lands on the
    complexes pi already holds.  A degree-n generator maps to the signed
    sum, over maximal flags of {0..n}, of its pullback along i -> max(A_i)
    paired with the stage tuple (1, ..., n+1).  Flags with one pullback u
    add their signs.  The product cell at positions (a, b) sits at a *
    |s_n| + b (see :func:`product_with_S`), where |s_n| = C(N+1, n+1) and
    (1, ..., n+1) comes right after the C(N, n) stage tuples that start
    at 0.
    """
    x, prod = proj.target, proj.source
    if N < x.D + 1:
        raise StructureError("need N >= D + 1 so stage labels 1..D+1 exist")
    if any(prod.n_cells(n) != x.n_cells(n) * comb(N + 1, n + 1) for n in range(x.D + 1)):
        raise StructureError("the projection's stage complex has another N")

    def matrix(n):
        signs = {}
        for flag, sign in maximal_flags(n):
            u = tuple(max(part) for part in flag.chain)
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
    proj = projection_map(c, N, D)
    pi = induced_map(proj)
    return identity_on_homology_through(pi.compose(tau_chain_map(proj, pi, N)), d)


# ---------------------------------------------------------------------------
# The coordinate-sorting assignment and its failure


class BarycentricPoint(namedtuple("BarycentricPoint", "n coords")):
    """Exact rational point of the n-simplex."""

    __slots__ = ()

    def __new__(cls, n, coords):
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
        return cls(n, tuple(Fraction(1, n + 1) for _ in range(n + 1)))


def rho_evaluate(n: int, j: int, t) -> Fraction:
    """Coordinate component s_{j,n} of the sorting assignment.

    (j+1) times the sum over (j+1)-subsets E of max(0, min_E t - max_{not E} t),
    with the max over an empty complement read as 0.
    """
    if not 0 <= j <= n:
        raise StructureError("need 0 <= j <= n")
    coords = t.coords if isinstance(t, BarycentricPoint) else tuple(t)
    if len(coords) != n + 1:
        raise StructureError("point has wrong dimension")
    total = Fraction(0)
    for E in combinations(range(n + 1), j + 1):
        inside = min(coords[i] for i in E)
        rest = [coords[i] for i in range(n + 1) if i not in E]
        outside = max(rest) if rest else Fraction(0)
        if inside > outside:
            total += inside - outside
    return (j + 1) * total


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


def rho_witnesses(n: int, convention: str = "zero-based"):
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


class CommaFiber:
    """Pullback of a nondegenerate simplex y: [m] -> C against the stage
    forgetting map, together with both projection legs.  ``fiber`` is the
    nerve of the pullback category [m] x_C unravel(C, N), and the legs are
    the nerves of its projections onto [m] and onto unravel(C, N)."""

    __slots__ = ("stages", "degree", "fiber", "to_simplex", "to_unraveled")

    def __init__(self, stages, degree, fiber, to_simplex, to_unraveled):
        self.stages = stages
        self.degree = degree
        self.fiber = fiber
        self.to_simplex = to_simplex
        self.to_unraveled = to_unraveled


def _nondegenerate_factorization(c: FinCategory, k: int, cell):
    """Vertex objects and arrows of the nondegenerate core of a nerve cell."""
    if k == 0:
        return (cell,), ()
    arrows = tuple(f for f in cell if not c.is_identity(f))
    objects = [c.src[cell[0]]]
    for f in cell:
        if not c.is_identity(f):
            objects.append(c.tgt[f])
    return tuple(objects), arrows


def quillen_fiber(
    c: FinCategory, N: int, D: int, y_cell, y_degree: int, target=None, simplex=None
) -> CommaFiber:
    """Comma fiber of a nerve simplex, as the nerve of a pullback category.

    Degenerate simplices are factored through their nondegenerate core
    first, so the fiber only depends on that core.  The nerve preserves
    pullbacks, so the fiber of the core y: [m] -> C is the nerve of P =
    [m] x_C unravel(C, N): its objects are the pairs (a, l) of a core vertex
    and a stage, with one arrow (a0, l0) -> (a1, l1) when a0 <= a1, l0 <= l1
    and either l0 < l1 or the core composite a0 -> a1 is an identity.  P is
    determined by m, N and which composites are identities.  Both legs are
    the nerves of the projections of P, (a, l) -> a and (a, l) -> (y(a), l),
    built by :func:`nerve_map`.

    The chains of P are counted from its step lists and budgeted before P
    is built; the count runs through degree 2 at least, since P's
    composition table holds one entry per 2-chain.

    ``target`` is ``nerve(unravel(c, N), D)``, the codomain of the
    ``to_unraveled`` leg, and ``simplex`` is ``nerve(ordinal(m), D)`` for
    the core degree m, the codomain of the ``to_simplex`` leg.  Each is
    built here when omitted, and a caller that builds many fibers of one
    category passes them to share them.  A codomain that misses an image
    of its leg, or has another D, raises :class:`StructureError`.
    """
    objects, arrows = _nondegenerate_factorization(c, y_degree, y_cell)
    m = len(objects) - 1
    composite = chain_composites(c, objects, arrows)
    vertices = [(a, l) for a in range(m + 1) for l in range(N + 1)]
    # steps[v]: the targets, ascending, of the arrows of P leaving v
    steps = {
        (a0, l0): [
            (a1, l1) for a1 in range(a0, m + 1) for l1 in range(l0, N + 1)
            if l0 < l1 or c.is_identity(composite[(a0, a1)])
        ]
        for a0, l0 in vertices
    }
    check_budget(chain_count(steps, max(D, 2)), TruncatedSimplicialSet.__name__)
    pullback = FinCategory(
        vertices,
        [((v, w), v, w) for v in vertices for w in steps[v]],
        {v: (v, v) for v in vertices},
        {((u, v), (v, w)): (u, w) for u in vertices for v in steps[u] for w in steps[v]},
    )
    fiber = nerve(pullback, D)
    if simplex is None:
        simplex = nerve(ordinal(m), D)
    if target is None:
        target = nerve(unravel(c, N), D)

    def lift(step):
        (a0, l0), (a1, l1) = step
        return mid(c, composite[(a0, a1)], l0, l1)

    return CommaFiber(
        stages=N,
        degree=m,
        fiber=fiber,
        to_simplex=nerve_map(fiber, simplex, lambda v: v[0], lambda vw: (vw[0][0], vw[1][0], "le")),
        to_unraveled=nerve_map(fiber, target, lambda v: (objects[v[0]], v[1]), lift),
    )


class ContractibilityReport:
    __slots__ = ("degrees", "violations")

    def __init__(self, degrees, violations):
        self.degrees = degrees
        self.violations = violations

    @property
    def ok(self):
        return not self.violations


def contractibility_report(fiber: CommaFiber, d: int) -> ContractibilityReport:
    """Reduced homology of the fiber must vanish in degrees <= d."""
    check_degree_range(d, fiber.fiber.D)
    chains = geometric_chains(fiber.fiber)
    degrees = []
    violations = []
    for k in range(d + 1):
        h = homology(chains, k)
        degrees.append(h)
        expected = (1, ()) if k == 0 else (0, ())
        if h.group() != expected:
            violations.append(
                Violation(
                    "fiber-contractible",
                    (k,),
                    f"H_{k} = {h.group()}, expected {expected}",
                )
            )
    return ContractibilityReport(degrees, violations)


def all_fibers_contractible(c: FinCategory, N: int, D: int, d: int = None):
    """Run the fiber check over every simplex of the truncated nerve.

    The fiber of a cell depends only on its nondegenerate core, so each
    distinct core's fiber is built, audited and checked once, and every
    cell with that core gets the core's violations under its own
    ``(k, cell)`` prefix; only the reports are kept, not the fibers.  All
    fibers share one ``nerve(unravel(c, N), D)``, and all fibers over cores
    of one degree m share one ``nerve(ordinal(m), D)``.  Returns the number
    of nerve cells checked and the violations in cell order.
    """
    if d is None:
        d = D - 1
    check_degree_range(d, D)
    ner = nerve(c, D)
    target = nerve(unravel(c, N), D)
    simplices = {}
    reports = {}
    violations = []
    checked = 0
    for k in range(D + 1):
        for cell in ner.cells[k]:
            core = _nondegenerate_factorization(c, k, cell)
            if core not in reports:
                m = len(core[0]) - 1
                fib = quillen_fiber(c, N, D, cell, k, target, simplices.get(m))
                simplices[m] = fib.to_simplex.target
                reports[core] = contractibility_report(fib, d)
            checked += 1
            for v in reports[core].violations:
                violations.append(
                    Violation(v.law, (k, cell) + v.witness, v.detail)
                )
    return checked, violations
