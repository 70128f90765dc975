"""Integral chain complexes of fat and geometric realizations.

Fat chains keep one generator per simplex, degenerate or not, with the
alternating face sum as boundary.  Geometric chains are the normalized
complex: generators are the nondegenerate cells, and boundaries are
computed in fat chains and then projected by killing degenerate cells.
Homology is exact (Smith normal form over the integers); a degree k is
reliable only when k + 1 is still below the truncation cutoff, since the
truncation removes boundaries from above.

Every matrix is laid out by :func:`cell_matrix` from row positions: chains
of a simplicial object read its face tables and a simplicial map's chain
map reads its map tables.  Only complexes and maps with no simplicial
object hash cells to rows, through :func:`named_matrix`.  Simplicial
objects are audited once, when built, and nothing here audits them again.

Chain-map commutation has one checker, :func:`noncommuting_degrees`.

A chain map is compared on homology two ways.  :func:`cone_certifies`
runs a coreduction on its mapping cone, in about linear time, and can
only certify an isomorphism.  :func:`quasi_iso_through` presents both
sides' homology with Smith eliminations and decides either way, with
witnesses; ``verify tom-dieck`` runs it only when the cone does not
certify, and ``verify blowup`` always.
"""

from collections import namedtuple

from .errors import StructureError, Violation
from .intlinalg import HomologyPresentation, IntMatrix, smith, surjective_onto
from .simpset import delete_entry, simplicial_set


class IntegerChainComplex:
    """Boundary matrices over the integers with named cell bases.

    boundary[k] maps degree k to degree k - 1 and has one column per
    k-cell; d d = 0 is verified on construction.
    """

    def __init__(self, D, basis, boundary):
        self.D = D
        self.basis = [tuple(b) for b in basis]
        if len(self.basis) != D + 1:
            raise StructureError("basis must cover degrees 0..D")
        self.boundary = boundary
        for k in range(1, D + 1):
            mat = boundary[k]
            if mat.nrows != len(self.basis[k - 1]) or mat.ncols != len(self.basis[k]):
                raise StructureError(f"boundary {k} has wrong shape")
        for k in range(2, D + 1):
            if not boundary[k - 1].annihilates(boundary[k]):
                raise StructureError(f"dd != 0 between degrees {k} and {k - 2}")

    def rank(self, k):
        return len(self.basis[k])

    def boundary_or_zero(self, k):
        """boundary[k] for 0 <= k <= D + 1, with empty matrices at both ends."""
        if k == 0:
            return IntMatrix.zeros(0, self.rank(0))
        if k > self.D:
            return IntMatrix.zeros(self.rank(self.D), 0)
        return self.boundary[k]


class HomologyGroup(namedtuple("HomologyGroup", "degree betti torsion reliable")):
    """Betti number and invariant factors of one homology degree."""

    __slots__ = ()

    def __new__(cls, degree, betti, torsion, reliable):
        prev = None
        for d in torsion:
            if d < 2:
                raise StructureError("torsion coefficients must be >= 2")
            if prev is not None and d % prev:
                raise StructureError("torsion coefficients must form a divisor chain")
            prev = d
        return super().__new__(cls, degree, betti, torsion, reliable)

    def to_json(self):
        return {
            "degree": self.degree,
            "betti": self.betti,
            "torsion": list(self.torsion),
            "reliable": self.reliable,
        }


class ChainMap:
    """Degreewise integer matrices commuting with the boundaries."""

    def __init__(self, source, target, matrices):
        self.source = source
        self.target = target
        self.matrices = matrices
        D = min(source.D, target.D)
        for k in range(D + 1):
            m = matrices[k]
            if m.nrows != target.rank(k) or m.ncols != source.rank(k):
                raise StructureError(f"chain map has wrong shape in degree {k}")
        for k in noncommuting_degrees(source, target, matrices):
            raise StructureError(f"chain map does not commute with boundary {k}")

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise StructureError("chain maps are not composable")
        D = min(self.target.D, other.source.D)
        mats = [self.matrices[k].mul(other.matrices[k]) for k in range(D + 1)]
        return ChainMap(other.source, self.target, mats)


def noncommuting_degrees(source, target, matrices):
    """The one commutation check: yields, ascending, each degree k from 1
    to the lower truncation where d_k M_k != M_{k-1} d_k, for the
    degreewise matrices M from source to target."""
    for k in range(1, min(source.D, target.D) + 1):
        if target.boundary[k].mul(matrices[k]) != matrices[k - 1].mul(source.boundary[k]):
            yield k


def cell_matrix(nrows, ncols, column) -> IntMatrix:
    """The one place where an integer matrix is laid out.

    ``column(j)`` yields the ``(row, coeff)`` pairs of column j;
    coefficients landing on the same entry add up, and an entry that sums
    to 0 is not stored.
    """
    mat = IntMatrix.zeros(nrows, ncols)
    rows = mat.nz
    for j in range(ncols):
        for i, coeff in column(j):
            row = rows[i]
            entry = row.get(j, 0) + coeff
            if entry:
                row[j] = entry
            else:
                row.pop(j, None)
    return mat


def named_matrix(source_cells, target_cells, terms) -> IntMatrix:
    """:func:`cell_matrix` for complexes and maps that have no simplicial
    object: column j is ``terms(source_cells[j])``, pairs of a target cell
    and a coefficient, and each cell is hashed to its row in
    ``target_cells``."""
    row_of = {cell: i for i, cell in enumerate(target_cells)}
    return cell_matrix(len(target_cells), len(source_cells), lambda j: (
        (row_of[cell], coeff) for cell, coeff in terms(source_cells[j])))


def cellular_map(source, target, terms) -> ChainMap:
    """Chain map sending a cell of source to ``terms(cell)`` in target."""
    matrices = [
        named_matrix(source.basis[k], target.basis[k], terms)
        for k in range(min(source.D, target.D) + 1)
    ]
    return ChainMap(source, target, matrices)


def deletion_complex(basis) -> IntegerChainComplex:
    """Chains on tuple cells whose face d_i deletes entry i."""
    return fat_chains(simplicial_set(len(basis) - 1, basis, delete_entry))


def fat_chains(x) -> IntegerChainComplex:
    """Unnormalized cellular chains: every simplex contributes a generator."""
    every = [range(x.n_cells(k)) for k in range(x.D + 1)]
    return _face_sum_chains(x, every, every)


def geometric_chains(x) -> IntegerChainComplex:
    """Normalized chains: nondegenerate cells only, boundary projected."""
    if not x.has_degeneracies:
        raise StructureError("geometric chains need degeneracy maps")
    kept = [x.nondegenerate_positions(k) for k in range(x.D + 1)]
    rows = [[None] * x.n_cells(k) for k in range(x.D + 1)]
    for row, keep in zip(rows, kept):
        for r, p in enumerate(keep):
            row[p] = r
    return _face_sum_chains(x, kept, rows)


def _face_sum_chains(x, kept, rows):
    """Chains on the k-cells of x at the ascending positions ``kept[k]``;
    ``rows[k][p]`` is the row of the cell at position p, None for one left
    out.  Column j of d_k is the alternating sum of the faces of the cell
    at ``kept[k][j]``, read off x's face tables, less those left out."""

    def boundary(k):
        signed = [(table, -1 if i % 2 else 1) for i, table in enumerate(x.faces[k])]
        row, cols = rows[k - 1], kept[k]

        def column(j):
            p = cols[j]
            for table, sign in signed:
                r = row[table[p]]
                if r is not None:
                    yield r, sign

        return cell_matrix(len(kept[k - 1]), len(cols), column)

    basis = [[x.cells[k][p] for p in kept[k]] for k in range(x.D + 1)]
    return IntegerChainComplex(x.D, basis, {k: boundary(k) for k in range(1, x.D + 1)})


def homology(cx: IntegerChainComplex, k: int) -> HomologyGroup:
    """Betti number and invariant factors of ker d_k / im d_{k+1}."""
    if k < 0 or k > cx.D:
        raise StructureError(f"degree {k} out of range 0..{cx.D}")
    below = smith(cx.boundary_or_zero(k))
    above = smith(cx.boundary_or_zero(k + 1))
    return HomologyGroup(
        degree=k,
        betti=cx.rank(k) - below.rank - above.rank,
        torsion=tuple(d for d in above.factors if d > 1),
        reliable=k + 1 <= cx.D,
    )


class HomologyClasses(HomologyPresentation):
    """Homology of one degree of a complex, presented with explicit
    generating cycles: ker d_k / im d_{k+1}."""

    def __init__(self, cx: IntegerChainComplex, k: int):
        if k < 0 or k > cx.D:
            raise StructureError(f"degree {k} out of range 0..{cx.D}")
        super().__init__(cx.boundary_or_zero(k), cx.boundary_or_zero(k + 1), cx.rank(k))
        self.degree = k
        self.reliable = k + 1 <= cx.D

    def group(self):
        return HomologyGroup(self.degree, self.betti, self.torsion, self.reliable)


def induced_map(f) -> ChainMap:
    """Chain map induced by a simplicial map on unnormalized chains: column
    p of degree k has a 1 in row ``f.maps[k][p]``.  It runs from the fat
    chains of f.source to those of f.target, which may reach higher
    degrees; the matrices stop at f.source's."""
    matrices = [
        cell_matrix(f.target.n_cells(k), f.source.n_cells(k), lambda j: ((table[j], 1),))
        for k, table in enumerate(f.maps)
    ]
    return ChainMap(fat_chains(f.source), fat_chains(f.target), matrices)


DegreeComparison = namedtuple("DegreeComparison", "degree source target isomorphism")


class QuasiIsoReport(namedtuple("QuasiIsoReport", "degrees violations")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


def check_degree_range(d: int, D: int) -> None:
    """Refuse a homology check through degree d on complexes truncated at D
    unless 0 <= d and d + 1 <= D: below 0 there is nothing to check, and
    H_D of a complex truncated at D is ker d_D, not homology."""
    if d < 0:
        raise StructureError(f"need d >= 0, got d = {d}")
    if d + 1 > D:
        raise StructureError(f"truncation too small: need d + 1 <= D, got d = {d}, D = {D}")


def quasi_iso_through(F: ChainMap, d: int) -> QuasiIsoReport:
    """Check that a chain map is a homology isomorphism in degrees <= d.

    Betti numbers and invariant factors must match, and the induced matrix
    on homology generators must be invertible; for finitely generated
    groups with equal invariants this is equivalent to surjectivity.  The
    source is read only through its generators and the target only through
    coordinates, each computed from the recorded eliminations when read.
    """
    check_degree_range(d, min(F.source.D, F.target.D))
    degrees = []
    violations = []
    for k in range(d + 1):
        src = HomologyClasses(F.source, k)
        tgt = HomologyClasses(F.target, k)
        same = src.betti == tgt.betti and src.torsion == tgt.torsion
        iso = same
        if same:
            images = []
            mat = F.matrices[k]
            for gen in src.generators:
                images.append(tgt.coords(mat.mulvec(gen)))
            iso = surjective_onto(tgt, images)
        if not iso:
            violations.append(
                Violation(
                    "quasi-iso",
                    (k,),
                    f"H_{k}: {src.betti},{src.torsion} vs {tgt.betti},{tgt.torsion}",
                )
            )
        degrees.append(DegreeComparison(k, src.group(), tgt.group(), iso))
    return QuasiIsoReport(degrees, violations)


def cone_certifies(F: ChainMap, d: int) -> bool:
    """Does a greedy coreduction clear the mapping cone of F in degrees
    <= d + 1?  If so, F is a homology isomorphism in degrees <= d.

    For F from A to B the cone has cone_n = A_{n-1} + B_n and
    boundary(a, b) = (-da, Fa + db); it is read in degrees 0..d + 2 off A's
    boundaries and F's matrices through d + 1 and B's boundaries through
    d + 2, in cell order: in each degree the cells of A_{n-1}, then those
    of B_n.  The coreduction (Mrozek and Batko, Discrete Comput. Geom. 41,
    2009) takes cells first in, first out, and removes a cell whose one
    live face has coefficient +-1 together with that face.  That face is
    the cell's whole boundary, so the step keeps the homology and leaves
    the restricted boundary on the live cells.  A cell enters the queue
    when its live faces drop to one; it knows that face as the sum of the
    positions of its live faces.

    When no live cell of degree <= d + 1 is left, H_n(cone) = 0 for
    n <= d + 1, and the exact sequence H_{k+1}(cone) -> H_k(A) -> H_k(B)
    -> H_k(cone) (Weibel, An Introduction to Homological Algebra, 1.5)
    makes F_* an isomorphism for k <= d.  A cell left there would have to
    be made critical, and then nothing is certified: F may still be a
    quasi-isomorphism, which :func:`quasi_iso_through` decides.
    """
    A, B = F.source, F.target
    if d < 0 or A.D < d + 1 or B.D < d + 2:
        raise StructureError(
            f"the cone through degree {d + 2} needs the source through {d + 1} "
            f"and the target through {d + 2}")
    # block 2k holds B_k and block 2k + 1 holds A_k, so the blocks come in
    # cell order; start[i] is the position of block i's first cell
    sizes = [cx.rank(k) for k in range(d + 2) for cx in (B, A)] + [B.rank(d + 2)]
    start = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    # between[face block, cell block]: the matrix whose entry (i, j) is, up
    # to sign, the coefficient of the face block's i-th cell in the boundary
    # of the cell block's j-th cell
    between = {(2 * k - 1, 2 * k + 1): A.boundary[k] for k in range(1, d + 2)}
    between |= {(2 * k, 2 * k + 1): F.matrices[k] for k in range(d + 2)}
    between |= {(2 * k - 2, 2 * k): B.boundary[k] for k in range(1, d + 3)}
    above = [[] for _ in sizes]
    # live[p], count[p], face_sum[p]: is cell p live, how many live faces
    # it has and the sum of their positions
    total = start[-1]
    count, face_sum = [0] * total, [0] * total
    for (fb, cb), mat in between.items():
        above[fb].append((mat, start[cb]))
        for t, row in enumerate(mat.nz, start[fb]):
            for j in row:
                count[start[cb] + j] += 1
                face_sum[start[cb] + j] += t
    live = bytearray(b"\1") * total
    # the cells of degree <= d + 1 come before A_{d+1}'s block
    top = start[2 * d + 3]
    left = top
    queue = [p for p in range(total) if count[p] == 1]
    # the queue grows while it is walked, so cells leave in the order they came
    for b in queue:
        if count[b] != 1 or not live[b]:
            continue
        t = face_sum[b]
        fb, cb = block[t], block[b]
        if abs(between[fb, cb].nz[t - start[fb]][b - start[cb]]) != 1:
            continue
        live[t] = live[b] = 0
        left -= (t < top) + (b < top)
        if not left:
            return True
        for p, pb in ((t, fb), (b, cb)):
            for mat, first in above[pb]:
                for j in mat.nz[p - start[pb]]:
                    q = first + j
                    if live[q]:
                        count[q] -= 1
                        face_sum[q] -= p
                        if count[q] == 1:
                            queue.append(q)
    return not left


def identity_on_homology_through(F: ChainMap, d: int) -> QuasiIsoReport:
    """Check that a chain endomap induces the identity on H_k for k <= d:
    generator j must land on its own class, coordinate 1 at j and 0
    elsewhere, as every torsion order is at least 2."""
    if F.source.basis != F.target.basis:
        raise StructureError("identity check needs an endomap")
    check_degree_range(d, F.source.D)
    degrees, violations = [], []
    for k in range(d + 1):
        classes = HomologyClasses(F.source, k)
        moved = []
        for j, gen in enumerate(classes.generators):
            tor, free = classes.coords(F.matrices[k].mulvec(gen))
            if tor + free != tuple(int(i == j) for i in range(len(tor) + len(free))):
                detail = f"class moved: {tor}, {free}"
                moved.append(Violation("identity-on-homology", (k, j), detail))
        violations += moved
        degrees.append(DegreeComparison(k, classes.group(), classes.group(), not moved))
    return QuasiIsoReport(degrees, violations)
