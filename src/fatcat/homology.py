"""Integral chain complexes of fat and geometric realizations.

Fat chains keep one generator per simplex, degenerate or not, with the
alternating face sum as boundary.  Geometric chains are the normalized
complex: generators are the nondegenerate cells, and boundaries are
computed in fat chains and then projected by killing degenerate cells.
Homology is exact (Smith normal form over the integers); a degree k is
reliable only when k + 1 is still below the truncation cutoff, since the
truncation removes boundaries from above.

Every boundary and every cellular chain map in the package is laid out by
one builder, :func:`cell_matrix`, through :func:`complex_from_terms` and
:func:`cellular_map`.  Simplicial objects are audited once, when they are
built, and are immutable, so nothing here audits them again.
"""

from dataclasses import dataclass
from functools import partial

from .errors import StructureError, Violation
from .intlinalg import HomologyPresentation, IntMatrix, smith, surjective_onto


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

    def __eq__(self, other):
        return (
            isinstance(other, IntegerChainComplex)
            and self.D == other.D
            and self.basis == other.basis
            and all(self.boundary[k] == other.boundary[k] for k in range(1, self.D + 1))
        )

    __hash__ = None

    def boundary_or_zero(self, k):
        """boundary[k] for 0 <= k <= D + 1, with empty matrices at both ends."""
        if k == 0:
            return IntMatrix.zeros(0, self.rank(0))
        if k > self.D:
            return IntMatrix.zeros(self.rank(self.D), 0)
        return self.boundary[k]

    def index(self, k):
        return {cell: i for i, cell in enumerate(self.basis[k])}


@dataclass(frozen=True)
class HomologyGroup:
    """Betti number and invariant factors of one homology degree."""

    degree: int
    betti: int
    torsion: tuple
    reliable: bool = True

    def __post_init__(self):
        prev = None
        for d in self.torsion:
            if d < 2:
                raise StructureError("torsion coefficients must be >= 2")
            if prev is not None and d % prev:
                raise StructureError("torsion coefficients must form a divisor chain")
            prev = d

    def group(self):
        return (self.betti, self.torsion)

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
        for k in range(1, D + 1):
            left = self.target.boundary[k].mul(self.matrices[k])
            right = self.matrices[k - 1].mul(self.source.boundary[k])
            if left != right:
                raise StructureError(f"chain map does not commute with boundary {k}")

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise StructureError("chain maps are not composable")
        D = min(self.target.D, other.source.D)
        mats = [self.matrices[k].mul(other.matrices[k]) for k in range(D + 1)]
        return ChainMap(other.source, self.target, mats)


def cell_matrix(source_cells, target_cells, terms) -> IntMatrix:
    """The one place where cells are laid out as an integer matrix.

    Column j belongs to ``source_cells[j]`` and row i to ``target_cells[i]``;
    ``terms(cell)`` yields ``(target_cell, coeff)`` pairs, and coefficients
    landing on the same entry add up; an entry that sums to 0 is not stored.
    """
    row_of = {cell: i for i, cell in enumerate(target_cells)}
    mat = IntMatrix.zeros(len(target_cells), len(source_cells))
    rows = mat.nz
    for j, cell in enumerate(source_cells):
        for target, coeff in terms(cell):
            row = rows[row_of[target]]
            entry = row.get(j, 0) + coeff
            if entry:
                row[j] = entry
            else:
                row.pop(j, None)
    return mat


def complex_from_terms(D, basis, terms) -> IntegerChainComplex:
    """Chain complex whose boundary of a k-cell is ``terms(k, cell)``."""
    boundary = {
        k: cell_matrix(basis[k], basis[k - 1], partial(terms, k))
        for k in range(1, D + 1)
    }
    return IntegerChainComplex(D, basis, boundary)


def cellular_map(source, target, terms) -> ChainMap:
    """Chain map sending a k-cell of source to ``terms(k, cell)`` in target."""
    matrices = [
        cell_matrix(source.basis[k], target.basis[k], partial(terms, k))
        for k in range(min(source.D, target.D) + 1)
    ]
    return ChainMap(source, target, matrices)


def deletion_complex(basis) -> IntegerChainComplex:
    """Chains on tuple cells whose face d_i deletes entry i."""

    def terms(k, cell):
        for i in range(k + 1):
            yield cell[:i] + cell[i + 1:], -1 if i % 2 else 1

    return complex_from_terms(len(basis) - 1, basis, terms)


def fat_chains(x) -> IntegerChainComplex:
    """Unnormalized cellular chains: every simplex contributes a generator."""

    def terms(k, cell):
        for i in range(k + 1):
            yield x.face(k, i, cell), -1 if i % 2 else 1

    return complex_from_terms(x.D, x.cells, terms)


def geometric_chains(x) -> IntegerChainComplex:
    """Normalized chains: nondegenerate cells only, boundary projected."""
    if not x.has_degeneracies:
        raise StructureError("geometric chains need degeneracy maps")

    def terms(k, cell):
        for i in range(k + 1):
            face = x.face(k, i, cell)
            if not x.is_degenerate(k - 1, face):
                yield face, -1 if i % 2 else 1

    return complex_from_terms(x.D, [x.nondegenerate(k) for k in range(x.D + 1)], terms)


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


class HomologyClasses:
    """Homology of one degree with explicit generating cycles."""

    def __init__(self, cx: IntegerChainComplex, k: int):
        if k < 0 or k > cx.D:
            raise StructureError(f"degree {k} out of range 0..{cx.D}")
        self.complex = cx
        self.degree = k
        self.presentation = HomologyPresentation(
            cx.boundary_or_zero(k), cx.boundary_or_zero(k + 1), cx.rank(k)
        )

    @property
    def betti(self):
        return self.presentation.betti

    @property
    def torsion(self):
        return self.presentation.torsion

    def group(self):
        return HomologyGroup(
            self.degree,
            self.presentation.betti,
            self.presentation.torsion,
            reliable=self.degree + 1 <= self.complex.D,
        )

    def generators(self):
        return self.presentation.generators

    def coords(self, vec):
        return self.presentation.coords(vec)


def induced_map(f, chains="fat") -> ChainMap:
    """Chain map induced by a simplicial map on unnormalized chains."""
    if chains != "fat":
        raise StructureError("only fat chains are supported here")
    return cellular_map(
        fat_chains(f.source), fat_chains(f.target), lambda k, cell: ((f.apply(k, cell), 1),)
    )


@dataclass
class DegreeComparison:
    degree: int
    source: HomologyGroup
    target: HomologyGroup
    isomorphism: bool


@dataclass
class QuasiIsoReport:
    through: int
    degrees: list
    violations: list

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
    groups with equal invariants this is equivalent to surjectivity.
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
            for gen in src.generators():
                images.append(tgt.coords(mat.mulvec(gen)))
            iso = surjective_onto(tgt.presentation, images)
        if not iso:
            violations.append(
                Violation(
                    "quasi-iso",
                    (k,),
                    f"H_{k}: {src.betti},{src.torsion} vs {tgt.betti},{tgt.torsion}",
                )
            )
        degrees.append(DegreeComparison(k, src.group(), tgt.group(), iso))
    return QuasiIsoReport(d, degrees, violations)


def identity_on_homology_through(F: ChainMap, d: int) -> QuasiIsoReport:
    """Check that a chain endomap induces the identity on H_k for k <= d."""
    if F.source.basis != F.target.basis:
        raise StructureError("identity check needs an endomap")
    check_degree_range(d, F.source.D)
    degrees = []
    violations = []
    for k in range(d + 1):
        classes = HomologyClasses(F.source, k)
        mat = F.matrices[k]
        gens = classes.generators()
        t = len(classes.torsion)
        ok = True
        for j, gen in enumerate(gens):
            tor, free = classes.coords(mat.mulvec(gen))
            unit_tor = tuple(
                1 % classes.torsion[i] if i == j else 0 for i in range(t)
            )
            unit_free = tuple(
                1 if t + i == j else 0 for i in range(classes.betti)
            )
            if tor != unit_tor or free != unit_free:
                ok = False
                violations.append(
                    Violation("identity-on-homology", (k, j), f"class moved: {tor}, {free}")
                )
        degrees.append(
            DegreeComparison(k, classes.group(), classes.group(), ok)
        )
    return QuasiIsoReport(d, degrees, violations)
