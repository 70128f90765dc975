"""Integral chain complexes of fat and geometric realizations.

Fat chains keep one generator per simplex, degenerate or not, with the
alternating face sum as boundary.  Geometric chains are the normalized
complex: generators are the nondegenerate cells, and boundaries are
computed in fat chains and then projected by killing degenerate cells.
Homology is exact (Smith normal form over the integers); a degree k is
reliable only when k + 1 is still below the truncation cutoff, since the
truncation removes boundaries from above.
"""

from dataclasses import dataclass

from .errors import StructureError, Violation
from .intlinalg import (
    HomologyPresentation,
    IntMatrix,
    rank_and_factors,
    surjective_onto,
)


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
        """boundary[k], with empty matrices at both ends of the range."""
        if k <= 0:
            return IntMatrix.zeros(0, self.rank(0)) if k == 0 else None
        if k > self.D:
            return IntMatrix.zeros(self.rank(self.D), 0)
        return self.boundary[k]

    def index(self, k):
        return {cell: i for i, cell in enumerate(self.basis[k])}

    def to_json(self):
        from .ids import encode_id

        return {
            "D": self.D,
            "basis": [[encode_id(c) for c in self.basis[k]] for k in range(self.D + 1)],
            "boundary": {
                str(k): self.boundary[k].rows for k in range(1, self.D + 1)
            },
        }


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

    def to_json(self):
        D = min(self.source.D, self.target.D)
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrices": [self.matrices[k].rows for k in range(D + 1)],
        }


def fat_chains(x) -> IntegerChainComplex:
    """Unnormalized cellular chains: every simplex contributes a generator."""
    bad = x.audit()
    if bad:
        raise StructureError(f"input fails its identity audit: {bad[0]}")
    basis = [x.cells[k] for k in range(x.D + 1)]
    boundary = {}
    for k in range(1, x.D + 1):
        idx = {cell: i for i, cell in enumerate(basis[k - 1])}
        mat = IntMatrix.zeros(len(basis[k - 1]), len(basis[k]))
        for j, cell in enumerate(basis[k]):
            sign = 1
            for i in range(k + 1):
                mat.rows[idx[x.face(k, i, cell)]][j] += sign
                sign = -sign
        boundary[k] = mat
    return IntegerChainComplex(x.D, basis, boundary)


def geometric_chains(x) -> IntegerChainComplex:
    """Normalized chains: nondegenerate cells only, boundary projected."""
    if not x.has_degeneracies:
        raise StructureError("geometric chains need degeneracy maps")
    bad = x.audit()
    if bad:
        raise StructureError(f"input fails its identity audit: {bad[0]}")
    basis = [x.nondegenerate(k) for k in range(x.D + 1)]
    boundary = {}
    for k in range(1, x.D + 1):
        idx = {cell: i for i, cell in enumerate(basis[k - 1])}
        mat = IntMatrix.zeros(len(basis[k - 1]), len(basis[k]))
        for j, cell in enumerate(basis[k]):
            sign = 1
            for i in range(k + 1):
                f = x.face(k, i, cell)
                if f in idx:
                    mat.rows[idx[f]][j] += sign
                sign = -sign
        boundary[k] = mat
    return IntegerChainComplex(x.D, basis, boundary)


def homology(cx: IntegerChainComplex, k: int) -> HomologyGroup:
    """Betti number and invariant factors of ker d_k / im d_{k+1}."""
    if k < 0 or k > cx.D:
        raise StructureError(f"degree {k} out of range 0..{cx.D}")
    n = cx.rank(k)
    below = cx.boundary_or_zero(k)
    rank_below, _ = rank_and_factors(below)
    above = cx.boundary_or_zero(k + 1)
    rank_above, factors = rank_and_factors(above)
    return HomologyGroup(
        degree=k,
        betti=n - rank_below - rank_above,
        torsion=tuple(d for d in factors if d > 1),
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
    src = fat_chains(f.source)
    tgt = fat_chains(f.target)
    mats = []
    for k in range(src.D + 1):
        idx = tgt.index(k)
        m = IntMatrix.zeros(tgt.rank(k), src.rank(k))
        for j, cell in enumerate(src.basis[k]):
            m.rows[idx[f.apply(k, cell)]][j] = 1
        mats.append(m)
    return ChainMap(src, tgt, mats)


def normalization_projection(x) -> ChainMap:
    """Projection from fat chains onto geometric chains, killing the
    degenerate generators.  A classical quasi-isomorphism, used as an
    internal oracle."""
    fat = fat_chains(x)
    geo = geometric_chains(x)
    mats = []
    for k in range(x.D + 1):
        idx = geo.index(k)
        m = IntMatrix.zeros(geo.rank(k), fat.rank(k))
        for j, cell in enumerate(fat.basis[k]):
            if cell in idx:
                m.rows[idx[cell]][j] = 1
        mats.append(m)
    return ChainMap(fat, geo, mats)


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


def quasi_iso_through(F: ChainMap, d: int) -> QuasiIsoReport:
    """Check that a chain map is a homology isomorphism in degrees <= d.

    Betti numbers and invariant factors must match, and the induced matrix
    on homology generators must be invertible; for finitely generated
    groups with equal invariants this is equivalent to surjectivity.
    """
    if d + 1 > F.source.D or d + 1 > F.target.D:
        raise StructureError("truncation too small for the requested range")
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
    if d + 1 > F.source.D:
        raise StructureError("truncation too small for the requested range")
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
