"""Independent homology oracle used by the tests.

Computes Betti numbers and invariant factors with sympy (rank over the
rationals plus Smith normal form over the integers), a code path fully
disjoint from the package's own elimination.
"""

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form


def _to_sympy(mat):
    if mat.nrows == 0 or mat.ncols == 0:
        return Matrix.zeros(mat.nrows, mat.ncols)
    return Matrix(mat.rows)


def oracle_homology(cx, k):
    """(betti, torsion tuple) of degree k of an IntegerChainComplex."""
    n = cx.rank(k)
    below = _to_sympy(cx.boundary_or_zero(k))
    above = _to_sympy(cx.boundary_or_zero(k + 1))
    rank_below = below.rank() if below.rows and below.cols else 0
    rank_above = above.rank() if above.rows and above.cols else 0
    betti = n - rank_below - rank_above
    torsion = []
    if above.rows and above.cols:
        snf = smith_normal_form(above, domain=ZZ)
        for i in range(min(snf.rows, snf.cols)):
            d = abs(int(snf[i, i]))
            if d > 1:
                torsion.append(d)
    torsion.sort()
    return betti, tuple(torsion)


def oracle_invariant_factors(mat):
    """Sorted nonzero invariant factors of an IntMatrix, by sympy."""
    if mat.nrows == 0 or mat.ncols == 0:
        return []
    snf = smith_normal_form(Matrix(mat.rows), domain=ZZ)
    return sorted(
        abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols)) if snf[i, i] != 0
    )
