"""Independent oracles used by the tests.

* Homology: Betti numbers and invariant factors with sympy (rank over the
  rationals plus Smith normal form over the integers), a code path fully
  disjoint from the package's own elimination.
* Simplicial identities: the per-cell audits, over cell lists and per-cell
  rules, that the package's whole-table audits must reproduce violation
  for violation.
* The classifying complex: the stagewise unraveling built from a face rule
  per cell, and the universal cocycle checked cell by cell over it, which
  the package's table-composing ``unravel_simplicial`` and its once per
  nerve simplex ``universal_cocycle`` must reproduce cell for cell and
  witness for witness.
* Dense matrices: products and transposes of plain row lists, the
  reference for the package's sparse ``IntMatrix``; ``dense_smith``, the
  dense eliminator that the package's sparse ``smith`` must agree with; and
  the helpers that only tests need (identity, zero test, kernel basis, the
  normalization projection).
"""

from collections import namedtuple
from itertools import combinations_with_replacement
from math import comb

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from fatcat.errors import StructureError, Violation, check_budget
from fatcat.homology import cellular_map, fat_chains, geometric_chains
from fatcat.intlinalg import IntMatrix, SmithForm, _dense, smith
from fatcat.simpset import (
    TruncatedSimplicialSet,
    _group_index,
    _in_multi_group,
    chain_composites,
    chain_objects,
    nerve,
    simplicial_set,
)


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


# A simplicial object as cell lists and rules: ``face(k, i, cell)`` is d_i of
# a k-cell and ``degeneracy(k, i, cell)`` is s_i of one (None when the object
# is only semi-simplicial).  A rule that raises LookupError is undefined there.
Rules = namedtuple("Rules", "cells face degeneracy")


def _check_rule(rule, k, cells, allowed, undefined, leaves):
    allowed = set(allowed)
    for cell in cells:
        try:
            image = rule(k, cell)
        except LookupError:
            raise StructureError(undefined) from None
        if image not in allowed:
            raise StructureError(leaves)


def oracle_simplicial_audit(D, x):
    """Violations of the simplicial identities of ``x`` (a ``Rules``),
    checked cell by cell."""
    cells, face, degeneracy = x
    for k in range(1, D + 1):
        for i in range(k + 1):
            _check_rule(
                lambda k, c: face(k, i, c), k, cells[k], cells[k - 1],
                f"face d_{i} undefined on a {k}-cell", f"face d_{i} leaves degree {k - 1}",
            )
    violations = []
    for k in range(2, D + 1):
        for cell in cells[k]:
            for j in range(k + 1):
                for i in range(j):
                    left = face(k - 1, i, face(k, j, cell))
                    right = face(k - 1, j - 1, face(k, i, cell))
                    if left != right:
                        violations.append(Violation("face-face", (k, i, j, cell)))
    if degeneracy is None:
        return violations
    for k in range(D):
        for i in range(k + 1):
            _check_rule(
                lambda k, c: degeneracy(k, i, c), k, cells[k], cells[k + 1],
                f"degeneracy s_{i} undefined on a {k}-cell",
                f"degeneracy s_{i} leaves degree {k + 1}",
            )
    # s_i s_j = s_{j+1} s_i for i <= j
    for k in range(D - 1):
        for cell in cells[k]:
            for j in range(k + 1):
                for i in range(j + 1):
                    left = degeneracy(k + 1, i, degeneracy(k, j, cell))
                    right = degeneracy(k + 1, j + 1, degeneracy(k, i, cell))
                    if left != right:
                        violations.append(
                            Violation("degeneracy-degeneracy", (k, i, j, cell))
                        )
    # d_i s_j interchange
    for k in range(D):
        for cell in cells[k]:
            for j in range(k + 1):
                sj = degeneracy(k, j, cell)
                for i in range(k + 2):
                    got = face(k + 1, i, sj)
                    if i == j or i == j + 1:
                        want = cell
                    elif i < j:
                        want = degeneracy(k - 1, j - 1, face(k, i, cell))
                    else:
                        want = degeneracy(k - 1, j, face(k, i - 1, cell))
                    if got != want:
                        violations.append(Violation("face-degeneracy", (k, i, j, cell)))
    return violations


def oracle_map_audit(D, source, target, image):
    """Violations of a map ``image(k, cell)`` between two ``Rules``
    commuting with faces, and with degeneracies when both have them,
    checked cell by cell."""
    for k in range(D + 1):
        _check_rule(
            image, k, source.cells[k], target.cells[k],
            f"map undefined on a {k}-cell", f"map image leaves target degree {k}",
        )
    violations = []
    for k in range(1, D + 1):
        for cell in source.cells[k]:
            img = image(k, cell)
            for i in range(k + 1):
                if image(k - 1, source.face(k, i, cell)) != target.face(k, i, img):
                    violations.append(Violation("map-face", (k, i, cell)))
    if source.degeneracy and target.degeneracy:
        for k in range(D):
            for cell in source.cells[k]:
                img = image(k, cell)
                for i in range(k + 1):
                    left = image(k + 1, source.degeneracy(k, i, cell))
                    if left != target.degeneracy(k, i, img):
                        violations.append(Violation("map-degeneracy", (k, i, cell)))
    return violations


# ---------------------------------------------------------------------------
# The classifying complex, cell by cell


def oracle_unravel_simplicial(y: TruncatedSimplicialSet, N: int) -> TruncatedSimplicialSet:
    """Stagewise unraveling of a simplicial set.

    n-cells are pairs (k_0 <= ... <= k_n, z) with z a cell of y in degree
    l - 1, l the number of distinct stages.  For y a nerve this reproduces
    the nerve of the unraveled category cell for cell.  The cells are
    counted and budgeted before any of them is built.
    """
    if N < 0:
        raise StructureError("N must be >= 0")
    D = y.D
    # weakly increasing (n+1)-tuples over N+1 stages with l distinct values:
    # choose the values, then cut the tuple into l nonempty runs
    total = sum(
        comb(N + 1, l) * comb(n, l - 1) * y.n_cells(l - 1)
        for n in range(D + 1)
        for l in range(1, n + 2)
    )
    check_budget(total, TruncatedSimplicialSet.__name__)
    cells = []
    for n in range(D + 1):
        level = []
        for seq in combinations_with_replacement(range(N + 1), n + 1):
            l = len(set(seq))
            for z in y.cells[l - 1]:
                level.append((seq, z))
        cells.append(level)

    def face(n, i, cell):
        seq, z = cell
        rest = seq[:i] + seq[i + 1:]
        if _in_multi_group(seq, i):
            return rest, z
        return rest, y.face(len(set(seq)) - 1, _group_index(seq, i), z)

    def degeneracy(n, i, cell):
        seq, z = cell
        return seq[: i + 1] + seq[i:], z

    return simplicial_set(D, cells, face, degeneracy)


def _gamma_for_cell(g, cell):
    """Canonical transition assignment on one cell, keyed by stage pairs."""
    cat = g.base
    seq, z = cell
    values = sorted(set(seq))
    objects = chain_objects(cat, len(values) - 1, z)
    gamma = {}
    # with two or more stages z is the chain of arrows between them
    for (a, b), f in chain_composites(cat, objects, z).items():
        gamma[(values[a], values[b])] = f
        if a < b:
            gamma[(values[b], values[a])] = g.inverse[f]
    return gamma


def oracle_universal_cocycle(g, N, D):
    """Canonical transitions on every cell of the classifying complex,
    checked cell by cell for the composition law and face compatibility:
    the ``{(k, cell): transitions}`` dict and the report."""
    space = oracle_unravel_simplicial(nerve(g.base, D), N)
    cat = g.base
    gamma = {}
    for k in range(D + 1):
        for cell in space.cells[k]:
            gamma[(k, cell)] = _gamma_for_cell(g, cell)
    report = []
    for k in range(D + 1):
        for cell in space.cells[k]:
            table = gamma[(k, cell)]
            values = sorted(set(cell[0]))
            for a in values:
                for b in values:
                    for cc in values:
                        left = cat.table.get((table[(a, b)], table[(b, cc)]))
                        if left != table[(a, cc)]:
                            report.append(
                                Violation("universal-cocycle-law", (k, cell, a, b, cc))
                            )
    for k in range(1, D + 1):
        for cell in space.cells[k]:
            parent = gamma[(k, cell)]
            for i in range(k + 1):
                child_cell = space.face(k, i, cell)
                child = gamma[(k - 1, child_cell)]
                for pair, val in child.items():
                    if parent.get(pair) != val:
                        report.append(
                            Violation("universal-face-compat", (k, i, cell, pair))
                        )
    return gamma, report


# ---------------------------------------------------------------------------
# Dense matrices as lists of row lists


def dense_mul(a, b, ncols):
    """a * b for row lists; ``ncols`` is b's column count."""
    return [
        [sum(row[k] * b[k][j] for k in range(len(row))) for j in range(ncols)]
        for row in a
    ]


def dense_mulvec(a, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in a]


def dense_transposed(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def dense_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _find_pivot(rows, t, nrows, ncols):
    """Minimal-absolute-value nonzero entry of the trailing submatrix.

    Row-major tie break; an entry of absolute value 1 wins immediately.
    """
    best = None
    best_i = best_j = -1
    for i in range(t, nrows):
        row = rows[i]
        for j in range(t, ncols):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if a == 1:
                    return i, j
                if best is None or a < best:
                    best, best_i, best_j = a, i, j
    if best is None:
        return None
    return best_i, best_j


def dense_smith(A, want_u, want_uinv, want_v, want_vinv):
    """Dense Smith normal form, the reference for :func:`smith`.

    Elimination picks the minimal-absolute-value pivot, clears its row and
    column with Euclidean steps, then forces the pivot to divide the whole
    trailing submatrix before moving on, which yields the divisibility chain
    directly.
    """
    nrows, ncols = A.nrows, A.ncols
    M = [_dense(r, ncols) for r in A.nz]
    U = dense_identity(nrows) if want_u else None
    Uinv = dense_identity(nrows) if want_uinv else None
    V = dense_identity(ncols) if want_v else None
    Vinv = dense_identity(ncols) if want_vinv else None

    def swap_rows(i, j):
        if i == j:
            return
        M[i], M[j] = M[j], M[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if Uinv is not None:
            for r in Uinv:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in M:
            r[i], r[j] = r[j], r[i]
        if V is not None:
            for r in V:
                r[i], r[j] = r[j], r[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def negate_row(i):
        M[i] = [-v for v in M[i]]
        if U is not None:
            U[i] = [-v for v in U[i]]
        if Uinv is not None:
            for r in Uinv:
                r[i] = -r[i]

    def row_axpy(i, j, q):
        # row_i -= q * row_j
        if not q:
            return
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        if U is not None:
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        if Uinv is not None:
            for r in Uinv:
                r[j] += q * r[i]

    def col_axpy(i, j, q):
        # col_i -= q * col_j
        if not q:
            return
        for r in M:
            r[i] -= q * r[j]
        if V is not None:
            for r in V:
                r[i] -= q * r[j]
        if Vinv is not None:
            Vinv[j] = [a + q * b for a, b in zip(Vinv[j], Vinv[i])]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        found = _find_pivot(M, t, nrows, ncols)
        if found is None:
            break
        swap_rows(t, found[0])
        swap_cols(t, found[1])
        while True:
            if M[t][t] < 0:
                negate_row(t)
            pivot = M[t][t]
            # Euclidean reduction of column t below the pivot.
            dirty = False
            for i in range(t + 1, nrows):
                v = M[i][t]
                if v:
                    row_axpy(i, t, v // pivot)
                    if M[i][t]:
                        dirty = True
            if dirty:
                found = _find_pivot(M, t, nrows, ncols)
                swap_rows(t, found[0])
                swap_cols(t, found[1])
                continue
            # Euclidean reduction of row t right of the pivot.
            dirty = False
            for j in range(t + 1, ncols):
                v = M[t][j]
                if v:
                    col_axpy(j, t, v // pivot)
                    if M[t][j]:
                        dirty = True
            if dirty:
                found = _find_pivot(M, t, nrows, ncols)
                swap_rows(t, found[0])
                swap_cols(t, found[1])
                continue
            # Pivot must divide the trailing submatrix for the divisibility
            # chain; merging an offending row restarts the reduction.  A
            # pivot of 1 divides everything.
            if pivot == 1:
                break
            offender = None
            for i in range(t + 1, nrows):
                row = M[i]
                for j in range(t + 1, ncols):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(t, offender, -1)
        t += 1

    def wrap(T, n):
        return None if T is None else IntMatrix(T, ncols=n)

    factors = [M[i][i] for i in range(t)]
    return SmithForm(
        factors=factors,
        rank=t,
        nrows=nrows,
        ncols=ncols,
        U=wrap(U, nrows),
        Uinv=wrap(Uinv, nrows),
        V=wrap(V, ncols),
        Vinv=wrap(Vinv, ncols),
    )



def identity(n):
    return IntMatrix(dense_identity(n), ncols=n)


def is_zero(mat):
    return all(not v for row in mat.rows for v in row)


def kernel_basis(mat):
    """Columns spanning ker(mat) as a saturated sublattice (a direct summand)."""
    form = smith(mat, want_v=True)
    if form.rank == mat.ncols:
        return IntMatrix.zeros(mat.ncols, 0)
    return form.V.submatrix_cols(form.rank)


def normalization_projection(x):
    """Projection from fat chains onto geometric chains, killing the
    degenerate generators.  A classical quasi-isomorphism."""

    def terms(k, cell):
        return () if x.is_degenerate(k, cell) else ((cell, 1),)

    return cellular_map(fat_chains(x), geometric_chains(x), terms)
