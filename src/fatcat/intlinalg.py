"""Exact integer matrix arithmetic.

Everything runs on arbitrary-precision Python integers; there is no floating
point anywhere.  Smith normal form runs in two stages:

1. Unit pivots are eliminated on a sparse copy of the matrix.  The pivot
   column is the live column with the fewest nonzeros that holds a +-1
   entry; the pivot row is the row with the fewest nonzeros among those
   holding a unit in that column; ties go to the lower index.
2. The remaining Schur complement, which holds no unit, is cut down to its
   nonzero rows and columns and eliminated densely with
   minimal-absolute-value pivoting and row-major tie breaking.

The transforms of both stages are composed at the end.  Nothing is random,
so results and transforms are deterministic.
"""

from dataclasses import dataclass

from .errors import StructureError


def _nonzero_rows(rows, ncols):
    """Per row, the {column: value} of its nonzero entries."""
    from itertools import compress

    cols = range(ncols)
    return [{j: r[j] for j in compress(cols, r)} for r in rows]


class IntMatrix:
    """Dense integer matrix stored as a list of row lists."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise StructureError("ragged matrix rows")
        else:
            if ncols is None:
                raise StructureError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def _wrap(cls, rows, ncols):
        """Adopt freshly built rows of equal length, without copying."""
        m = cls.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._wrap([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, columns, nrows):
        m = cls.zeros(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                m.rows[i][j] = v
        return m

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, j):
        return [r[j] for r in self.rows]

    def submatrix_cols(self, start, stop=None):
        stop = self.ncols if stop is None else stop
        return IntMatrix([r[start:stop] for r in self.rows], ncols=stop - start)

    def _product_rows(self, other):
        """Rows of self * other as {column: value}, one at a time."""
        if self.ncols != other.nrows:
            raise StructureError("matrix product: shape mismatch")
        right = _nonzero_rows(other.rows, other.ncols)
        for row in _nonzero_rows(self.rows, self.ncols):
            acc = {}
            for k, v in row.items():
                for j, w in right[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            yield acc

    def mul(self, other):
        """Matrix product, looping over the nonzeros of both factors."""
        rows = [_dense(acc, other.ncols) for acc in self._product_rows(other)]
        return IntMatrix._wrap(rows, other.ncols)

    def annihilates(self, other):
        """Is self * other zero?  Decided without forming the product."""
        return not any(any(acc.values()) for acc in self._product_rows(other))

    def mulvec(self, vec):
        if len(vec) != self.ncols:
            raise StructureError("matrix-vector product: shape mismatch")
        out = []
        for row in self.rows:
            s = 0
            for a, b in zip(row, vec):
                if a and b:
                    s += a * b
            out.append(s)
        return out

    def is_zero(self):
        return all(not v for r in self.rows for v in r)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


@dataclass
class SmithForm:
    """U * A * V = diag(factors), with U, V unimodular.

    ``factors`` are the positive invariant factors, each dividing the next;
    ``rank`` is their count.  Transform matrices are present only when
    requested from :func:`smith`.
    """

    factors: list
    rank: int
    nrows: int
    ncols: int
    U: IntMatrix = None
    Uinv: IntMatrix = None
    V: IntMatrix = None
    Vinv: IntMatrix = None


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


def smith(A, want_u=False, want_uinv=False, want_v=False, want_vinv=False):
    """Smith normal form over the integers, in the two stages described in
    the module docstring.

    Each unit step clears the pivot column with row operations and drops
    the pivot row and column; the column operations that would clear the
    pivot row touch only V and Vinv.  The inverses need no accumulation:
    each step's column of Uinv is the pivot column as it stood at that
    step, and its row of Vinv is the pivot row with the pivot made +1.
    What is left goes to :func:`_dense_smith`.
    """
    from heapq import heapify, heappop, heappush

    nrows, ncols = A.nrows, A.ncols
    rows = _nonzero_rows(A.rows, ncols)
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    urows = [{i: 1} for i in range(nrows)] if want_u else None
    vcols = [{j: 1} for j in range(ncols)] if want_v else None
    pivot_rows, pivot_cols = [], []
    uinv_cols, vinv_rows = [], []

    # Heap of (column length, column); an entry whose length is stale is
    # skipped, and every column an elimination touches is pushed afresh.
    heap = [(len(c), j) for j, c in enumerate(cols) if c]
    heapify(heap)
    while heap:
        size, q = heappop(heap)
        col = cols[q]
        if len(col) != size:
            continue
        units = [i for i in col if rows[i][q] in (1, -1)]
        if not units:
            continue
        p = min(units, key=lambda i: (len(rows[i]), i))
        if want_uinv:
            uinv_cols.append({i: rows[i][q] for i in col})
        prow = rows[p]
        if prow[q] == -1:
            prow = {j: -v for j, v in prow.items()}
            if want_u:
                urows[p] = {k: -v for k, v in urows[p].items()}
        rows[p] = None
        for j in prow:
            cols[j].discard(p)
        for i in list(col):
            row = rows[i]
            c = row[q]
            for j, v in prow.items():
                new = row.get(j, 0) - c * v
                if new:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    cols[j].discard(i)
            if want_u:
                _axpy(urows[i], -c, urows[p])
        if want_v:
            vq = vcols[q]
            for j, v in prow.items():
                if j != q:
                    _axpy(vcols[j], -v, vq)
        for j in prow:
            if cols[j]:
                heappush(heap, (len(cols[j]), j))
        pivot_rows.append(p)
        pivot_cols.append(q)
        if want_vinv:
            vinv_rows.append(prow)

    live_rows = [i for i in range(nrows) if rows[i] is not None]
    dense_rows = [i for i in live_rows if rows[i]]
    zero_rows = [i for i in live_rows if not rows[i]]
    dense_cols = [j for j in range(ncols) if cols[j]]
    dead = set(pivot_cols)
    zero_cols = [j for j in range(ncols) if not cols[j] and j not in dead]
    residual = IntMatrix(
        [[rows[i].get(j, 0) for j in dense_cols] for i in dense_rows],
        ncols=len(dense_cols),
    )
    form = _dense_smith(residual, want_u, want_uinv, want_v, want_vinv)

    # Rows of U and Vinv, and columns of Uinv and V, come in the order
    # (unit pivots, dense residual, zero rows or columns).
    U = Uinv = V = Vinv = None
    if want_u:
        U = _compose(
            [urows[p] for p in pivot_rows], form.U.rows,
            [urows[i] for i in dense_rows], [urows[i] for i in zero_rows], nrows,
        )
    if want_uinv:
        Uinv = _transposed(_compose(
            uinv_cols, zip(*form.Uinv.rows),
            [{i: 1} for i in dense_rows], [{i: 1} for i in zero_rows], nrows,
        ))
    if want_v:
        V = _transposed(_compose(
            [vcols[q] for q in pivot_cols], zip(*form.V.rows),
            [vcols[j] for j in dense_cols], [vcols[j] for j in zero_cols], ncols,
        ))
    if want_vinv:
        Vinv = _compose(
            vinv_rows, form.Vinv.rows,
            [{j: 1} for j in dense_cols], [{j: 1} for j in zero_cols], ncols,
        )

    return SmithForm(
        factors=[1] * len(pivot_rows) + form.factors,
        rank=len(pivot_rows) + form.rank,
        nrows=nrows,
        ncols=ncols,
        U=U,
        Uinv=Uinv,
        V=V,
        Vinv=Vinv,
    )


def _axpy(target, q, source):
    """target += q * source, for sparse vectors stored as dicts."""
    for k, v in source.items():
        new = target.get(k, 0) + q * v
        if new:
            target[k] = new
        else:
            del target[k]


def _compose(lead, mix, vecs, tail, n):
    """Square matrix whose rows are the sparse vectors of ``lead``, then
    sum_b m[b] * vecs[b] for each row m of ``mix``, then those of ``tail``."""
    out = [_dense(v, n) for v in lead]
    for m in mix:
        acc = [0] * n
        for s, vec in zip(m, vecs):
            if s:
                for k, v in vec.items():
                    acc[k] += s * v
        out.append(acc)
    out.extend(_dense(v, n) for v in tail)
    return IntMatrix._wrap(out, n)


def _transposed(m):
    return IntMatrix._wrap([list(c) for c in zip(*m.rows)], m.nrows)


def _dense(vec, n):
    out = [0] * n
    for k, v in vec.items():
        out[k] = v
    return out


def _dense_smith(A, want_u, want_uinv, want_v, want_vinv):
    """Dense Smith normal form, the second stage of :func:`smith`.

    Elimination picks the minimal-absolute-value pivot, clears its row and
    column with Euclidean steps, then forces the pivot to divide the whole
    trailing submatrix before moving on, which yields the divisibility chain
    directly.
    """
    M = [list(r) for r in A.rows]
    nrows, ncols = A.nrows, A.ncols
    U = IntMatrix.identity(nrows) if want_u else None
    Uinv = IntMatrix.identity(nrows) if want_uinv else None
    V = IntMatrix.identity(ncols) if want_v else None
    Vinv = IntMatrix.identity(ncols) if want_vinv else None

    def swap_rows(i, j):
        if i == j:
            return
        M[i], M[j] = M[j], M[i]
        if U is not None:
            U.rows[i], U.rows[j] = U.rows[j], U.rows[i]
        if Uinv is not None:
            for r in Uinv.rows:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in M:
            r[i], r[j] = r[j], r[i]
        if V is not None:
            for r in V.rows:
                r[i], r[j] = r[j], r[i]
        if Vinv is not None:
            Vinv.rows[i], Vinv.rows[j] = Vinv.rows[j], Vinv.rows[i]

    def negate_row(i):
        M[i] = [-v for v in M[i]]
        if U is not None:
            U.rows[i] = [-v for v in U.rows[i]]
        if Uinv is not None:
            for r in Uinv.rows:
                r[i] = -r[i]

    def row_axpy(i, j, q):
        # row_i -= q * row_j
        if not q:
            return
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        if U is not None:
            U.rows[i] = [a - q * b for a, b in zip(U.rows[i], U.rows[j])]
        if Uinv is not None:
            for r in Uinv.rows:
                r[j] += q * r[i]

    def col_axpy(i, j, q):
        # col_i -= q * col_j
        if not q:
            return
        for r in M:
            r[i] -= q * r[j]
        if V is not None:
            for r in V.rows:
                r[i] -= q * r[j]
        if Vinv is not None:
            Vinv.rows[j] = [a + q * b for a, b in zip(Vinv.rows[j], Vinv.rows[i])]

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

    factors = [M[i][i] for i in range(t)]
    return SmithForm(
        factors=factors,
        rank=t,
        nrows=nrows,
        ncols=ncols,
        U=U,
        Uinv=Uinv,
        V=V,
        Vinv=Vinv,
    )


def rank_and_factors(A):
    form = smith(A)
    return form.rank, form.factors


def kernel_basis(A):
    """Columns spanning ker(A) as a saturated sublattice (a direct summand)."""
    form = smith(A, want_v=True)
    if form.rank == A.ncols:
        return IntMatrix.zeros(A.ncols, 0)
    return form.V.submatrix_cols(form.rank)


class HomologyPresentation:
    """Presentation of ker(A)/im(B) for integer matrices with A*B = 0.

    The ambient rank is ``n`` (A has n columns, B has n rows).  After a
    unimodular change of basis splitting off im(B), the group is

        (+)_i Z/d_i  (+)  Z^betti

    with ``d_i`` the invariant factors of B that exceed 1.  ``generators``
    are integer vectors in the ambient basis; ``coords`` writes any cycle
    in the generator basis (torsion coordinates already reduced mod d_i).
    """

    def __init__(self, A, B, n):
        self.n = n
        if B is None:
            B = IntMatrix.zeros(n, 0)
        if A is None:
            A = IntMatrix.zeros(0, n)
        if A.ncols != n or B.nrows != n:
            raise StructureError("homology presentation: shape mismatch")
        self._A = A
        formB = smith(B, want_u=True, want_uinv=True)
        self._U = formB.U
        self._Uinv = formB.Uinv
        self._rB = formB.rank
        self._dB = formB.factors
        Ares = A.mul(self._Uinv)
        for row in Ares.rows:
            for j in range(self._rB):
                if row[j]:
                    raise StructureError("B does not map into ker(A)")
        M = Ares.submatrix_cols(self._rB)
        formM = smith(M, want_v=True, want_vinv=True)
        self._rM = formM.rank
        self._VM = formM.V
        self._VMinv = formM.Vinv
        self.betti = (n - self._rB) - self._rM
        self._torsion_index = [i for i, d in enumerate(self._dB) if d > 1]
        self.torsion = tuple(self._dB[i] for i in self._torsion_index)

    @property
    def generators(self):
        """Torsion generators first, then free generators."""
        gens = [self._Uinv.column(i) for i in self._torsion_index]
        for j in range(self._rM, self._VM.ncols):
            col = self._VM.column(j)
            vec = [0] * self.n
            for idx, v in enumerate(col):
                if v:
                    uc = self._Uinv.column(self._rB + idx)
                    vec = [a + v * b for a, b in zip(vec, uc)]
            gens.append(vec)
        return gens

    def coords(self, vec):
        """Class of a cycle: (torsion coords mod d_i, exact free coords)."""
        if any(self._A.mulvec(vec)):
            raise StructureError("vector is not a cycle")
        y = self._U.mulvec(vec)
        tor = tuple(
            y[i] % self._dB[i] for i in self._torsion_index
        )
        rest = y[self._rB :]
        z = self._VMinv.mulvec(rest) if rest else []
        for i in range(self._rM):
            if z[i]:
                raise StructureError("cycle has nonzero coordinates on killed summands")
        free = tuple(z[self._rM :])
        return tor, free

    def zero_class(self, vec):
        tor, free = self.coords(vec)
        return not any(tor) and not any(free)


def surjective_onto(pres_target, image_columns):
    """Do the given classes generate the target group?

    ``image_columns`` are (torsion, free) coordinate pairs in the target
    presentation.  Surjectivity is decided by the invariant factors of the
    stacked matrix [images | torsion relations].
    """
    t = len(pres_target.torsion)
    b = pres_target.betti
    ngen = t + b
    if ngen == 0:
        return True
    cols = []
    for tor, free in image_columns:
        cols.append(list(tor) + list(free))
    for i, d in enumerate(pres_target.torsion):
        rel = [0] * ngen
        rel[i] = d
        cols.append(rel)
    m = IntMatrix.from_columns(cols, ngen)
    rank, factors = rank_and_factors(m)
    return rank == ngen and all(d == 1 for d in factors)
