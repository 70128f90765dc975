"""Exact integer matrix arithmetic.

Everything runs on arbitrary-precision Python integers; there is no floating
point anywhere.  A matrix stores only its nonzero entries, row by row, and
every product, comparison and transform works on those.  Smith normal form
runs in two stages:

1. Unit pivots are eliminated on a copy of the row dicts.  The pivot
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


class IntMatrix:
    """Sparse integer matrix: ``nz[i]`` is the {column: value} dict of the
    nonzero entries of row i.  No zero is ever stored, so two matrices are
    equal exactly when their shapes and row dicts are.

    ``IntMatrix(rows, ncols=...)`` builds one from dense row lists; ``rows``
    is the dense view, built on demand and read-only.
    """

    __slots__ = ("nz", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise StructureError("ragged matrix rows")
        elif ncols is None:
            raise StructureError("empty matrix needs an explicit column count")
        self.nz = [{j: v for j, v in enumerate(r) if v} for r in rows]
        self.nrows, self.ncols = len(rows), ncols

    @classmethod
    def _wrap(cls, nz, ncols):
        """Adopt row dicts that hold no zeros, without copying."""
        m = cls.__new__(cls)
        m.nz, m.nrows, m.ncols = nz, len(nz), ncols
        return m

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._wrap([{} for _ in range(nrows)], ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """Dense view as a tuple of row tuples; writing to it raises."""
        return tuple(tuple(_dense(r, self.ncols)) for r in self.nz)

    def column(self, j):
        return [r.get(j, 0) for r in self.nz]

    def submatrix_cols(self, start, stop=None):
        stop = self.ncols if stop is None else stop
        nz = [{j - start: v for j, v in r.items() if start <= j < stop} for r in self.nz]
        return IntMatrix._wrap(nz, stop - start)

    def _product_rows(self, other):
        """Rows of self * other as {column: value}, one at a time; an entry
        that cancels may be held as 0."""
        if self.ncols != other.nrows:
            raise StructureError("matrix product: shape mismatch")
        right = other.nz
        for row in self.nz:
            acc = {}
            for k, v in row.items():
                for j, w in right[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            yield acc

    def mul(self, other):
        """Matrix product, looping over the nonzeros of both factors."""
        nz = [{j: v for j, v in acc.items() if v} for acc in self._product_rows(other)]
        return IntMatrix._wrap(nz, other.ncols)

    def annihilates(self, other):
        """Is self * other zero?  Decided without forming the product."""
        return not any(any(acc.values()) for acc in self._product_rows(other))

    def mulvec(self, vec):
        if len(vec) != self.ncols:
            raise StructureError("matrix-vector product: shape mismatch")
        return [sum(v * vec[j] for j, v in r.items()) for r in self.nz]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.nz == other.nz
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
    rows = [dict(r) for r in A.nz]
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
    position = {j: t for t, j in enumerate(dense_cols)}
    residual = IntMatrix._wrap(
        [{position[j]: v for j, v in rows[i].items()} for i in dense_rows],
        len(dense_cols),
    )
    form = _dense_smith(residual, want_u, want_uinv, want_v, want_vinv)

    # Rows of U and Vinv, and columns of Uinv and V, come in the order
    # (unit pivots, dense residual, zero rows or columns).
    U = Uinv = V = Vinv = None
    if want_u:
        U = _compose(
            [urows[p] for p in pivot_rows], form.U.nz,
            [urows[i] for i in dense_rows], [urows[i] for i in zero_rows], nrows,
        )
    if want_uinv:
        Uinv = _transposed(_compose(
            uinv_cols, _transposed(form.Uinv).nz,
            [{i: 1} for i in dense_rows], [{i: 1} for i in zero_rows], nrows,
        ))
    if want_v:
        V = _transposed(_compose(
            [vcols[q] for q in pivot_cols], _transposed(form.V).nz,
            [vcols[j] for j in dense_cols], [vcols[j] for j in zero_cols], ncols,
        ))
    if want_vinv:
        Vinv = _compose(
            vinv_rows, form.Vinv.nz,
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
    sum_b m[b] * vecs[b] for each sparse row m of ``mix``, then those of
    ``tail``.  The vectors are adopted, not copied."""
    out = list(lead)
    for m in mix:
        acc = {}
        for b, s in m.items():
            _axpy(acc, s, vecs[b])
        out.append(acc)
    out.extend(tail)
    return IntMatrix._wrap(out, n)


def _transposed(m):
    nz = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.nz):
        for j, v in row.items():
            nz[j][i] = v
    return IntMatrix._wrap(nz, m.nrows)


def _dense(vec, n):
    out = [0] * n
    for k, v in vec.items():
        out[k] = v
    return out


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _dense_smith(A, want_u, want_uinv, want_v, want_vinv):
    """Dense Smith normal form, the second stage of :func:`smith`.

    Elimination picks the minimal-absolute-value pivot, clears its row and
    column with Euclidean steps, then forces the pivot to divide the whole
    trailing submatrix before moving on, which yields the divisibility chain
    directly.
    """
    nrows, ncols = A.nrows, A.ncols
    M = [_dense(r, ncols) for r in A.nz]
    U = _identity_rows(nrows) if want_u else None
    Uinv = _identity_rows(nrows) if want_uinv else None
    V = _identity_rows(ncols) if want_v else None
    Vinv = _identity_rows(ncols) if want_vinv else None

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


def rank_and_factors(A):
    form = smith(A)
    return form.rank, form.factors


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
        if any(j < self._rB for row in Ares.nz for j in row):
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
        ucols = _transposed(self._Uinv).nz
        gens = [_dense(ucols[i], self.n) for i in self._torsion_index]
        vcols = _transposed(self._VM).nz
        for j in range(self._rM, self._VM.ncols):
            vec = {}
            for idx, v in vcols[j].items():
                _axpy(vec, v, ucols[self._rB + idx])
            gens.append(_dense(vec, self.n))
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
    stacked matrix [images | torsion relations], read off its transpose,
    whose rows are those columns.
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
    rank, factors = rank_and_factors(IntMatrix(cols, ncols=ngen))
    return rank == ngen and all(d == 1 for d in factors)
