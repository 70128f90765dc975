"""Exact integer matrix arithmetic.

Everything runs on arbitrary-precision Python integers; there is no floating
point anywhere.  A matrix stores only its nonzero entries, row by row, and
every product, comparison and transform works on those.  Smith normal form
is one elimination over a copy of the row dicts.  Each step picks a pivot
among the live rows and columns:

* While some live entry is +-1, the pivot column is the live column with
  the fewest nonzeros that holds a unit, and the pivot row is the row with
  the fewest nonzeros among those holding a unit in that column; ties go to
  the lower index.
* Otherwise the pivot is the live entry of least absolute value, ties
  row-major.

The pivot's column and then its row are cleared with Euclidean steps,
re-picking the pivot while a remainder is left, and a row holding an entry
the pivot does not divide is merged into the pivot row, so the factors come
out as a divisor chain.  Nothing is random, so results and transforms are
deterministic.
"""

from functools import cached_property

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
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise StructureError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise StructureError(f"rows have {width} columns, not {ncols}")
            ncols = width
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


class SmithForm:
    """U * A * V = diag(factors), with U, V unimodular.

    ``factors`` are the positive invariant factors, each dividing the next;
    ``rank`` is their count.  U and Uinv are present only when :func:`smith`
    is asked for ``rows``, V and Vinv only when it is asked for ``cols``.
    """

    __slots__ = ("factors", "rank", "nrows", "ncols", "U", "Uinv", "V", "Vinv")

    def __init__(self, factors, rank, nrows, ncols, U=None, Uinv=None, V=None, Vinv=None):
        self.factors = factors
        self.rank = rank
        self.nrows = nrows
        self.ncols = ncols
        self.U = U
        self.Uinv = Uinv
        self.V = V
        self.Vinv = Vinv


def smith(A, rows=False, cols=False):
    """Smith normal form over the integers, by the elimination described in
    the module docstring.

    With ``rows``, every row operation is mirrored on U's rows and,
    inverted, on Uinv's columns; with ``cols``, every column operation on
    V's columns and, inverted, on Vinv's rows.  Rows of U and Vinv, and
    columns of Uinv and V, come in the order (pivots, then the rest by
    index).
    """
    from heapq import heapify, heappop, heappush

    nrows, ncols = A.nrows, A.ncols
    # the matrix being reduced, as row dicts and as the row sets of its columns
    mrows = [dict(r) for r in A.nz]
    mcols = [set() for _ in range(ncols)]
    for i, row in enumerate(mrows):
        for j in row:
            mcols[j].add(i)
    # U's rows and Uinv's columns are indexed by row, V's columns and
    # Vinv's rows by column
    if rows:
        urows, uinv = ([{i: 1} for i in range(nrows)] for _ in range(2))
    if cols:
        vcols, vinv = ([{j: 1} for j in range(ncols)] for _ in range(2))
    pivot_rows, pivot_cols, factors = [], [], []

    def add_row(i, c, p):
        # row_i -= c * row_p
        row = mrows[i]
        for j, v in mrows[p].items():
            new = row.get(j, 0) - c * v
            if new:
                if j not in row:
                    mcols[j].add(i)
                row[j] = new
            else:
                del row[j]
                mcols[j].discard(i)
        if rows:
            _axpy(urows[i], -c, urows[p])
            _axpy(uinv[p], c, uinv[i])

    def least_entry():
        entries = ((abs(v), i, j) for i, row in enumerate(mrows) if row for j, v in row.items())
        return min(entries, default=None)

    # Heap of (column length, column) for the unit rule; an entry whose
    # length is stale is skipped, and every column a step touches is pushed
    # afresh, so a column holding a unit always has a current entry.
    heap = [(len(c), j) for j, c in enumerate(mcols) if c]
    heapify(heap)
    while True:
        p = None
        while heap and p is None:
            size, q = heappop(heap)
            if len(mcols[q]) == size:
                units = [i for i in mcols[q] if mrows[i][q] in (1, -1)]
                if units:
                    p = min(units, key=lambda i: (len(mrows[i]), i))
        if p is None:
            least = least_entry()
            if least is None:
                break
            _, p, q = least
        touched = set()
        while True:
            touched.update(mrows[p])
            if mrows[p][q] < 0:
                mrows[p] = {j: -v for j, v in mrows[p].items()}
                if rows:
                    urows[p] = {k: -v for k, v in urows[p].items()}
                    uinv[p] = {k: -v for k, v in uinv[p].items()}
            prow = mrows[p]
            d = prow[q]
            for i in [i for i in mcols[q] if i != p]:
                add_row(i, mrows[i][q] // d, p)
            if len(mcols[q]) == 1:
                # col_j -= c * col_q changes only row p, the last in col q
                for j, v in list(prow.items()):
                    c, rest = divmod(v, d)
                    if j == q or not c:
                        continue
                    if rest:
                        prow[j] = rest
                    else:
                        del prow[j]
                        mcols[j].discard(p)
                    if cols:
                        _axpy(vcols[j], -c, vcols[q])
                        _axpy(vinv[q], c, vinv[j])
            if len(mcols[q]) > 1 or len(prow) > 1:
                # a remainder is left: the least entry becomes the pivot
                _, p, q = least_entry()
                continue
            if d == 1:
                break
            # the pivot must divide every live entry for the divisor chain;
            # the first row holding one it does not is merged into row p
            offender = next(
                (i for i, row in enumerate(mrows) if row and any(v % d for v in row.values())),
                None,
            )
            if offender is None:
                break
            add_row(p, -1, offender)
        mrows[p] = None
        mcols[q].discard(p)
        pivot_rows.append(p)
        pivot_cols.append(q)
        factors.append(d)
        for j in touched:
            if mcols[j]:
                heappush(heap, (len(mcols[j]), j))

    dead = set(pivot_cols)
    row_order = pivot_rows + [i for i in range(nrows) if mrows[i] is not None]
    col_order = pivot_cols + [j for j in range(ncols) if j not in dead]
    U = Uinv = V = Vinv = None
    if rows:
        U = IntMatrix._wrap([urows[i] for i in row_order], nrows)
        Uinv = _transposed(IntMatrix._wrap([uinv[i] for i in row_order], nrows))
    if cols:
        V = _transposed(IntMatrix._wrap([vcols[j] for j in col_order], ncols))
        Vinv = IntMatrix._wrap([vinv[j] for j in col_order], ncols)
    return SmithForm(
        factors=factors,
        rank=len(factors),
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


def _combine(columns, vec):
    """The sum of v * columns[j] over the entries j: v of a sparse vector."""
    out = {}
    for j, v in vec.items():
        _axpy(out, v, columns[j])
    return out


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
        if A.ncols != n or B.nrows != n:
            raise StructureError("homology presentation: shape mismatch")
        self._A = A
        formB = smith(B, rows=True)
        self._U = formB.U
        self._Uinv = formB.Uinv
        self._rB = formB.rank
        self._dB = formB.factors
        Ares = A.mul(self._Uinv)
        if any(j < self._rB for row in Ares.nz for j in row):
            raise StructureError("B does not map into ker(A)")
        M = Ares.submatrix_cols(self._rB)
        formM = smith(M, cols=True)
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

    @cached_property
    def _columns(self):
        """Columns of A, U and VMinv, so that a product visits only the
        nonzeros of the vector."""
        return _transposed(self._A).nz, _transposed(self._U).nz, _transposed(self._VMinv).nz

    def coords(self, vec):
        """Class of a cycle: (torsion coords mod d_i, exact free coords)."""
        if len(vec) != self.n:
            raise StructureError("matrix-vector product: shape mismatch")
        acols, ucols, vcols = self._columns
        x = {j: v for j, v in enumerate(vec) if v}
        if _combine(acols, x):
            raise StructureError("vector is not a cycle")
        y = _combine(ucols, x)
        tor = tuple(y.get(i, 0) % self._dB[i] for i in self._torsion_index)
        z = _combine(vcols, {i - self._rB: v for i, v in y.items() if i >= self._rB})
        if any(i < self._rM for i in z):
            raise StructureError("cycle has nonzero coordinates on killed summands")
        free = tuple(z.get(i, 0) for i in range(self._rM, self._VMinv.nrows))
        return tor, free


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
    form = smith(IntMatrix(cols, ncols=ngen))
    return form.rank == ngen and all(d == 1 for d in form.factors)
