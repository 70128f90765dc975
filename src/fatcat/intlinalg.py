"""Exact integer matrix arithmetic.

Everything runs on arbitrary-precision Python integers; there is no floating
point anywhere.  A matrix stores only its nonzero entries, row by row, and
every product and comparison works on those.  Smith normal form
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
out as a divisor chain.  Nothing is random, so results are deterministic.

No transform is ever built as a matrix.  An elimination asked to record a
side keeps the list of its operations on that side, and U, Uinv, V and
Vinv are applied to a vector by replaying the list.
"""

from collections import namedtuple
from functools import cached_property

from .errors import StructureError


class IntMatrix:
    """Sparse integer matrix: ``nz[i]`` is the {column: value} dict of the
    nonzero entries of row i.  No zero is ever stored, so two matrices are
    equal exactly when their shapes and row dicts are.

    ``IntMatrix(rows, ncols)`` builds one from dense row lists of ``ncols``
    entries each; ``rows`` is the dense view, built on demand and read-only.
    """

    __slots__ = ("nz", "nrows", "ncols")

    def __init__(self, rows, ncols):
        rows = [list(r) for r in rows]
        if any(len(r) != ncols for r in rows):
            raise StructureError(f"matrix rows must have {ncols} columns")
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
        return tuple(tuple(r.get(j, 0) for j in range(self.ncols)) for r in self.nz)

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


class SmithForm(namedtuple(
        "SmithForm", "factors nrows ncols row_ops col_ops row_order col_order")):
    """U * A * V = diag(factors), with U, V unimodular.

    ``factors`` are the positive invariant factors, each dividing the next;
    ``rank`` is their count.  No transform is built: :meth:`U`, :meth:`Uinv`,
    :meth:`V` and :meth:`Vinv` apply one to a dense vector by replaying the
    operations that :func:`smith` recorded, in the order they ran.
    ``row_ops`` holds (i, c, p) for row_i -= c * row_p and (p, 2, p) for the
    negation of row p, ``col_ops`` holds (j, c, q) for col_j -= c * col_q,
    and a side not recorded is None.  Row r of U * A * V is row
    ``row_order[r]`` of the reduced matrix and column r is column
    ``col_order[r]``: pivots first, then the rest by index.
    """

    __slots__ = ()

    @property
    def rank(self):
        return len(self.factors)

    def U(self, vec):
        """U * vec: the row operations in order, then the row order."""
        y = list(vec)
        for i, c, p in self.row_ops:
            y[i] -= c * y[p]
        return [y[i] for i in self.row_order]

    def Uinv(self, vec):
        """Uinv * vec: U's steps undone in reverse."""
        y = [0] * self.nrows
        for r, i in enumerate(self.row_order):
            y[i] = vec[r]
        for i, c, p in reversed(self.row_ops):
            if i == p:
                y[p] = -y[p]
            else:
                y[i] += c * y[p]
        return y

    def V(self, vec):
        """V * vec: the column order undone, then the column operations in
        reverse."""
        z = [0] * self.ncols
        for r, j in enumerate(self.col_order):
            z[j] = vec[r]
        for j, c, q in reversed(self.col_ops):
            z[q] -= c * z[j]
        return z

    def Vinv(self, vec):
        """Vinv * vec: V's steps undone in reverse."""
        z = list(vec)
        for j, c, q in self.col_ops:
            z[q] += c * z[j]
        return [z[j] for j in self.col_order]


def smith(A, rows=False, cols=False):
    """Smith normal form over the integers, by the elimination described in
    the module docstring.

    ``rows`` records the row operations, so that U and Uinv can be applied,
    and ``cols`` the column operations, for V and Vinv.  A side left out
    records nothing.
    """
    from heapq import heapify, heappop, heappush

    nrows, ncols = A.nrows, A.ncols
    # the matrix being reduced, as row dicts and, per column, the list of
    # rows holding an entry there: a row joins a column's list when its
    # entry appears and leaves it when the entry cancels
    mrows = [dict(r) for r in A.nz]
    mcols = [[] for _ in range(ncols)]
    for i, row in enumerate(mrows):
        for j in row:
            mcols[j].append(i)
    row_ops = [] if rows else None
    col_ops = [] if cols else None
    pivot_rows, pivot_cols, factors = [], [], []

    def add_row(i, c, p):
        # row_i -= c * row_p
        row = mrows[i]
        for j, v in mrows[p].items():
            new = row.get(j, 0) - c * v
            if new:
                if j not in row:
                    mcols[j].append(i)
                row[j] = new
            else:
                del row[j]
                mcols[j].remove(i)
        if rows:
            row_ops.append((i, c, p))

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
                    row_ops.append((p, 2, p))
            prow = mrows[p]
            d = prow[q]
            # row operations on different rows commute, so the order of
            # the column's list does not matter
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
                        mcols[j].remove(p)
                    if cols:
                        col_ops.append((j, c, q))
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
        mcols[q].remove(p)
        pivot_rows.append(p)
        pivot_cols.append(q)
        factors.append(d)
        for j in touched:
            if mcols[j]:
                heappush(heap, (len(mcols[j]), j))

    dead = set(pivot_cols)
    return SmithForm(
        factors=factors,
        nrows=nrows,
        ncols=ncols,
        row_ops=row_ops,
        col_ops=col_ops,
        row_order=pivot_rows + [i for i in range(nrows) if mrows[i] is not None],
        col_order=pivot_cols + [j for j in range(ncols) if j not in dead],
    )


def _axpy(target, q, source):
    """target += q * source, for sparse vectors stored as dicts."""
    for k, v in source.items():
        new = target.get(k, 0) + q * v
        if new:
            target[k] = new
        else:
            del target[k]


def _transposed(m):
    nz = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.nz):
        for j, v in row.items():
            nz[j][i] = v
    return IntMatrix._wrap(nz, m.nrows)


def _unit(n, i):
    return [int(k == i) for k in range(n)]


def _rest_after(A, formB):
    """A * Uinv of B's elimination, without its first rank(B) columns.

    Uinv is never built: B's row operations are replayed as column
    operations on A's columns, col_p += c * col_i for row_i -= c * row_p,
    in the order they ran.  Those first columns must come out zero."""
    acols = _transposed(A).nz
    for i, c, p in formB.row_ops:
        if i == p:
            acols[p] = {k: -v for k, v in acols[p].items()}
        else:
            _axpy(acols[p], c, acols[i])
    order = formB.row_order
    if any(acols[i] for i in order[: formB.rank]):
        raise StructureError("B does not map into ker(A)")
    return _transposed(IntMatrix._wrap([acols[i] for i in order[formB.rank:]], A.nrows))


class HomologyPresentation:
    """Presentation of ker(A)/im(B) for integer matrices with A*B = 0.

    The ambient rank is ``n`` (A has n columns, B has n rows).  After a
    unimodular change of basis splitting off im(B), the group is

        (+)_i Z/d_i  (+)  Z^betti

    with ``d_i`` the invariant factors of B that exceed 1.  ``generators``
    are integer vectors in the ambient basis; ``coords`` writes any cycle
    in the generator basis (torsion coordinates already reduced mod d_i).

    Two eliminations make it: B's, recording its row operations, whose
    Uinv splits off im(B), and M's, the rest of A in that basis, recording
    its column operations, whose V picks the free cycles.  Generators and
    coordinates are computed only when read: generators apply Uinv and V,
    coordinates U and Vinv.
    """

    def __init__(self, A, B, n):
        self.n = n
        if A.ncols != n or B.nrows != n:
            raise StructureError("homology presentation: shape mismatch")
        self._A = A
        self._B = smith(B, rows=True)
        self._M = smith(_rest_after(A, self._B), cols=True)
        self.betti = (n - self._B.rank) - self._M.rank
        dB = self._B.factors
        self._torsion_index = [i for i, d in enumerate(dB) if d > 1]
        self.torsion = tuple(dB[i] for i in self._torsion_index)

    @property
    def generators(self):
        """Torsion generators first, then free generators."""
        B, M = self._B, self._M
        gens = [B.Uinv(_unit(self.n, i)) for i in self._torsion_index]
        for j in range(M.rank, M.ncols):
            gens.append(B.Uinv([0] * B.rank + M.V(_unit(M.ncols, j))))
        return gens

    @cached_property
    def _A_columns(self):
        # built by the first coords call, so a side never read there never builds it
        return _transposed(self._A).nz

    def coords(self, vec):
        """Class of a cycle: (torsion coords mod d_i, exact free coords)."""
        if len(vec) != self.n:
            raise StructureError("matrix-vector product: shape mismatch")
        # A * vec, summing A's columns over the support of vec
        image = {}
        for j, x in enumerate(vec):
            if x:
                _axpy(image, x, self._A_columns[j])
        if image:
            raise StructureError("vector is not a cycle")
        B, M = self._B, self._M
        y = B.U(vec)
        tor = tuple(y[i] % B.factors[i] for i in self._torsion_index)
        z = M.Vinv(y[B.rank:])
        if any(z[: M.rank]):
            raise StructureError("cycle has nonzero coordinates on killed summands")
        return tor, tuple(z[M.rank:])


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
    form = smith(IntMatrix(cols, ngen))
    return form.rank == ngen and all(d == 1 for d in form.factors)
