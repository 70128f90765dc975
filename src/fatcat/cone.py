"""Deciding a chain map on its mapping cone.

A chain map F from A to B is a homology isomorphism in degrees <= d when
its mapping cone, cone_n = A_{n-1} + B_n with boundary (-da, Fa + db), has
no homology in degrees <= d + 1.  :func:`coreduction_clears` runs a
first-in, first-out coreduction on a cone, in about linear time, and can
only certify that.  One assembler, :func:`_cone_clears`, lays the cone out
for it, and reads B's side off B's boundary matrices, which B's
constructor checked for dd = 0.  A's side and F come from matrices too in
:func:`cone_certifies`; :func:`projection_cone_certifies` reads them for
the stage projection π off the position tables of the product and π, so
no matrix of the product or of π is built, and takes the nerve's fat
chains as B.  That reader first checks dd = 0 on the product and π's
commutation on those tables, one cell at a time (:func:`check_face_tables`,
:func:`check_map_tables`), with the messages of the matrix checks in
:mod:`fatcat.homology`, and the layout that its cofaces assume.  A
certified map reports each degree with the target's group on both sides
(:func:`certified_report`); otherwise
:func:`fatcat.homology.quasi_iso_through` decides, with witnesses.

``verify tom-dieck`` and ``verify blowup`` import this module when they
run, so the other commands do not load its code.
"""

from itertools import accumulate, islice, repeat
from operator import eq
from sys import byteorder

from .errors import StructureError
from .homology import ChainMap, DegreeComparison, IntegerChainComplex, QuasiIsoReport, homology
from .simpset import SimplicialMap


def certified_report(target: IntegerChainComplex, d: int) -> QuasiIsoReport:
    """The report of a chain map into ``target`` whose cone certifies it
    through d: each degree k <= d takes target's H_k on both sides."""
    groups = (homology(target, k) for k in range(d + 1))
    return QuasiIsoReport([DegreeComparison(g.degree, g, g, True) for g in groups], [])


def cone_certifies(F: ChainMap, d: int) -> bool:
    """Does a greedy coreduction clear the mapping cone of F in degrees
    <= d + 1?  If so, F is a homology isomorphism in degrees <= d.

    For F from A to B the cone has cone_n = A_{n-1} + B_n and
    boundary(a, b) = (-da, Fa + db); it is read in degrees 0..d + 2 off A's
    boundaries and F's matrices through d + 1 and B's boundaries through
    d + 2 (:func:`_cone_clears`).

    When no live cell of degree <= d + 1 is left, H_n(cone) = 0 for
    n <= d + 1, and the exact sequence H_{k+1}(cone) -> H_k(A) -> H_k(B)
    -> H_k(cone) (Weibel, An Introduction to Homological Algebra, 1.5)
    makes F_* an isomorphism for k <= d.  A cell left there would have to
    be made critical, and then nothing is certified: F may still be a
    quasi-isomorphism, which :func:`fatcat.homology.quasi_iso_through`
    decides.
    """
    A = F.source
    _check_degrees(A, F.target, d)
    between = {(2 * k - 1, 2 * k + 1): A.boundary[k] for k in range(1, d + 2)}
    between |= {(2 * k, 2 * k + 1): F.matrices[k] for k in range(d + 2)}
    return _cone_clears(list(map(len, A.basis)), F.target, d, between)


def projection_cone_certifies(proj: SimplicialMap, s, chains: IntegerChainComplex,
                              d: int) -> bool:
    """:func:`cone_certifies` on the chain map of π = ``proj``, from x
    times the stage complex s onto x, with the product's side read off
    position tables: no matrix of the product or of π is built, and the
    verdict is the same.  ``chains`` is the fat chains of x, audited for
    dd = 0 when they were built; x's side of the cone is read off them.

    The checks come first, one cell at a time: dd = 0 on the product
    through d + 1 (:func:`check_face_tables`), π's commutation through
    d + 1 (:func:`check_map_tables`), and then :func:`_check_layout`, that
    the product's faces and π's map are those laid out from x and s.  In
    the cone, the product k-cell (a, b) at a * |s_k| + b has the product's
    faces and, through π, the cell a of x, each with coefficient +-1.  The
    cofaces of (a, b) under d_i are the (a', b') with d_i a' = a and
    d_i b' = b, read off x's and s's coface lists; those of a cell t of x
    under π are the product cells over it, at t * |s_k| to
    (t + 1) * |s_k| - 1.
    """
    x, prod = proj.target, proj.source
    _check_degrees(prod, chains, d)
    check_face_tables(prod, d + 1)
    check_map_tables(proj, d + 1)
    _check_layout(proj, s, d + 1)
    width = [s.n_cells(k) for k in range(d + 2)]
    x_up, s_up = _coface_lists(x, d + 1), _coface_lists(s, d + 1)

    def tables(start, count, face_sum):
        # over[k - 1][i][a]: the first product k-cell over each k-cell of x
        # whose face d_i is a
        over = [[[[start[2 * k + 1] + q * width[k] for q in up] for up in lists]
                 for lists in x_up[k]] for k in range(1, d + 2)]
        for k in range(d + 2):
            # the product's k + 1 faces, then the cell of x under it
            lo, hi = start[2 * k + 1], start[2 * k + 2]
            count[lo:hi] = repeat(k + 2 if k else 1, hi - lo)
            sums = map(sum, zip(*prod.faces[k])) if k else repeat(0)
            first = start[2 * k] + ((k + 1) * start[2 * k - 1] if k else 0)
            face_sum[lo:hi] = (first + a + f for a in range(x.n_cells(k))
                               for f in islice(sums, width[k]))

        def cofaces(i, local):
            # the product's (d + 1)-cells and x's (d + 2)-cells have none
            if i > 2 * d + 2:
                return ()
            k = i // 2
            if i % 2:
                a, b = divmod(local, width[k])
                return [u + v for xs, ss in zip(over[k], s_up[k + 1])
                        for u in xs[a] for v in ss[b]]
            first = start[i + 1] + local * width[k]
            return range(first, first + width[k])

        return cofaces

    return _cone_clears(list(map(len, prod.cells)), chains, d, {}, tables)


def _cone_clears(ranks, B, d: int, between, tables=None) -> bool:
    """:func:`coreduction_clears` on the mapping cone of a chain map from
    A, with ``ranks[k]`` k-cells in degree k <= d + 1, to the chain
    complex B, in degrees 0..d + 2, in cell order: block 2k holds B_k and
    block 2k + 1 holds A_k.  ``between[face block, cell block]`` is the
    matrix whose entry (i, j) is, up to sign, the coefficient of the face
    block's i-th cell in the boundary of the cell block's j-th cell; B's
    boundaries are added here, so the caller gives A's and the map's.
    ``tables(start, count, face_sum)``, when given, reads A's blocks
    instead: it fills their counts and face sums, each face with
    coefficient +-1, and returns ``cofaces(block, local)``, the cofaces of
    a cell that no matrix in ``between`` holds, listed before those that
    one does.
    """
    # start[i] is the position of block i's first cell
    sizes = [n for k in range(d + 2) for n in (B.rank(k), ranks[k])] + [B.rank(d + 2)]
    start, block = list(accumulate(sizes, initial=0)), _blocks(sizes)
    between = between | {(2 * k - 2, 2 * k): B.boundary[k] for k in range(1, d + 3)}
    above = [[] for _ in sizes]
    count, face_sum = [0] * start[-1], [0] * start[-1]
    for (fb, cb), mat in between.items():
        above[fb].append((mat, start[cb]))
        for t, row in enumerate(mat.nz, start[fb]):
            for j in row:
                count[start[cb] + j] += 1
                face_sum[start[cb] + j] += t
    read = tables(start, count, face_sum) if tables else lambda i, local: ()

    def unit(t, b):
        fb, cb = block[t], block[b]
        mat = between.get((fb, cb))
        return mat is None or abs(mat.nz[t - start[fb]][b - start[cb]]) == 1

    def cofaces(p):
        i = block[p]
        local = p - start[i]
        return [*read(i, local), *(first + j for mat, first in above[i] for j in mat.nz[local])]

    # the cells of degree <= d + 1 come before A_{d+1}'s block
    return coreduction_clears(count, face_sum, start[2 * d + 3], unit, cofaces)


def _check_degrees(A, B, d: int) -> None:
    """Raise :class:`StructureError` unless the cone of a map from A to B
    can be read through degree d + 2."""
    if d < 0 or A.D < d + 1 or B.D < d + 2:
        raise StructureError(
            f"the cone through degree {d + 2} needs the source through {d + 1} "
            f"and the target through {d + 2}")


def coreduction_clears(count, face_sum, top, unit, cofaces) -> bool:
    """Does a first-in, first-out coreduction leave no live cell at the
    positions below ``top``?

    The cells of a complex are the positions 0..len(count) - 1, in degree
    order.  ``count[p]`` and ``face_sum[p]`` are the number of faces of
    cell p with a nonzero coefficient and the sum of their positions, and
    are spent in place; ``unit(t, b)`` says whether face t of cell b has
    coefficient +-1, and ``cofaces(p)`` lists once each cell whose
    boundary holds p with a nonzero coefficient.  The coreduction (Mrozek
    and Batko, Discrete Comput. Geom. 41, 2009) takes cells first in, first
    out, and removes a cell whose one live face has coefficient +-1
    together with that face.  That face is the cell's whole boundary, so
    the step keeps the homology and leaves the restricted boundary on the
    live cells.  A cell enters the queue when its live faces drop to one;
    it knows that face as the sum of the positions of its live faces.
    """
    live = bytearray(b"\1") * len(count)
    left = top
    queue = [p for p, n in enumerate(count) if n == 1]
    # the queue grows while it is walked, so cells leave in the order they came
    for b in queue:
        if count[b] != 1 or not live[b]:
            continue
        t = face_sum[b]
        if not unit(t, b):
            continue
        live[t] = live[b] = 0
        left -= (t < top) + (b < top)
        if not left:
            return True
        for p in (t, b):
            for q in cofaces(p):
                if live[q]:
                    count[q] -= 1
                    face_sum[q] -= p
                    if count[q] == 1:
                        queue.append(q)
    return not left


def _blocks(sizes):
    """block[p]: the index of the block that holds position p, when blocks
    of the given sizes lie end to end; two bytes a position."""
    table = bytearray().join(i.to_bytes(2, byteorder) * n for i, n in enumerate(sizes))
    return memoryview(table).cast("H")


def check_face_tables(x, top: int) -> None:
    """dd = 0 on the fat chains of x through degree top, read off x's face
    tables one cell at a time: at each k-cell the positions that d_j d_i
    reaches with sign + and with sign -, (-1)^(i + j), must agree as
    multisets.  A failure raises the message of the matrix check in
    :class:`IntegerChainComplex`."""
    F = x.faces
    for k in range(2, top + 1):
        terms = ([], [])
        for i, outer in enumerate(F[k]):
            for j, inner in enumerate(F[k - 1]):
                terms[(i + j) % 2].append(map(inner.__getitem__, outer))
        if not _cancels(*terms):
            raise StructureError(f"dd != 0 between degrees {k} and {k - 2}")


def check_map_tables(f, top: int) -> None:
    """The chain map of the simplicial map f commutes with the fat
    boundaries through degree top, read off its map and face tables one
    cell at a time: at each k-cell p the positions d_i f(p) and f(d_i p)
    reached with sign + and with sign - must agree as multisets.  A failure
    raises the message of :class:`ChainMap`."""
    M = f.maps
    for k in range(1, top + 1):
        terms = ([], [])
        for i, (outer, inner) in enumerate(zip(f.target.faces[k], f.source.faces[k])):
            terms[i % 2].append(map(outer.__getitem__, M[k]))
            terms[1 - i % 2].append(map(M[k - 1].__getitem__, inner))
        if not _cancels(*terms):
            raise StructureError(f"chain map does not commute with boundary {k}")


def _cancels(plus, minus) -> bool:
    """Do the positions reached with sign + and with sign - agree as
    multisets at every cell?  ``plus`` and ``minus`` hold one lazily
    composed position table per term, all over the same cells, so one cell
    is sorted at a time."""
    return all(map(eq, map(sorted, zip(*plus)), map(sorted, zip(*minus))))


def _coface_lists(x, top: int):
    """up[k][i][a]: the k-cells of x whose face d_i is the (k - 1)-cell a,
    ascending, for 1 <= k <= top."""
    up = [None]
    for k in range(1, top + 1):
        per = []
        for table in x.faces[k]:
            lists = [[] for _ in range(x.n_cells(k - 1))]
            for p, a in enumerate(table):
                lists[a].append(p)
            per.append(lists)
        up.append(per)
    return up


def _check_layout(proj: SimplicialMap, s, top: int) -> None:
    """Raise :class:`StructureError` unless, through degree top, π's map
    and the product's faces are those that
    :func:`fatcat.comparison.stage_projection` and
    :func:`fatcat.simpset.product_with_S` lay out from x and s: the k-cell
    at a * |s_k| + b lies over a, and its face d_i sits at
    d_i(a) * |s_{k-1}| + d_i(b).
    Each block of |s_k| cells over one a is compared in turn."""
    x, prod = proj.target, proj.source
    for k in range(top + 1):
        n, cells = s.n_cells(k), range(x.n_cells(k))
        if not _laid_out(proj.maps[k], n, ([a] * n for a in cells)):
            raise StructureError(f"π's map leaves the stage product's layout in degree {k}")
        for xf, sf, table in zip(x.faces[k], s.faces[k], prod.faces[k]) if k else ():
            m = s.n_cells(k - 1)
            if not _laid_out(table, n, (list(map((xf[a] * m).__add__, sf)) for a in cells)):
                raise StructureError(f"a product face leaves its layout in degree {k}")


def _laid_out(table, n: int, blocks) -> bool:
    """Is ``table`` the lists ``blocks``, each of n positions, end to end?"""
    size = 0
    for block in blocks:
        if table[size:size + n] != block:
            return False
        size += n
    return len(table) == size
