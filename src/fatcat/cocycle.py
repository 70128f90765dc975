"""Groupoid-valued cocycles on covered finite complexes.

An open cover is modeled by an ordered list of subcomplexes, and all
transition data is locally constant: one groupoid morphism per connected
component of each pairwise overlap, one object per component of each cover
set.  Connectivity is vertex-edge connectivity, which downward closure
makes equivalent to sharing any face.

The classifying complex of a finite groupoid is the stagewise unraveling
of its nerve; its cells carry the canonical transition assignment (compose
forward, identity on the diagonal, invert backward), and the blowup of a
covered complex maps into it by the cellwise classifying rule.

The composition law has one checker, :func:`_law_failures`, on a table of
transitions keyed by vertex pairs, for cocycles and the universal cocycle.
"""

from collections import namedtuple
from itertools import combinations, combinations_with_replacement, product
from operator import itemgetter

from .errors import StructureError, Violation, check_budget
from .fincat import FinGroupoid, groupoid_from_json, groupoid_to_json
from .homology import (
    ChainMap,
    IntegerChainComplex,
    QuasiIsoReport,
    cellular_map,
    check_degree_range,
    deletion_complex,
    geometric_chains,
    named_matrix,
    quasi_iso_through,
)
from .ids import decode_id, encode_id, sort_ids
from .simpset import (
    SemiSimplicialSet,
    TruncatedSimplicialSet,
    chain_composites,
    chain_objects,
    check_size,
    nerve,
    unravel_simplicial,
    unraveled_counts,
)


# ---------------------------------------------------------------------------
# Covered complexes


def closure(faces):
    """Downward closure of a face list, as sorted vertex tuples."""
    out = set()
    for face in faces:
        face = tuple(sorted(face))
        if not face:
            raise StructureError("faces must be nonempty")
        for size in range(1, len(face) + 1):
            out.update(combinations(face, size))
    return frozenset(out)


def _components(faces):
    """Connected components of a face set, keyed by sorted vertex tuples."""
    faces = sort_ids(faces)
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for face in faces:
        for v in face:
            parent.setdefault(v, v)
    for face in faces:
        root = find(face[0])
        for v in face[1:]:
            parent[find(v)] = root
    groups = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return tuple(sort_ids(tuple(sorted(g)) for g in groups.values()))


class CoveredComplex:
    """Finite abstract simplicial complex with an ordered subcomplex cover."""

    def __init__(self, faces, cover):
        self.faces = frozenset(tuple(sorted(f)) for f in faces)
        if not self.faces:
            raise StructureError("complex must be nonempty")
        for face in self.faces:
            if not face:
                raise StructureError("faces must be nonempty")
            if len(set(face)) != len(face):
                raise StructureError(f"face with repeated vertex: {face}")
            for size in range(1, len(face)):
                for sub in combinations(face, size):
                    if sub not in self.faces:
                        raise StructureError(f"complex is not downward closed at {face}")
        self.vertices = tuple(sorted({v for f in self.faces for v in f}))
        self.cover = tuple(frozenset(tuple(sorted(f)) for f in part) for part in cover)
        if not self.cover:
            raise StructureError("cover must be nonempty")
        covered = set()
        for i, part in enumerate(self.cover):
            for face in part:
                if face not in self.faces:
                    raise StructureError(f"cover set {i} contains a foreign face")
                for size in range(1, len(face)):
                    for sub in combinations(face, size):
                        if sub not in part:
                            raise StructureError(f"cover set {i} is not downward closed")
            covered.update(part)
        if covered != self.faces:
            raise StructureError("cover does not cover the complex")
        self._component_cache = {}

    def dimension(self):
        return max(len(f) for f in self.faces) - 1

    def components_of_overlap(self, indices):
        key = tuple(sorted(set(indices)))
        if key not in self._component_cache:
            faces = frozenset.intersection(*(self.cover[i] for i in key))
            self._component_cache[key] = _components(faces)
        return self._component_cache[key]

    def component_containing(self, indices, face):
        """Component key of overlap(indices) whose vertex set contains the face."""
        for comp in self.components_of_overlap(indices):
            if set(face) <= set(comp):
                return comp
        raise StructureError(f"face {face} is not in the overlap of {indices}")


# ---------------------------------------------------------------------------
# Cocycles


class GCocycle:
    """Cover with groupoid-valued transitions per overlap component.

    ``objects[(alpha, comp)]`` assigns an object to each component of each
    cover set; ``transitions[(alpha, beta, comp)]`` is the morphism from
    the alpha-side object to the beta-side object over each component of
    the pairwise overlap, for alpha != beta.  A diagonal entry, alpha ==
    beta over a component of U_alpha, may be given too; it must be the
    identity of the object there.
    """

    def __init__(self, base: CoveredComplex, groupoid: FinGroupoid, objects, transitions):
        self.base = base
        self.groupoid = groupoid
        self.objects = dict(objects)
        self.transitions = dict(transitions)

    def object_at(self, alpha, face):
        comp = self.base.component_containing((alpha,), face)
        return self.objects[(alpha, comp)]

    def transition(self, alpha, beta, face):
        """Transition from alpha to beta over the component containing face."""
        if alpha == beta:
            return self.groupoid.base.identity[self.object_at(alpha, face)]
        comp = self.base.component_containing((alpha, beta), face)
        return self.transitions[(alpha, beta, comp)]


def check_cocycle(u: GCocycle):
    """Endpoint-coherence is structural; the composition law is reported.

    Only the nonempty overlaps of at most three cover sets carry data, so
    the objects, the transitions and the law are read off the nerve of the
    cover.  The law is :func:`_law_failures` on each tuple's transition
    table, one per component, kept where a triple uses every index of the
    tuple: every ordering of it, repeated indices included.  The triples
    that miss an index were checked on a sub-tuple already; running the one
    checker over them again and dropping them is the price of having one.
    Its violations come in (alpha, beta, gamma) order."""
    base, cat = u.base, u.groupoid.base
    overlaps = [(idx, base.components_of_overlap(idx)) for idx, _ in _cover_nerve(base, 2)]
    expected_objects = {(idx[0], comp) for idx, comps in overlaps if len(idx) == 1
                        for comp in comps}
    if set(u.objects) != expected_objects:
        raise StructureError("object assignment does not match the cover components")
    objects = set(cat.objects)
    for key, obj in u.objects.items():
        if obj not in objects:
            raise StructureError(f"object at {key} is not in the groupoid")
    # a diagonal entry may be left out, but one that is given is checked
    # like the others
    required = {(alpha, beta, comp) for idx, comps in overlaps if len(idx) == 2
                for alpha, beta in (idx, idx[::-1]) for comp in comps}
    allowed = required | {(alpha, alpha, comp) for alpha, comp in expected_objects}
    if not required <= set(u.transitions) <= allowed:
        raise StructureError("transitions do not match the overlap components")
    for (alpha, beta, comp), m in u.transitions.items():
        if m not in cat.src:
            raise StructureError(f"transition at {(alpha, beta, comp)} is not a morphism")
        src_obj = u.objects[(alpha, base.component_containing((alpha,), comp))]
        tgt_obj = u.objects[(beta, base.component_containing((beta,), comp))]
        if cat.src[m] != src_obj or cat.tgt[m] != tgt_obj:
            raise StructureError(
                f"transition endpoints at {(alpha, beta, comp)} do not match the objects"
            )

    violations = []
    for (alpha, beta, comp), m in sort_ids(u.transitions.items(), key=itemgetter(0)):
        if alpha == beta and not cat.is_identity(m):
            violations.append(Violation("diagonal-identity", (alpha, comp)))
    failures = [
        Violation("cocycle-law", (idx[a], idx[b], idx[c], comp), "f_cb o f_ba != f_ca")
        for idx, comps in overlaps for comp in comps
        for a, b, c in _law_failures(cat, len(idx) - 1, _cover_table(u, idx, comp))
        if len({a, b, c}) == len(idx)
    ]
    # each triple uses every index of one tuple, so a stable sort keeps its
    # components in order
    return violations + sorted(failures, key=lambda v: v.witness[:3])


def _cover_table(u: GCocycle, idx, face):
    """The transitions of u between the cover sets of a nerve tuple, keyed
    by position pairs, over the component containing face."""
    return {(i, j): u.transition(a, b, face)
            for i, a in enumerate(idx) for j, b in enumerate(idx)}


class CocycleIsomorphism(namedtuple("CocycleIsomorphism", "source target phi")):
    """Componentwise comparison data between two cocycles on one complex.

    ``phi[(alpha, gamma, comp)]`` is the morphism from the source object of
    u over U_alpha to the target object of v over V_gamma, per component of
    the overlap of the two cover sets.
    """

    __slots__ = ()


def _cross_overlap(base_u, base_v, alpha, gamma):
    return frozenset(base_u.cover[alpha] & base_v.cover[gamma])


def union_cocycle(iso: CocycleIsomorphism) -> GCocycle:
    """Cocycle on the joint cover whose validity defines the isomorphism.

    Reverse cross transitions are the groupoid inverses of phi, which the
    composition law forces anyway.
    """
    u, v = iso.source, iso.target
    if u.base.faces != v.base.faces:
        raise StructureError("isomorphism needs cocycles on the same complex")
    if u.groupoid != v.groupoid:
        raise StructureError("isomorphism needs a common groupoid")
    g = u.groupoid
    nu = len(u.base.cover)
    joint = CoveredComplex(sort_ids(u.base.faces), list(u.base.cover) + list(v.base.cover))
    objects = {}
    for (alpha, comp), obj in u.objects.items():
        objects[(alpha, comp)] = obj
    for (gamma, comp), obj in v.objects.items():
        objects[(nu + gamma, comp)] = obj
    transitions = {}
    for (alpha, beta, comp), m in u.transitions.items():
        transitions[(alpha, beta, comp)] = m
    for (gamma, delta, comp), m in v.transitions.items():
        transitions[(nu + gamma, nu + delta, comp)] = m
    for (alpha, gamma, comp), m in iso.phi.items():
        transitions[(alpha, nu + gamma, comp)] = m
        transitions[(nu + gamma, alpha, comp)] = g.inverse[m]
    return GCocycle(joint, g, objects, transitions)


# kept for bench/tracer.py, which traces it; the calculus on it is tests/cocycle_calculus.py
def check_isomorphism(iso: CocycleIsomorphism):
    expected = {
        (alpha, gamma, comp)
        for alpha in range(len(iso.source.base.cover))
        for gamma in range(len(iso.target.base.cover))
        for comp in _components(
            _cross_overlap(iso.source.base, iso.target.base, alpha, gamma)
        )
    }
    if set(iso.phi) != expected:
        raise StructureError("phi does not match the cross-overlap components")
    return check_cocycle(union_cocycle(iso))


# ---------------------------------------------------------------------------
# The classifying complex, its canonical transitions and the blowup


def bg_complex(g: FinGroupoid, N: int, D: int) -> TruncatedSimplicialSet:
    """Stagewise unraveled nerve of a groupoid, the target of
    :func:`classifying_chain_map`."""
    return unravel_simplicial(nerve(g.base, D), N)


def _transition_table(g: FinGroupoid, m, z):
    """Canonical transitions of a degree-m nerve cell, keyed by vertex
    pairs: compose forward, identity on the diagonal, invert backward."""
    cat = g.base
    table = {}
    # with two or more vertices z is the chain of arrows between them
    for (a, b), f in chain_composites(cat, chain_objects(cat, m, z), z).items():
        table[(a, b)] = f
        if a < b:
            table[(b, a)] = g.inverse[f]
    return table


def _law_failures(cat, m, table):
    """Vertex triples (a, b, c) of a degree-m transition table where the
    transition a -> b followed by b -> c is not a -> c."""
    r = range(m + 1)
    return [
        (a, b, c) for a in r for b in r for c in r
        if cat.table.get((table[(a, b)], table[(b, c)])) != table[(a, c)]
    ]


def universal_cocycle(g: FinGroupoid, N: int, D: int):
    """Canonical transitions on every cell of the classifying complex
    ``bg_complex(g, N, D)``, checked for the composition law: the
    violations, empty when it holds.

    Only the nerve is built: the classifying complex is counted and refused
    as :func:`unravel_simplicial` would.  The transitions of a cell (seq, z)
    are those of the nerve cell z with vertex a relabelled by the a-th
    distinct stage of seq, an order-preserving bijection, so the law is
    checked once per nerve simplex.  Only after a failure are the cells
    walked, in the classifying complex's order (stage tuples, then the
    nerve's cells of their degree), for the witnesses a cell-by-cell check
    would give.

    A face's transitions are its cell's, so there is no face check.  A face
    deleting a stage that shares its value keeps z and the stage set; one
    deleting a lone stage is d_v z relabelled by the stages left.  A forward
    transition a -> b is the left fold of the arrows from vertex a to b, and
    a backward one its inverse.  The face's folds are the cell's, except
    where d_v has composed f_v and f_{v+1} first inside a fold X that starts
    before vertex v - 1; there they differ only if (X, f_v, f_{v+1}) does
    not associate.  That triple is a 3-cell, and the nerve's face-face audit
    (d_1 d_2 = d_1 d_1) refuses the groupoid at D >= 3; below that no cell
    has such a face.
    """
    ner, cat = nerve(g.base, D), g.base
    check_size(TruncatedSimplicialSet, D, unraveled_counts(ner, N))
    law = [[_law_failures(cat, m, _transition_table(g, m, z)) for z in ner.cells[m]]
           for m in range(D + 1)]
    report = []
    if any(any(level) for level in law):
        for k in range(D + 1):
            for seq in combinations_with_replacement(range(N + 1), k + 1):
                values = sorted(set(seq))
                m = len(values) - 1
                for z, failures in zip(ner.cells[m], law[m]):
                    for a, b, c in failures:
                        witness = (k, (seq, z), values[a], values[b], values[c])
                        report.append(Violation("universal-cocycle-law", witness))
    return report


# ---------------------------------------------------------------------------
# Partition-of-unity homotopy

# the grid's points and times are numerators over this denominator
GRID_DENOMINATOR = 4


def partition_homotopy(a, b, q):
    """Deformation from raw coordinates to a locally finite partition, in
    integers: the point t = a / q at time s = b / q.

    w_i = max(0, t_i - s * sum_{j<i} t_j) and v = w normalized; at s = 0
    this returns t itself, and at s = 1 entry i dies as soon as the mass
    before it reaches t_i.  Returns (w, T): w scaled by q * q, as the
    numerators max(0, q * a_i - b * sum_{j<i} a_j), and their sum T, so
    that v is w over T.  :func:`check_partition_grid` checks that T > 0.
    """
    if not 0 <= b <= q:
        raise StructureError("s must lie in [0, 1]")
    w = []
    before = 0
    for ai in a:
        wi = q * ai - b * before
        w.append(wi if wi > 0 else 0)
        before += ai
    w = tuple(w)
    return w, sum(w)


def partition_grid():
    """Deterministic grid of partition points: all 5-part compositions of
    GRID_DENOMINATOR, as numerators over it; vertices are included."""
    q = GRID_DENOMINATOR
    return [p for p in product(range(q + 1), repeat=5) if sum(p) == q]


def check_partition_grid():
    """Exact partition identities over the grid, at times s = 0, 1/q, ..., 1
    for q = GRID_DENOMINATOR.

    Checks that the mass T is positive and v sums to one, that s = 0
    returns the input, and that at s = 1 an entry dies exactly when the
    mass before it reaches it, all in integers.  A witness names t, and s
    where it matters, as exact-rational strings.
    """
    q = GRID_DENOMINATOR
    violations = []
    pairs = 0
    for a in partition_grid():
        failed = []
        for b in range(q + 1):
            pairs += 1
            v, total = partition_homotopy(a, b, q)
            if total <= 0 or sum(v) != total:
                from fractions import Fraction

                failed.append(("partition-sum", str(Fraction(b, q))))
            if b == 0 and [q * vi for vi in v] != [ai * total for ai in a]:
                failed.append(("partition-start",))
            if b == q:
                before = 0
                for i, ai in enumerate(a):
                    if before >= ai and v[i] != 0:
                        failed.append(("partition-truncation", i))
                    before += ai
        if failed:
            from fractions import Fraction

            t = tuple(str(Fraction(ai, q)) for ai in a)
            violations += [Violation(law, (t, *rest)) for law, *rest in failed]
    return pairs, violations


# ---------------------------------------------------------------------------
# Blowup of a covered complex


def base_chain_complex(cc: CoveredComplex, D: int) -> IntegerChainComplex:
    """Ordered simplicial chains of the underlying complex, truncated or
    padded to D, which is budgeted before the padding is built."""
    dim = cc.dimension()
    faces = [sort_ids(f for f in cc.faces if len(f) == k + 1)
             for k in range(min(D, dim) + 1)]
    check_size(SemiSimplicialSet, D, list(map(len, faces)))
    return deletion_complex(faces + [[]] * (D - dim))


def _cover_nerve(cc: CoveredComplex, top: int):
    """The nonempty overlaps of at most top + 1 cover sets, as (indices,
    faces) with increasing indices, by size and then lexicographically.

    Each size extends only the nonempty overlaps of the size below, since
    adding a set only shrinks an overlap."""
    cover = cc.cover
    level = [((i,), part) for i, part in enumerate(cover) if part]
    for _ in range(top):
        yield from level
        level = [
            (idx + (j,), both)
            for idx, faces in level
            for j in range(idx[-1] + 1, len(cover))
            if (both := faces & cover[j])
        ]
    yield from level


def _blowup_boundary(cell):
    """Index-deleting sum plus the signed face sum of one generator."""
    idx, face = cell
    p = len(idx) - 1
    if p:
        for r in range(p + 1):
            yield (idx[:r] + idx[r + 1:], face), -1 if r % 2 else 1
    if len(face) > 1:
        for r in range(len(face)):
            yield (idx, face[:r] + face[r + 1:]), -1 if (p + r) % 2 else 1


def _collapse(cell):
    idx, face = cell
    return ((face, 1),) if len(idx) == 1 else ()


def blowup(base: CoveredComplex, D: int) -> IntegerChainComplex:
    """The blowup: the total complex of the cover-versus-chains double
    complex, through degree D.

    A generator in bidegree (p, q) is a strictly increasing (p+1)-tuple of
    cover indices with nonempty overlap, one of :func:`_cover_nerve`,
    together with a q-face of that overlap.  The total differential is the
    index-deleting sum plus the signed face sum.  The generators are
    counted and budgeted before any of them is listed.
    """
    count = sum(len(idx) + len(face) <= D + 2
                for idx, faces in _cover_nerve(base, D) for face in faces)
    check_budget(count, "blowup total complex")
    basis = [[] for _ in range(D + 1)]
    for idx, faces in _cover_nerve(base, D):
        for face in faces:
            k = len(idx) + len(face) - 2
            if k <= D:
                basis[k].append((idx, face))
    basis = [sort_ids(level) for level in basis]
    boundary = {
        k: named_matrix(basis[k], basis[k - 1], _blowup_boundary) for k in range(1, D + 1)
    }
    return IntegerChainComplex(D, basis, boundary)


def blowup_vs_base(base: CoveredComplex, d: int) -> QuasiIsoReport:
    """The collapse of the blowup onto the underlying complex must be a
    homology isomorphism in degrees <= d.  The underlying complex is built
    first, so that D is budgeted before any degree of the blowup is laid
    out."""
    D = max(d + 1, base.dimension())
    check_degree_range(d, D)
    chains = base_chain_complex(base, D)
    return quasi_iso_through(cellular_map(blowup(base, D), chains, _collapse), d)


# ---------------------------------------------------------------------------
# The classifying chain map


def _classifying_cell(u: GCocycle, seq, vertex):
    """Cell of the classifying complex labelled by the transitions of u at
    a vertex of the overlap of the cover sets in seq."""
    if len(seq) == 1:
        return (seq, u.object_at(seq[0], vertex))
    return (seq, tuple(u.transition(a, b, vertex) for a, b in zip(seq, seq[1:])))


def classifying_chain_map(u: GCocycle, N: int, D: int) -> ChainMap:
    """Chain map from the blowup into the normalized classifying chains.

    A generator carried by a vertex of a (p+1)-fold overlap maps to the
    p-cell labeled by the transition chain of its component; generators
    with positive face degree collapse to zero.  Local constancy of the
    transitions is exactly what makes this commute with boundaries.
    """
    if len(u.base.cover) > N + 1:
        raise StructureError("cover does not embed into the stages: need len(cover) <= N + 1")
    target = geometric_chains(bg_complex(u.groupoid, N, D))
    blow = blowup(u.base, max(D, u.base.dimension()))

    def terms(cell):
        seq, face = cell
        return ((_classifying_cell(u, seq, face), 1),) if len(face) == 1 else ()

    return cellular_map(blow, target, terms)


def pullback_is_restriction(u: GCocycle, N: int, D: int):
    """Pulling the canonical transitions back along the classifying rule
    must reproduce u on every component of every multiple overlap."""
    if len(u.base.cover) > N + 1:
        raise StructureError("cover does not embed into the stages: need len(cover) <= N + 1")
    violations = []
    for seq, faces in _cover_nerve(u.base, D):
        for comp in _components(faces):
            face = comp[:1]
            # the transitions of the classifying cell, vertex i at seq[i]
            table = _transition_table(u.groupoid, len(seq) - 1,
                                      _classifying_cell(u, seq, face)[1])
            violations += [
                Violation("pullback-restriction", (seq, comp, seq[i], seq[j]),
                          f"gamma {table[(i, j)]} vs {expected}")
                for (i, j), expected in _cover_table(u, seq, face).items()
                if table[(i, j)] != expected
            ]
    return violations


# ---------------------------------------------------------------------------
# JSON


def covered_complex_to_json(cc: CoveredComplex) -> dict:
    return {
        "vertices": [encode_id(v) for v in cc.vertices],
        "faces": sorted([list(f) for f in cc.faces]),
        "cover": [sorted([list(f) for f in part]) for part in cc.cover],
    }


def covered_complex_from_json(doc: dict) -> CoveredComplex:
    try:
        faces = [tuple(decode_id(f)) for f in doc["faces"]]
        cover = [[tuple(decode_id(f)) for f in part] for part in doc["cover"]]
        vertices = sorted(decode_id(v) for v in doc["vertices"])
        # sorting vertices, a face or a cover set that mixes types raises TypeError
        cc = CoveredComplex(faces, cover)
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed covered complex document: {exc}")
    if vertices != list(cc.vertices):
        raise StructureError("vertices do not match the vertices of the faces")
    return cc


def cocycle_to_json(u: GCocycle) -> dict:
    doc = covered_complex_to_json(u.base)
    doc["groupoid"] = groupoid_to_json(u.groupoid)
    doc["objects"] = [
        {"a": alpha, "component": list(comp), "object": encode_id(obj)}
        for (alpha, comp), obj in sort_ids(u.objects.items(), key=itemgetter(0))
    ]
    doc["transitions"] = [
        {
            "a": alpha,
            "b": beta,
            "component": list(comp),
            "morphism": encode_id(m),
        }
        for (alpha, beta, comp), m in sort_ids(u.transitions.items(), key=itemgetter(0))
    ]
    return doc


def cocycle_from_json(doc: dict) -> GCocycle:
    base = covered_complex_from_json(doc)
    try:
        groupoid = groupoid_from_json(doc["groupoid"])
        objects = {
            (entry["a"], tuple(decode_id(entry["component"]))): decode_id(entry["object"])
            for entry in doc["objects"]
        }
        transitions = {
            (entry["a"], entry["b"], tuple(decode_id(entry["component"]))): decode_id(
                entry["morphism"]
            )
            for entry in doc["transitions"]
        }
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed cocycle document: {exc}")
    return GCocycle(base, groupoid, objects, transitions)
