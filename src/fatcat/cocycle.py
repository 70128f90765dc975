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
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from .errors import StructureError, Violation, check_budget
from .fincat import FinGroupoid, groupoid_from_json, groupoid_to_json
from .homology import (
    IntegerChainComplex,
    QuasiIsoReport,
    cellular_map,
    check_degree_range,
    deletion_complex,
    geometric_chains,
    named_matrix,
    quasi_iso_through,
)
from .ids import decode_id, encode_id, sort_key
from .simpset import (
    chain_composites,
    chain_objects,
    nerve,
    unravel_simplicial,
    unraveled_face,
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
    faces = sorted(faces, key=sort_key)
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
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=sort_key)
    return tuple(comps)


class CoveredComplex:
    """Finite abstract simplicial complex with an ordered subcomplex cover."""

    def __init__(self, faces, cover):
        self.faces = frozenset(tuple(sorted(f)) for f in faces)
        if not self.faces:
            raise StructureError("complex must be nonempty")
        for face in self.faces:
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
        self._overlap_cache = {}
        self._component_cache = {}

    def dimension(self):
        return max(len(f) for f in self.faces) - 1

    def overlap(self, indices):
        key = tuple(sorted(set(indices)))
        if key not in self._overlap_cache:
            faces = set(self.cover[key[0]])
            for i in key[1:]:
                faces &= self.cover[i]
            self._overlap_cache[key] = frozenset(faces)
        return self._overlap_cache[key]

    def components_of_overlap(self, indices):
        key = tuple(sorted(set(indices)))
        if key not in self._component_cache:
            self._component_cache[key] = _components(self.overlap(key))
        return self._component_cache[key]

    def components_of_set(self, alpha):
        return self.components_of_overlap((alpha,))

    def component_containing(self, indices, face):
        """Component key of overlap(indices) whose vertex set contains the face."""
        for comp in self.components_of_overlap(indices):
            if set(face) <= set(comp):
                return comp
        raise StructureError(f"face {face} is not in the overlap of {indices}")

    def __eq__(self, other):
        return (
            isinstance(other, CoveredComplex)
            and self.faces == other.faces
            and self.cover == other.cover
        )

    __hash__ = None


# ---------------------------------------------------------------------------
# Cocycles


class GCocycle:
    """Cover with groupoid-valued transitions per overlap component.

    ``objects[(alpha, comp)]`` assigns an object to each component of each
    cover set; ``transitions[(alpha, beta, comp)]`` is the morphism from
    the alpha-side object to the beta-side object over each component of
    the pairwise overlap, for alpha != beta.
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

    def __eq__(self, other):
        return (
            isinstance(other, GCocycle)
            and self.base == other.base
            and self.groupoid == other.groupoid
            and self.objects == other.objects
            and self.transitions == other.transitions
        )

    __hash__ = None


def check_cocycle(u: GCocycle):
    """Endpoint-coherence is structural; the composition law is reported."""
    base, cat = u.base, u.groupoid.base
    n = len(base.cover)
    expected_objects = {
        (alpha, comp)
        for alpha in range(n)
        for comp in base.components_of_set(alpha)
    }
    if set(u.objects) != expected_objects:
        raise StructureError("object assignment does not match the cover components")
    for key, obj in u.objects.items():
        if obj not in set(cat.objects):
            raise StructureError(f"object at {key} is not in the groupoid")
    expected_transitions = {
        (alpha, beta, comp)
        for alpha in range(n)
        for beta in range(n)
        if alpha != beta
        for comp in base.components_of_overlap((alpha, beta))
    }
    given = {k for k in u.transitions if k[0] != k[1]}
    if given != expected_transitions:
        raise StructureError("transitions do not match the overlap components")
    for (alpha, beta, comp), m in u.transitions.items():
        if m not in cat.src:
            raise StructureError(f"transition at {(alpha, beta, comp)} is not a morphism")
        if alpha == beta:
            continue
        src_obj = u.objects[(alpha, base.component_containing((alpha,), comp))]
        tgt_obj = u.objects[(beta, base.component_containing((beta,), comp))]
        if cat.src[m] != src_obj or cat.tgt[m] != tgt_obj:
            raise StructureError(
                f"transition endpoints at {(alpha, beta, comp)} do not match the objects"
            )

    violations = []
    for (alpha, beta, comp), m in sorted(u.transitions.items(), key=lambda kv: sort_key(kv[0])):
        if alpha == beta and not cat.is_identity(m):
            violations.append(Violation("diagonal-identity", (alpha, comp)))
    for alpha in range(n):
        for beta in range(n):
            for gamma in range(n):
                for comp in base.components_of_overlap((alpha, beta, gamma)):
                    f_ba = u.transition(alpha, beta, comp)
                    f_cb = u.transition(beta, gamma, comp)
                    f_ca = u.transition(alpha, gamma, comp)
                    if cat.table.get((f_ba, f_cb)) != f_ca:
                        violations.append(
                            Violation(
                                "cocycle-law",
                                (alpha, beta, gamma, comp),
                                "f_cb o f_ba != f_ca",
                            )
                        )
    return violations


class CocycleIsomorphism:
    """Componentwise comparison data between two cocycles on one complex.

    ``phi[(alpha, gamma, comp)]`` is the morphism from the source object of
    u over U_alpha to the target object of v over V_gamma, per component of
    the overlap of the two cover sets.
    """

    __slots__ = ("source", "target", "phi")

    def __init__(self, source, target, phi):
        self.source = source
        self.target = target
        self.phi = phi


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
    joint = CoveredComplex(sorted(u.base.faces, key=sort_key), list(u.base.cover) + list(v.base.cover))
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


class ClassifyingComplex:
    """Stagewise unraveled nerve with its stage cover.

    ``space`` unravels ``nerve``, the nerve of the groupoid.  ``cover[j][k]``
    is the set of k-cells whose stage tuple contains j, the combinatorial
    shadow of the j-th coordinate being positive; it is computed on first
    use.
    """

    def __init__(self, groupoid, stages, nerve, space):
        self.groupoid = groupoid
        self.stages = stages
        self.nerve = nerve
        self.space = space

    @cached_property
    def cover(self):
        space = self.space
        return {
            j: tuple(
                frozenset(cell for cell in space.cells[k] if j in cell[0])
                for k in range(space.D + 1)
            )
            for j in range(self.stages + 1)
        }


def bg_complex(g: FinGroupoid, N: int, D: int) -> ClassifyingComplex:
    ner = nerve(g.base, D)
    return ClassifyingComplex(g, N, ner, unravel_simplicial(ner, N))


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


class UniversalCocycle:
    __slots__ = ("classifying", "report")

    def __init__(self, classifying, report):
        self.classifying = classifying
        self.report = report

    @property
    def ok(self):
        return not self.report

    def gamma(self, k, cell):
        """Canonical transitions on a k-cell of the classifying complex,
        keyed by stage pairs."""
        space = self.classifying.space
        if not 0 <= k <= space.D or cell not in space.index[k]:
            raise StructureError(f"not a {k}-cell of the classifying complex: {cell}")
        # the nerve cell's transitions, vertex a at the a-th distinct stage
        seq, z = cell
        values = sorted(set(seq))
        table = _transition_table(self.classifying.groupoid, len(values) - 1, z)
        return {(values[a], values[b]): f for (a, b), f in table.items()}


def _law_failures(cat, m, table):
    """Vertex triples (a, b, c) of a degree-m transition table where the
    transition a -> b followed by b -> c is not a -> c."""
    r = range(m + 1)
    return [
        (a, b, c) for a in r for b in r for c in r
        if cat.table.get((table[(a, b)], table[(b, c)])) != table[(a, c)]
    ]


def _face_failures(table, face, v):
    """Vertex pairs of ``face``, the table of d_v of a cell, whose
    transition differs from the cell's ``table`` between the matching
    vertices: vertex a of the face is vertex a, or a + 1 from v on."""
    return [(a, b) for (a, b), f in face.items() if table[(a + (a >= v), b + (b >= v))] != f]


def universal_cocycle(g: FinGroupoid, N: int, D: int) -> UniversalCocycle:
    """Canonical transitions on every cell of the classifying complex,
    checked for the composition law and face compatibility.

    The transitions of a cell (seq, z) are those of the nerve cell z with
    vertex a relabelled by the a-th distinct stage of seq, an order-
    preserving bijection, so each check is made once per nerve simplex
    on its vertex-indexed table:

    * the composition law on every triple of vertices of z;
    * compatibility with each face d_v z of the audited nerve, through the
      coface that skips vertex v.  A face of (seq, z) deleting a stage
      that shares its value keeps z and the stage set, so it compares a
      table with itself; one deleting a lone stage is d_v z relabelled by
      the stages left, v being that stage's value group.

    The verdicts are then spread over the cells of the classifying complex
    in cell order, with stage-valued witnesses, only if some verdict is
    not empty, so the report is the one a cell-by-cell check would give.

    The face check cannot fire once the nerve is built.  A forward
    transition a -> b is the left fold of the arrows from vertex a to b,
    and a backward one its inverse.  A face's folds are the cell's, except
    where d_v has composed f_v and f_{v+1} first inside a fold X that starts
    before vertex v - 1; there they differ only if (X, f_v, f_{v+1}) does not
    associate.  That triple is a 3-cell, and the nerve's face-face audit
    (d_1 d_2 = d_1 d_1) refuses the groupoid at D >= 3; below that no cell
    has such a face.  The check stays, as a check on the tables: a test
    shows it names the mismatched vertex pair of hand-built ones.
    """
    bg = bg_complex(g, N, D)
    ner, space, cat = bg.nerve, bg.space, g.base
    tables = [[_transition_table(g, m, z) for z in ner.cells[m]] for m in range(D + 1)]
    law = [[_law_failures(cat, m, t) for t in level] for m, level in enumerate(tables)]
    # compat[m][p][v]: the failures of the p-th m-cell against its face d_v
    compat = [[]] + [
        [
            [_face_failures(t, tables[m - 1][ner.faces[m][v][p]], v) for v in range(m + 1)]
            for p, t in enumerate(tables[m])
        ]
        for m in range(1, D + 1)
    ]
    report = []
    if any(any(level) for level in law):
        for k in range(D + 1):
            for cell in space.cells[k]:
                seq, z = cell
                values = sorted(set(seq))
                m = len(values) - 1
                for a, b, c in law[m][ner.index[m][z]]:
                    witness = (k, cell, values[a], values[b], values[c])
                    report.append(Violation("universal-cocycle-law", witness))
    if any(any(map(any, level)) for level in compat):
        for k in range(1, D + 1):
            for cell in space.cells[k]:
                seq, z = cell
                m = len(set(seq)) - 1
                for i in range(k + 1):
                    v = unraveled_face(seq, i)
                    if v is None:
                        continue
                    values = sorted(set(seq[:i] + seq[i + 1:]))
                    for a, b in compat[m][ner.index[m][z]][v]:
                        witness = (k, i, cell, (values[a], values[b]))
                        report.append(Violation("universal-face-compat", witness))
    return UniversalCocycle(bg, report)


# ---------------------------------------------------------------------------
# Partition-of-unity homotopy


class PartitionPoint(namedtuple("PartitionPoint", "coords")):
    """Finitely supported exact partition values t_0, ..., t_N."""

    __slots__ = ()

    def __new__(cls, coords):
        total = Fraction(0)
        for t in coords:
            if not isinstance(t, Fraction):
                raise StructureError("partition values must be exact rationals")
            if t < 0:
                raise StructureError("partition values must be nonnegative")
            total += t
        if total != 1:
            raise StructureError("partition values must sum to 1 exactly")
        return super().__new__(cls, coords)


def partition_homotopy(t, s):
    """Deformation from raw coordinates to a locally finite partition.

    w_i = max(0, t_i - s * sum_{j<i} t_j) and v = w normalized; at s = 0
    this returns t itself, and at s = 1 entry i dies as soon as the mass
    before it reaches t_i.
    """
    coords = t.coords if isinstance(t, PartitionPoint) else tuple(t)
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise StructureError("s must lie in [0, 1]")
    w = []
    before = Fraction(0)
    for ti in coords:
        wi = ti - s * before
        w.append(wi if wi > 0 else Fraction(0))
        before += ti
    total = sum(w)
    assert total > 0, "a valid partition point always keeps positive mass"
    v = tuple(wi / total for wi in w)
    return tuple(w), v


def partition_grid(denominator=4, length=5):
    """Deterministic grid of partition points: all length-part compositions
    of the denominator, scaled; vertices are included."""
    points = []

    def compose_rest(remaining, parts, acc):
        if parts == 1:
            points.append(tuple(acc + [Fraction(remaining, denominator)]))
            return
        for take in range(remaining + 1):
            compose_rest(remaining - take, parts - 1, acc + [Fraction(take, denominator)])

    compose_rest(denominator, length, [])
    return points


def check_partition_grid(points=None, svals=None):
    """Exact partition identities over a parameter grid.

    Checks that v sums to one, that s = 0 returns the input, and that at
    s = 1 an entry dies exactly when the mass before it reaches it.
    """
    if points is None:
        points = partition_grid()
    if svals is None:
        svals = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    violations = []
    pairs = 0
    for t in points:
        for s in svals:
            pairs += 1
            _, v = partition_homotopy(t, s)
            if sum(v) != 1:
                violations.append(Violation("partition-sum", (t, s)))
            if s == 0 and v != tuple(t):
                violations.append(Violation("partition-start", (t,)))
            if s == 1:
                before = Fraction(0)
                for i, ti in enumerate(t):
                    if before >= ti and v[i] != 0:
                        violations.append(Violation("partition-truncation", (t, i)))
                    before += ti
    return pairs, violations


# ---------------------------------------------------------------------------
# Blowup of a covered complex


class BlowupComplex:
    """Total complex of the cover-versus-chains double complex.

    A generator in bidegree (p, q) is a strictly increasing (p+1)-tuple of
    cover indices with nonempty overlap, together with a q-face of that
    overlap.  The total differential is the index-deleting sum plus the
    signed face sum.
    """

    __slots__ = ("base", "total", "projection")

    def __init__(self, base, total, projection):
        self.base = base
        self.total = total
        self.projection = projection


def base_chain_complex(cc: CoveredComplex, D=None) -> IntegerChainComplex:
    """Ordered simplicial chains of the underlying complex, padded to D."""
    D = cc.dimension() if D is None else D
    return deletion_complex(
        [sorted((f for f in cc.faces if len(f) == k + 1), key=sort_key) for k in range(D + 1)]
    )


def _blowup_boundary(k, cell):
    """Index-deleting sum plus the signed face sum of one generator."""
    idx, face = cell
    p = len(idx) - 1
    if p:
        for r in range(p + 1):
            yield (idx[:r] + idx[r + 1:], face), -1 if r % 2 else 1
    if len(face) > 1:
        for r in range(len(face)):
            yield (idx, face[:r] + face[r + 1:]), -1 if (p + r) % 2 else 1


def _collapse(k, cell):
    idx, face = cell
    return ((face, 1),) if len(idx) == 1 else ()


def blowup(base: CoveredComplex, D=None) -> BlowupComplex:
    """Build the blowup and its collapse onto the underlying complex."""
    n = len(base.cover)
    tuples = []
    for p in range(n):
        for idx in combinations(range(n), p + 1):
            if base.overlap(idx):
                tuples.append(idx)
    bigraded = {}
    for idx in tuples:
        p = len(idx) - 1
        for face in sorted(base.overlap(idx), key=sort_key):
            q = len(face) - 1
            bigraded.setdefault((p, q), []).append((idx, face))
    if not bigraded:
        raise StructureError("empty blowup")
    natural = max(p + q for p, q in bigraded)
    D = natural if D is None else D
    basis = []
    for total_deg in range(D + 1):
        level = []
        for (p, q), gens in sorted(bigraded.items()):
            if p + q == total_deg:
                level.extend(gens)
        level.sort(key=sort_key)
        basis.append(level)
    check_budget(sum(len(b) for b in basis), "blowup total complex")
    boundary = {
        k: named_matrix(basis[k], basis[k - 1], partial(_blowup_boundary, k))
        for k in range(1, D + 1)
    }
    total = IntegerChainComplex(D, basis, boundary)
    projection = cellular_map(total, base_chain_complex(base, D), _collapse)
    return BlowupComplex(base, total, projection)


def blowup_vs_base(base: CoveredComplex, d: int) -> QuasiIsoReport:
    """The collapse must be a homology isomorphism in degrees <= d."""
    D = max(d + 1, base.dimension())
    check_degree_range(d, D)
    blow = blowup(base, D=D)
    return quasi_iso_through(blow.projection, d)


# ---------------------------------------------------------------------------
# The classifying chain map


class ClassifyingMap:
    __slots__ = ("cocycle", "classifying", "chain_map")

    def __init__(self, cocycle, classifying, chain_map):
        self.cocycle = cocycle
        self.classifying = classifying
        self.chain_map = chain_map


def _classifying_cell(u: GCocycle, seq, vertex):
    """Cell of the classifying complex labelled by the transitions of u at
    a vertex of the overlap of the cover sets in seq."""
    if len(seq) == 1:
        return (seq, u.object_at(seq[0], vertex))
    return (seq, tuple(u.transition(a, b, vertex) for a, b in zip(seq, seq[1:])))


def classifying_chain_map(u: GCocycle, N: int, D: int) -> ClassifyingMap:
    """Chain map from the blowup into the normalized classifying chains.

    A generator carried by a vertex of a (p+1)-fold overlap maps to the
    p-cell labeled by the transition chain of its component; generators
    with positive face degree collapse to zero.  Local constancy of the
    transitions is exactly what makes this commute with boundaries.
    """
    if len(u.base.cover) > N + 1:
        raise StructureError("cover does not embed into the stages: need len(cover) <= N + 1")
    bg = bg_complex(u.groupoid, N, D)
    target = geometric_chains(bg.space)
    blow = blowup(u.base, D=max(D, u.base.dimension()))

    def terms(k, cell):
        seq, face = cell
        return ((_classifying_cell(u, seq, face), 1),) if len(face) == 1 else ()

    chain_map = cellular_map(blow.total, target, terms)
    return ClassifyingMap(u, bg, chain_map)


def pullback_is_restriction(u: GCocycle, N: int, D: int):
    """Pulling the canonical transitions back along the classifying rule
    must reproduce u on every component of every multiple overlap."""
    if len(u.base.cover) > N + 1:
        raise StructureError("cover does not embed into the stages: need len(cover) <= N + 1")
    g = u.groupoid
    violations = []
    n = len(u.base.cover)
    for p in range(min(n, D + 1)):
        for seq in combinations(range(n), p + 1):
            if not u.base.overlap(seq):
                continue
            for comp in u.base.components_of_overlap(seq):
                face = comp[:1]
                # the transitions of the classifying cell, vertex i at seq[i]
                table = _transition_table(g, p, _classifying_cell(u, seq, face)[1])
                for i, a in enumerate(seq):
                    for j, b in enumerate(seq):
                        expected = u.transition(a, b, face)
                        if table[(i, j)] != expected:
                            violations.append(
                                Violation(
                                    "pullback-restriction",
                                    (seq, comp, a, b),
                                    f"gamma {table[(i, j)]} vs {expected}",
                                )
                            )
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
        for (alpha, comp), obj in sorted(u.objects.items(), key=lambda kv: sort_key(kv[0]))
    ]
    doc["transitions"] = [
        {
            "a": alpha,
            "b": beta,
            "component": list(comp),
            "morphism": encode_id(m),
        }
        for (alpha, beta, comp), m in sorted(
            u.transitions.items(), key=lambda kv: sort_key(kv[0])
        )
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
