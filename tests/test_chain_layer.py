"""The chain layer reads position tables.

Every boundary and chain map built from face, degeneracy and map tables
must equal the rule-built one of ``tests/oracles.py``, which names each
term by its cell and hashes it back into a row; nerves and fiber legs,
which compose their tables, must equal the per-cell oracle's table for
table.  Every fully computed truncated complex satisfies the
Euler-characteristic identity, and the tom Dieck path never falls back to
a cell-keyed lookup.
"""

import pytest

import fatcat.comparison as comparison
import fatcat.homology as homology_module
import fatcat.simpset as simpset
from fatcat.cocycle import base_chain_complex
from fatcat.comparison import (
    _nondegenerate_factorization,
    flag_chain_complex,
    projection_map,
    projection_pi,
    quillen_fiber,
    simplex_chain_complex,
    tau_chain_map,
)
from fatcat.fincat import ordinal, unravel
from fatcat.fixtures import (
    circle_star_cover,
    cyclic_groupoid,
    hemisphere_cover,
    random_two_complex,
    standard_categories,
    vertex_star_cover,
    z2_groupoid,
)
from fatcat.homology import deletion_complex, fat_chains, geometric_chains, homology, induced_map
from fatcat.simpset import (
    _compose,
    nerve,
    product_with_S,
    s_semisimplicial,
    unravel_simplicial,
)

from oracles import (
    oracle_deletion_complex,
    oracle_fat_chains,
    oracle_geometric_chains,
    oracle_fiber_legs,
    oracle_induced_map,
    oracle_nerve,
    oracle_projection_map,
    oracle_quillen_fiber,
    oracle_simplicial_map,
    oracle_tau_chain_map,
    unravel_nerve_isomorphism,
)
from test_comparison import random_poset, s3_action_groupoid

CATEGORIES = dict(standard_categories())
CATEGORIES["z3"] = cyclic_groupoid(3).base
CATEGORIES["s3-on-3"] = s3_action_groupoid().base
for _seed in range(3):
    CATEGORIES[f"poset-seed-{_seed}"] = random_poset(_seed, 4)

# the action groupoid has 648 nerve 3-cells; its maps are compared at D = 2
MAP_DEGREE = {"s3-on-3": 2}
# fibers over every core of these, at N = 2, D = 3
FIBER_CATEGORIES = ["ordinal-1", "ordinal-2", "z2", "idempotent-monoid", "poset-seed-0"]


def simplicial_objects(c):
    """The nerve of c at D = 3, its stage product and its unraveling."""
    ner = nerve(c, 3)
    return {
        "nerve": ner,
        "product": product_with_S(ner, s_semisimplicial(4, 3)),
        "unraveled": unravel_simplicial(ner, 2),
    }


def core_cells(c, D=3):
    """The first (k, cell) of the nerve of c with each nondegenerate core."""
    ner = nerve(c, D)
    seen = set()
    for k in range(D + 1):
        for cell in ner.cells[k]:
            core = _nondegenerate_factorization(c, k, cell)
            if core not in seen:
                seen.add(core)
                yield k, cell


def fibers(c, N=2, D=3):
    """One comma fiber per nondegenerate core of the nerve of c."""
    target = nerve(unravel(c, N), D)
    for k, cell in core_cells(c, D):
        yield quillen_fiber(c, N, D, cell, k, target)


def deletion_bases():
    """Tuple-cell bases whose faces delete an entry: flags and simplices
    of Delta^n, and the underlying complexes of covered complexes."""
    out = {}
    for n in range(4):
        out[f"flags-{n}"] = flag_chain_complex(n).basis
        out[f"simplex-{n}"] = simplex_chain_complex(n).basis
    covers = {
        "circle": circle_star_cover(),
        "hemisphere": hemisphere_cover(),
        "random-two-complex": vertex_star_cover(random_two_complex(seed=7)),
    }
    for name, cc in covers.items():
        out[name] = base_chain_complex(cc, cc.dimension() + 1).basis
    return out


def assert_same_map(got, want):
    assert got.source == want.source
    assert got.target == want.target
    assert got.matrices == want.matrices


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_chains_match_the_rule_built_oracle(name):
    for kind, x in simplicial_objects(CATEGORIES[name]).items():
        assert fat_chains(x) == oracle_fat_chains(x), kind
        if x.has_degeneracies:
            assert geometric_chains(x) == oracle_geometric_chains(x), kind


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_chain_maps_match_the_rule_built_oracle(name):
    c = CATEGORIES[name]
    N, D = 4, MAP_DEGREE.get(name, 3)
    f = projection_map(c, N, D)
    assert_same_map(induced_map(f), oracle_induced_map(f))
    assert_same_map(projection_pi(c, N, D), oracle_induced_map(oracle_projection_map(c, N, D)))
    for stages in (N, N + 1):
        g = projection_map(c, stages, D)
        tau = tau_chain_map(g, induced_map(g), stages)
        assert_same_map(tau, oracle_tau_chain_map(g.target, stages, D))


@pytest.mark.parametrize("name", ["ordinal-1", "z2", "pair"])
def test_unraveled_isomorphism_matches_the_rule_built_oracle(name):
    iso = unravel_nerve_isomorphism(CATEGORIES[name], 2, 2)
    assert_same_map(induced_map(iso), oracle_induced_map(iso))


@pytest.mark.parametrize("name", FIBER_CATEGORIES)
def test_fiber_chains_match_the_rule_built_oracle(name):
    for fib in fibers(CATEGORIES[name]):
        x = fib.fiber
        assert fat_chains(x) == oracle_fat_chains(x)
        assert geometric_chains(x) == oracle_geometric_chains(x)
        assert_same_map(induced_map(fib.to_simplex), oracle_induced_map(fib.to_simplex))
    # the unraveled leg of the last fiber: its target is the large nerve
    assert_same_map(induced_map(fib.to_unraveled), oracle_induced_map(fib.to_unraveled))


def vertex_pair(k, cell):
    """The oracle's name for a fiber cell: the core vertices and the stages
    along the cell's vertex sequence, a chain of arrows (v, w) of the
    pullback category listing its vertices in order."""
    seq = (cell,) if k == 0 else (cell[0][0],) + tuple(w for _, w in cell)
    return tuple(a for a, _ in seq), tuple(l for _, l in seq)


@pytest.mark.parametrize("name", sorted({*FIBER_CATEGORIES, "poset-seed-1", "poset-seed-2"}))
def test_fiber_is_the_step_chain_oracle_cell_for_cell(name):
    """The vertex sequence is an audited simplicial map from the pullback
    nerve onto the step-chain fiber, bijective in every degree, and both
    legs factor through it."""
    c, N, D = CATEGORIES[name], 2, 3
    target = nerve(unravel(c, N), D)
    for k, cell in core_cells(c, D):
        fib = quillen_fiber(c, N, D, cell, k, target)
        want = oracle_quillen_fiber(c, N, D, cell, k, target, fib.to_simplex.target)
        iso = oracle_simplicial_map(fib.fiber, want.fiber, vertex_pair)
        for j in range(D + 1):
            assert sorted(iso.maps[j]) == list(range(want.fiber.n_cells(j))), (cell, j)
            for leg, oracle_leg in ((fib.to_simplex, want.to_simplex),
                                    (fib.to_unraveled, want.to_unraveled)):
                assert leg.maps[j] == _compose(oracle_leg.maps[j], iso.maps[j]), (cell, j)


@pytest.mark.parametrize("name", sorted(CATEGORIES) + ["unravel-z2-3"])
def test_nerve_tables_match_the_per_cell_oracle(name):
    c = CATEGORIES[name] if name in CATEGORIES else unravel(z2_groupoid().base, 3)
    for D in range(5):
        got, want = nerve(c, D), oracle_nerve(c, D)
        assert got.cells == want.cells, D
        assert got.faces == want.faces, D
        assert got.degeneracies == want.degeneracies, D


@pytest.mark.parametrize("name", sorted({*FIBER_CATEGORIES, "poset-seed-1", "poset-seed-2"}))
def test_fiber_legs_match_the_per_cell_oracle(name):
    c, N, D = CATEGORIES[name], 2, 3
    target = nerve(unravel(c, N), D)
    for k, cell in core_cells(c, D):
        fib = quillen_fiber(c, N, D, cell, k, target)
        legs = (fib.to_simplex, fib.to_unraveled)
        for leg, want in zip(legs, oracle_fiber_legs(c, cell, k, fib)):
            assert leg.maps == want.maps, cell


def test_deletion_complexes_match_the_rule_built_oracle():
    for name, basis in deletion_bases().items():
        assert deletion_complex(basis) == oracle_deletion_complex(basis), name


# --- Euler characteristic: sum (-1)^k rank C_k = sum (-1)^k beta_k, H_D = ker d_D


def assert_euler_identity(cx):
    assert not homology(cx, cx.D).reliable
    cells = sum((-1) ** k * cx.rank(k) for k in range(cx.D + 1))
    betti = sum((-1) ** k * homology(cx, k).betti for k in range(cx.D + 1))
    assert cells == betti


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_euler_characteristic_of_nerves_products_and_unravelings(name):
    for x in simplicial_objects(CATEGORIES[name]).values():
        assert_euler_identity(fat_chains(x))
        if x.has_degeneracies:
            assert_euler_identity(geometric_chains(x))


@pytest.mark.parametrize("name", FIBER_CATEGORIES)
def test_euler_characteristic_of_fibers(name):
    for fib in fibers(CATEGORIES[name]):
        assert_euler_identity(fat_chains(fib.fiber))
        assert_euler_identity(geometric_chains(fib.fiber))


def test_euler_characteristic_of_deletion_complexes():
    for basis in deletion_bases().values():
        assert_euler_identity(deletion_complex(basis))


# --- the tom Dieck path never looks a cell up


def test_tom_dieck_path_reads_only_position_tables(monkeypatch):
    c = z2_groupoid().base
    N, D = 5, 3
    s = s_semisimplicial(N, D)

    def refuse(*args, **kwargs):
        raise AssertionError("cell-keyed lookup on the position-table path")

    monkeypatch.setattr(simpset, "_positions", refuse)
    original = homology_module.cellular_map
    for module in (homology_module, comparison, simpset):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, refuse)
    # the stage complex comes from its per-cell rule, so the projection
    # reuses the one built above; the nerve composes its tables
    monkeypatch.setattr(comparison, "s_semisimplicial", lambda N_, D_: s)
    ner = nerve(c, D)

    prod = product_with_S(ner, s)
    assert [prod.n_cells(k) for k in range(D + 1)] == [
        ner.n_cells(k) * s.n_cells(k) for k in range(D + 1)
    ]
    pi = projection_pi(c, N, D)
    assert pi.source.basis == [tuple(level) for level in prod.cells]
    geo = geometric_chains(ner)
    assert [geo.rank(k) for k in range(D + 1)] == [1, 1, 1, 1]
    proj = projection_map(c, N, D)
    tau = tau_chain_map(proj, induced_map(proj), N)
    assert tau.target.basis == pi.source.basis


def test_guard_sees_a_rule_lookup(monkeypatch):
    """The guard above can fail: a rule-built product goes through the
    lookup it refuses."""

    def refuse(*args, **kwargs):
        raise AssertionError("cell-keyed lookup")

    ner, s = nerve(ordinal(1), 2), s_semisimplicial(3, 2)
    monkeypatch.setattr(simpset, "_positions", refuse)
    with pytest.raises(AssertionError, match="cell-keyed lookup"):
        simpset.simplicial_set(2, ner.cells, lambda k, i, cell: cell)
    with pytest.raises(AssertionError, match="cell-keyed lookup"):
        simpset.nerve_map(ner, ner, lambda v: v, lambda m: m)
    assert product_with_S(ner, s).n_cells(0) == 8
