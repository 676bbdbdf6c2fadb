import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fintop import finite_space as F
from fintop import homology as H
from fintop import linalg as L
from fintop import metric as M
from fintop import simplicial as S
from fintop import tower as T

import oracles
from oracles import induced_map_rank_three_ranks


def hollow_triangle():
    return S.SimplicialComplex([(0, 1), (1, 2), (0, 2)])


def sphere_2():
    return S.SimplicialComplex(
        [f for f in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]])


# minimal 6-vertex triangulation of RP^2
RP2_TRIANGLES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4)]


def projective_plane():
    return S.SimplicialComplex(RP2_TRIANGLES)


def suspension(cx):
    """The join of cx, on the vertices 0..n-1, with the vertices n, n + 1."""
    n = len(cx.simplices(0))
    return S.SimplicialComplex([s + (pole,) for s in cx.all_simplices()
                                for pole in (n, n + 1)])


def uncollapsed_homology(cx, k_max, field_spec):
    """(Betti numbers, torsion) from the ranks of the boundaries of cx
    itself, neither collapsed nor cleared: the oracle for betti_numbers."""
    boundaries = [cx.boundary_sparse(d) for d in range(1, k_max + 2)]
    torsion = None
    if field_spec == "z":
        invariants = [L.smith_normal_form(b) for b in boundaries]
        ranks = [len(inv) for inv in invariants]
        torsion = [[v for v in inv if v > 1] for inv in invariants]
    elif field_spec == "q":
        ranks = [L.rank_q(b) for b in boundaries]
    else:
        ranks = [L.rank_gfp(b, int(field_spec[2:])) for b in boundaries]
    ranks = [0] + ranks
    betti = [len(cx.simplices(d)) - ranks[d] - ranks[d + 1]
             for d in range(k_max + 1)]
    return betti, torsion


def test_betti_circle_and_sphere():
    r = H.betti_numbers(hollow_triangle(), k_max=1)
    assert r.betti == [1, 1]
    r2 = H.betti_numbers(sphere_2(), k_max=2)
    assert r2.betti == [1, 0, 1]


def test_betti_disjoint_pieces():
    cx = S.SimplicialComplex([(0, 1), (2, 3), (4,)])
    assert H.betti_numbers(cx, k_max=1).betti == [3, 0]


def test_betti_rp2_field_dependence():
    cx = projective_plane()
    assert H.betti_numbers(cx, k_max=2, field_spec="q").betti == [1, 0, 0]
    assert H.betti_numbers(cx, k_max=2, field_spec="p:2").betti == [1, 1, 1]
    rz = H.betti_numbers(cx, k_max=2, field_spec="z")
    assert rz.betti == [1, 0, 0]
    assert rz.torsion == [[], [2], []]
    # the suspension moves the torsion up one degree
    rz = H.betti_numbers(suspension(cx), 3, "z")
    assert (rz.betti, rz.torsion) == ([1, 0, 0, 0], [[], [], [2], []])


def test_betti_rp2_subdivision_torsion():
    # every entry of d2 is +-1; the invariant 2 appears only in reduction
    cx = F.face_poset(projective_plane()).order_complex()
    rz = H.betti_numbers(cx, 2, "z")
    assert (rz.betti, rz.torsion) == uncollapsed_homology(cx, 2, "z") \
        == ([1, 0, 0], [[], [2], []])


def test_integer_homology_uses_no_dense_boundary(monkeypatch):
    def dense(self, dim):
        raise AssertionError("dense boundary matrix on the integer path")
    monkeypatch.setattr(S.SimplicialComplex, "boundary_matrix", dense)
    rz = H.betti_numbers(projective_plane(), 2, "z")
    assert rz.betti == [1, 0, 0]
    assert rz.torsion == [[], [2], []]


def test_betti_collapse_agrees():
    s3 = M.circle_sample(3)
    cx = S.vietoris_rips(s3.pairwise(), 4 * s3.epsilon, max_dim=2)
    betti, _ = uncollapsed_homology(cx, 1, "q")
    assert H.betti_numbers(cx, k_max=1).betti == betti == [1, 1]


@st.composite
def lattice_points(draw):
    """3-25 distinct integer-lattice points in dimension 1-3, the side of
    their box and an integer threshold, which some distances equal."""
    dim = draw(st.integers(1, 3))
    # a small box keeps the points close; the largest cliques stay below
    # ten vertices
    side, top = {1: (12, 3), 2: (5, 3), 3: (3, 2)}[dim]
    threshold = draw(st.integers(2, top))
    size = draw(st.integers(3, min(25, side ** dim)))
    points = draw(st.lists(st.tuples(*[st.integers(0, side - 1)] * dim),
                           min_size=size, max_size=size, unique=True))
    return points, side, threshold


def rips_of(points, threshold):
    sample = M.MetricSample(M.euclidean(len(points[0])), points, epsilon=1.0)
    return S.vietoris_rips(sample.pairwise(), threshold, max_dim=4)


def lattice_rips():
    """A Vietoris-Rips complex of lattice points at a tied threshold."""
    return lattice_points().map(lambda case: rips_of(case[0], case[2]))


# triangles and tetrahedra on at most 7 vertices
FACE_COMPLEXES = st.lists(st.sets(st.integers(0, 6), min_size=3, max_size=4),
                          min_size=1, max_size=10).map(S.SimplicialComplex)


@settings(max_examples=60, deadline=None)
@given(st.one_of(FACE_COMPLEXES, lattice_rips()),
       st.sampled_from(["q", "p:2", "p:3", "z"]))
@example(projective_plane(), "z")
@example(projective_plane(), "p:2")
@example(F.face_poset(projective_plane()).order_complex(), "z")
@example(suspension(projective_plane()), "z")
def test_betti_numbers_equal_boundary_ranks(cx, field_spec):
    # cleared coboundary ranks against the boundary ranks of cx itself
    r = H.betti_numbers(cx, 3, field_spec)
    assert (r.betti, r.torsion) == uncollapsed_homology(cx, 3, field_spec)


def test_betti_numbers_collapse_nothing(monkeypatch):
    def collapse(cx):
        raise AssertionError("elementary_collapse on the Betti path")
    monkeypatch.setattr(S, "elementary_collapse", collapse)
    monkeypatch.setattr(H, "elementary_collapse", collapse)
    for field_spec in ("q", "p:2", "z"):
        assert H.betti_numbers(projective_plane(), 2, field_spec).betti[0] == 1


@pytest.mark.parametrize("p", [None, 2])
@pytest.mark.parametrize("make", [
    projective_plane, lambda: suspension(projective_plane()),
    lambda: F.face_poset(projective_plane()).order_complex()],
    ids=["rp2", "suspension", "order_complex"])
def test_cleared_pairs_are_the_uncleared_pairs(make, p):
    # each complex has one non-unit low over Z, whose column the reduction
    # over Z keeps; it reduces to zero, so the pairs are still those of
    # every column, and mod p, where every low clears, they are too
    cx = make()
    up, down, cleared, torsion = H._pairs(cx, cx.dimension, p)
    for d in range(cx.dimension + 1):
        n, m = len(cx.simplices(d)), len(cx.simplices(d + 1))
        pairs = L.pivot_pairs(oracles.coboundary_sparse(cx, d), p)
        assert set(np.flatnonzero(up[d])) == {n - 1 - j for j in pairs}
        assert set(np.flatnonzero(down[d + 1])) == \
            {m - 1 - i for i in pairs.values()}
    kept_lows = sum(int(np.count_nonzero(down[d] & ~cleared[d]))
                    for d in range(len(down)))
    assert kept_lows == (1 if p is None else 0)
    assert [t for t in torsion if t] == ([[2]] if p is None else [])


# vertices stored out of id order: the elder rule pairs by places
OUT_OF_ORDER = S.SimplicialComplex([(5, 6), (3, 4, 6), (0, 1, 3), (1, 2), (2, 5)])


@settings(max_examples=80, deadline=None)
@given(st.one_of(FACE_COMPLEXES, lattice_rips()), st.sampled_from([None, 2, 3]))
@example(OUT_OF_ORDER, None)
@example(projective_plane(), None)
@example(suspension(projective_plane()), None)
@example(F.face_poset(projective_plane()).order_complex(), None)
def test_pairs_are_those_of_every_kept_coboundary_column(cx, p):
    # the elder rule, the apparent pairs and the pivots built on demand
    # give the record of reducing every kept column of delta_0, delta_1,
    # ... in order; the three examples over Z have one non-unit pivot each.
    # A fresh copy, as an example's complex keeps the records of earlier runs
    fresh = S.SimplicialComplex._closed([list(cx.simplices(d))
                                         for d in range(cx.dimension + 1)])
    record = H._pairs(fresh, cx.dimension, p)
    want = oracles.cleared_pairs(cx, cx.dimension, p)
    for got, ref in zip(record[:3], want[:3]):
        assert [m.tolist() for m in got] == [m.tolist() for m in ref]
    assert record[3] == want[3]
    for d in range(cx.dimension + 1):
        n, cofaces = len(cx.simplices(d)), H._cofaces(cx, d)
        assert [H._coboundary_column(cofaces, n - 1 - j) for j in range(n)] \
            == oracles.coboundary_sparse(cx, d)


def test_negative_degrees_and_unmapped_vertices_are_refused():
    tri = S.SimplicialComplex([(0, 1, 2)])
    ident, no_2 = {0: 0, 1: 1, 2: 2}, {0: 0, 1: 1}
    calls = {"degree -1 is negative": [
        lambda: H.induced_rank(tri, tri, ident, -1),
        lambda: H.induced_matrix(tri, tri, ident, -1),
        lambda: H.chain_map(tri, tri, ident, -1),
        lambda: H.betti_numbers(tri, -1)],
        "vertex 2 of the source has no image under the vertex map": [
        lambda: H.induced_rank(tri, tri, no_2, 1),
        lambda: H.induced_matrix(tri, tri, no_2, 1),
        lambda: H.chain_map(tri, tri, no_2, 0, [0])]}
    for message, refused in calls.items():
        for call in refused:
            with pytest.raises(H.HomologyError, match=f"^{message}$"):
                call()


def test_integer_clearing_skips_non_unit_lows(monkeypatch):
    # RP^2's one non-unit pivot over Z is in delta_1, at the triangle
    # (1, 3, 4); a tetrahedron on that triangle gives it a nonzero column
    # in delta_2, which the reduction over Z keeps: it is built or seeded,
    # as is every kept column with a coface, and no cleared column is
    cx = S.SimplicialComplex(RP2_TRIANGLES + [(1, 3, 4, 6)])
    built, seeded = [], []
    column, smith = H._coboundary_column, L.smith_pivots

    def spy_column(cofaces, s):
        built.append((len(cofaces[0]) - 1, s))   # (n_d, d-simplex)
        return column(cofaces, s)

    def spy_smith(cols, table):
        seeded.append(set(table.seeds.values()))    # one set per degree
        return smith(cols, table)

    monkeypatch.setattr(H, "_coboundary_column", spy_column)
    monkeypatch.setattr(L, "smith_pivots", spy_smith)
    assert H.betti_numbers(cx, 2, "z").torsion == [[], [2], []]
    _, down, cleared, _ = H._pairs(cx, 2, None)
    triangles = cx.simplices(2)
    non_unit = triangles.index((1, 3, 4))
    assert np.flatnonzero(down[2] & ~cleared[2]).tolist() == [non_unit]
    n_2 = len(triangles)
    reduced = {s for n, s in built if n == n_2} | seeded[1]
    with_coface = {triangles.index(t) for t in itertools.combinations(
        (1, 3, 4, 6), 3)}
    assert non_unit in reduced
    assert reduced == {s for s in with_coface if not cleared[2][s]}
    for d, n in ((1, len(cx.simplices(1))), (2, n_2)):
        assert not any(cleared[d][s] for m, s in built if m == n)


def test_betti_cap():
    with pytest.raises(H.HomologyError):
        H.betti_numbers(sphere_2(), k_max=2, max_simplices=5)


def test_betti_of_face_poset_matches_complex():
    sp = F.face_poset(hollow_triangle())
    r = H.betti_numbers(sp.order_complex(max_chain=3), k_max=1)  # k_max + 2
    # order complex of the face poset = barycentric subdivision: same homology
    assert r.betti == [1, 1]


def test_chain_map_identity_and_signs():
    cx = hollow_triangle()
    ident = H.chain_map(cx, cx, {0: 0, 1: 1, 2: 2}, 1)
    assert ident == [{j: 1} for j in range(3)]
    # swapping two vertices flips edge orientation where needed
    swap = H.chain_map(cx, cx, {0: 1, 1: 0, 2: 2}, 1)
    # edge (0,1) -> (1,0): same simplex, sign -1
    assert swap[cx.index((0, 1))] == {cx.index((0, 1)): -1}


def test_chain_map_degenerate_to_zero():
    cx = hollow_triangle()
    collapse_map = {0: 0, 1: 0, 2: 2}
    cm = H.chain_map(cx, cx, collapse_map, 1)
    assert cm[cx.index((0, 1))] == {}


def test_chain_map_missing_target_simplex():
    src = S.SimplicialComplex([(0, 1)])
    dst = S.SimplicialComplex([(0,), (1,)])
    with pytest.raises(H.HomologyError):
        H.chain_map(src, dst, {0: 0, 1: 1}, 1)


def test_chain_maps_commute_with_boundary():
    src = S.SimplicialComplex([(0, 1, 2)])
    dst = S.SimplicialComplex([(0, 1, 2, 3)])
    vm = {0: 2, 1: 0, 2: 3}
    cm = [H.chain_map(src, dst, vm, d) for d in range(3)]

    def densify(cols, rows):
        m = np.zeros((rows, len(cols)), dtype=int)
        for j, c in enumerate(cols):
            for r, v in c.items():
                m[r, j] = v
        return m

    for d in (1, 2):
        f_d = densify(cm[d], len(dst.simplices(d)))
        f_d1 = densify(cm[d - 1], len(dst.simplices(d - 1)))
        assert np.array_equal(dst.boundary_matrix(d) @ f_d,
                              f_d1 @ src.boundary_matrix(d))


def test_compose_sparse_matches_composition_of_vertex_maps():
    cx = hollow_triangle()
    f = {0: 1, 1: 2, 2: 0}
    g = {0: 2, 1: 0, 2: 1}
    gf = {v: g[f[v]] for v in f}
    for d in (0, 1):
        assert H.compose_sparse(H.chain_map(cx, cx, g, d),
                                H.chain_map(cx, cx, f, d)) == \
            H.chain_map(cx, cx, gf, d)


def test_induced_rank_degree_one():
    cx = hollow_triangle()
    rot = {0: 1, 1: 2, 2: 0}
    assert H.induced_rank(cx, cx, rot, k=1) == 1
    const = {0: 0, 1: 0, 2: 0}
    assert H.induced_rank(cx, cx, const, k=1) == 0
    assert H.induced_rank(cx, cx, const, k=0) == 1


def test_induced_rank_refuses_a_map_not_simplicial_above_k():
    # H_0 of the edge's inclusion into its two vertices: the full block
    # gives 2, the cleared one 1, and neither is a rank of a chain map
    edge, ends = S.SimplicialComplex([(0, 1)]), S.SimplicialComplex([(0,), (1,)])
    with pytest.raises(H.HomologyError, match="not simplicial in dimension 1"):
        H.induced_rank(edge, ends, {0: 0, 1: 1}, 0)


def test_a_map_not_simplicial_names_its_first_simplex():
    # the images of the edges (10, 20) and (0, 20) are both missing from
    # the target; the error names the first in the order of the source
    src = S.SimplicialComplex([(10, 20), (0, 20), (0, 10)])
    dst = S.SimplicialComplex([(5, 6), (7,)])
    with pytest.raises(H.HomologyError, match=re.escape(
            "image simplex (6, 7) of the 1-simplex (10, 20) missing")):
        H.induced_rank(src, dst, {0: 5, 10: 6, 20: 7}, 0)


@pytest.mark.parametrize("image", [-1, 0.5, "1", None])
def test_an_image_that_is_no_vertex_id_is_refused(image):
    # a row would read -1 as padding and the int64 table would truncate
    # 0.5 to 0: both made the edge's map look simplicial onto the vertex
    edge, point = S.SimplicialComplex([(0, 1)]), S.SimplicialComplex([(0,)])
    vertex_map = {0: 0, 1: image}
    message = (f"^vertex 1 maps to {re.escape(repr(image))}, which is not "
               f"a vertex id$")
    for call in (lambda: H.induced_rank(edge, point, vertex_map, 0),
                 lambda: H.chain_map(edge, point, vertex_map, 1),
                 lambda: H.chain_map(edge, point, vertex_map, 0, [0])):
        with pytest.raises(H.HomologyError, match=message):
            call()


@pytest.mark.parametrize("field", ["q", "p:2"])
def test_induced_rank_refuses_a_maximal_k_simplex_mapped_outside(field):
    # simplicial on every (k+1)-simplex, but the maximal k-simplex (2, 3),
    # or the isolated vertex 4 for k = 0, maps outside the target: no
    # (k+1)-simplex has it as a face, so the chain map's own check finds it
    src = S.SimplicialComplex([(0, 1, 2), (2, 3), (4,)])
    cases = [(1, [(0, 1, 2), (3,), (4,)], {v: v for v in range(5)}, r"\(2, 3\)"),
             (0, [(0, 1, 2), (2, 3)], {0: 0, 1: 1, 2: 2, 3: 3, 4: 5}, r"\(5,\)")]
    for k, target, vertex_map, image in cases:
        with pytest.raises(H.HomologyError,
                           match=f"^image simplex {image} missing from the "
                                 f"target complex$"):
            H.induced_rank(src, S.SimplicialComplex(target), vertex_map, k,
                           field)


def moved_lattice(points, threshold, moves, extra=()):
    """The Rips complex X of lattice points, the vertex map that moves
    coordinate i of each point x_i to moves[i][x_i], and the Rips complex Y
    at the same threshold of the images and the extra points.

    When every step of every moves[i] is -1, 0 or 1, no distance grows, so
    a clique of X maps to a clique of Y and the vertex map is simplicial in
    every dimension."""
    images = [tuple(move[x] for move, x in zip(moves, pt)) for pt in points]
    targets = list(dict.fromkeys(images + list(extra)))
    position = {pt: i for i, pt in enumerate(targets)}
    return (rips_of(points, threshold), rips_of(targets, threshold),
            {i: position[pt] for i, pt in enumerate(images)})


@st.composite
def lattice_maps(draw):
    """`moved_lattice` of drawn lattice points, steps and up to three extra
    points.  A coordinate keeps its steps 1 about half the time, so that
    holes often survive the map."""
    points, side, threshold = draw(lattice_points())
    steps = st.lists(st.sampled_from([1, 0, -1]), min_size=side - 1,
                     max_size=side - 1)
    moves = [np.cumsum([0] + draw(st.one_of(st.just([1] * (side - 1)), steps)))
             .tolist() for _ in points[0]]
    extra = draw(st.lists(st.tuples(*[st.integers(-side, side)] * len(moves)),
                          max_size=3))
    return moved_lattice(points, threshold, moves, extra)


# the lattice square of side 5 and the cube of side 3 without their
# centres, at threshold 2, which the diagonals of the holes tie: H_1 and
# H_2 of rank 1
PUNCTURED_SQUARE = [pt for pt in itertools.product(range(5), repeat=2)
                    if pt != (2, 2)]
PUNCTURED_CUBE = [pt for pt in itertools.product(range(3), repeat=3)
                  if pt != (1, 1, 1)]


@settings(max_examples=100, deadline=None)
@given(lattice_maps(), st.sampled_from([("q", None), ("p:2", 2), ("p:3", 3)]))
@example(moved_lattice(PUNCTURED_SQUARE, 2, [range(5)] * 2), ("q", None))
@example(moved_lattice(PUNCTURED_SQUARE, 2, [range(5)] * 2, [(2, 2)]), ("p:2", 2))
@example(moved_lattice(PUNCTURED_SQUARE, 2, [[0, 1, 2, 1, 0], range(5)]),
         ("p:3", 3))
@example(moved_lattice(PUNCTURED_CUBE, 2, [range(3)] * 3), ("p:2", 2))
def test_cleared_induced_rank_equals_the_full_block(case, field):
    src, dst, vertex_map = case
    field_spec, p = field
    for k in range(3):
        args = (dst.boundary_sparse(k + 1), H.chain_map(src, dst, vertex_map, k),
                src.boundary_sparse(k), len(dst.simplices(k)))
        assert H.induced_rank(src, dst, vertex_map, k, field_spec) == \
            L.induced_map_rank(*args, p=p) == \
            induced_map_rank_three_ranks(*args, p=p)
        # the k-skeleton of dst holds the image of a (k+1)-simplex of src
        # only when the map squeezes it
        skeleton = S.SimplicialComplex([s for s in dst.all_simplices()
                                        if len(s) <= k + 1])
        if any(len({vertex_map[v] for v in s}) == k + 2
               for s in src.simplices(k + 1)):
            with pytest.raises(H.HomologyError, match="not simplicial"):
                H.induced_rank(src, skeleton, vertex_map, k, field_spec)
        else:
            args = (skeleton.boundary_sparse(k + 1),
                    H.chain_map(src, skeleton, vertex_map, k),
                    src.boundary_sparse(k), len(skeleton.simplices(k)))
            assert H.induced_rank(src, skeleton, vertex_map, k, field_spec) \
                == L.induced_map_rank(*args, p=p)


def circle_bonding():
    """Fresh Rips complexes of circle levels 4 and 3 and the selection
    vertex map of the bonding between them, whose ranks on H_0 and H_1 are
    1 over every field."""
    tw = T.build_tower("circle", 4, k_max=1)
    return tw.term(4).complex, tw.term(3).complex, tw.selection(3, 4)


def test_cached_pairs_give_the_numbers_of_fresh_complexes(monkeypatch):
    fields = ("q", "p:2")
    want_betti = {(i, f): H.betti_numbers(circle_bonding()[i], 1, f).betti
                  for i in (0, 1) for f in fields}
    want_rank = {(k, f): H.induced_rank(*circle_bonding(), k, f)
                 for k in (0, 1) for f in fields}
    assert want_rank == {(k, f): 1 for k in (0, 1) for f in fields}
    # Betti numbers first, then ranks; and a rank in degree 0, which
    # reduces delta_0 alone, before Betti numbers that need delta_1
    for order in (("betti", 0, 1), (0, "betti", 1)):
        src, dst, vertex_map = circle_bonding()
        for step, f in itertools.product(order, fields):
            if step == "betti":
                assert [H.betti_numbers(cx, 1, f).betti for cx in (src, dst)] \
                    == [want_betti[0, f], want_betti[1, f]]
            else:
                assert H.induced_rank(src, dst, vertex_map, step, f) \
                    == want_rank[step, f]
    # the Betti numbers over Z fill the one record over Z and Q: the rank
    # over Z, which is the rank over Q, and the Betti numbers over Q then
    # reduce nothing
    src, dst, vertex_map = circle_bonding()
    for cx in (src, dst):
        H.betti_numbers(cx, 1, "z")
    reduced = []
    column, elder_rule = H._coboundary_column, H._elder_rule

    def spy_column(cofaces, s):
        reduced.append(s)
        return column(cofaces, s)

    def spy_elder_rule(cx):
        reduced.append(cx)
        return elder_rule(cx)

    monkeypatch.setattr(H, "_coboundary_column", spy_column)
    monkeypatch.setattr(H, "_elder_rule", spy_elder_rule)
    assert H.induced_rank(src, dst, vertex_map, 1, "z") == want_rank[1, "q"]
    assert [H.betti_numbers(cx, 1, "q").betti for cx in (src, dst)] == \
        [want_betti[0, "q"], want_betti[1, "q"]]
    assert reduced == []
    # the spies see the reduction of a fresh complex: delta_0, then the
    # columns of delta_1
    fresh = circle_bonding()[0]
    assert H.betti_numbers(fresh, 1, "q").betti == want_betti[0, "q"]
    assert reduced[0] is fresh and len(reduced) > 1


# edges and triangles on 7 vertices give nonzero ranks on H_1; the examples
# give them on H_2
SIMPLEX = st.sets(st.integers(0, 6), min_size=2, max_size=3)
FACES = st.lists(SIMPLEX, min_size=1, max_size=10)
EXTRA = st.lists(SIMPLEX, max_size=6)
IMAGES = st.lists(st.integers(0, 6), min_size=7, max_size=7)
RP2_FACES = [set(t) for t in RP2_TRIANGLES]
SPHERE_FACES = [set(t) for t in sphere_2().simplices(2)]
SWAP = [1, 0, 2, 3, 4, 5, 6]


def mapped_complexes(faces, images, extra):
    """A complex on faces, a vertex map and a target complex on the images
    of faces plus extra.  A vertex map is simplicial into any complex that
    holds the images of the source's simplices."""
    src = S.SimplicialComplex(faces)
    vertex_map = dict(enumerate(images))
    dst = S.SimplicialComplex(list(extra) + [{vertex_map[v] for v in s}
                                             for s in faces])
    return src, dst, vertex_map


def _outcome(fn, *args):
    try:
        return fn(*args)
    except H.HomologyError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattice_maps(),
                 st.builds(mapped_complexes, FACES, IMAGES, EXTRA)),
       st.randoms(use_true_random=False))
@example(mapped_complexes(RP2_FACES, [0, 0, 1, 1, 2, 2, 3], []),
         random.Random(0))
@example(moved_lattice(PUNCTURED_SQUARE, 2, [[0, 1, 1, 1, 2]] * 2),
         random.Random(1))
def test_chain_map_equals_the_per_simplex_oracle(case, rng):
    # the batched chain map against one sort and one lookup per simplex:
    # every column and drawn columns with repeats, into dst and into its
    # skeleton below k, where both must name the same first missing image
    src, dst, vertex_map = case
    for k in range(src.dimension + 2):
        n = len(src.simplices(k))
        columns = [rng.randrange(n) for _ in range(rng.randint(0, n))]
        skeleton = S.SimplicialComplex([s for s in dst.all_simplices()
                                        if len(s) <= k])
        for target, cols in [(dst, None), (dst, columns), (skeleton, None),
                             (skeleton, columns)]:
            assert _outcome(H.chain_map, src, target, vertex_map, k, cols) \
                == _outcome(oracles.chain_map, src, target, vertex_map, k,
                            cols)


@settings(max_examples=60, deadline=None)
@given(FACES, IMAGES, EXTRA, st.sampled_from([None, 2, 3]))
@example(RP2_FACES, list(range(7)), [], 2)
@example(RP2_FACES, list(range(7)), [], 3)
@example(RP2_FACES, list(range(7)), [], None)
@example(SPHERE_FACES, SWAP, [], None)
def test_induced_map_rank_matches_three_rank_oracle(faces, images, extra, p):
    src, dst, vertex_map = mapped_complexes(faces, images, extra)
    for k in range(4):
        args = (dst.boundary_sparse(k + 1), H.chain_map(src, dst, vertex_map, k),
                src.boundary_sparse(k), len(dst.simplices(k)))
        assert L.induced_map_rank(*args, p=p) == \
            induced_map_rank_three_ranks(*args, p=p)


@settings(max_examples=60, deadline=None)
@given(FACES, IMAGES, EXTRA)
@example(RP2_FACES, list(range(7)), [])
@example(SPHERE_FACES, SWAP, [])
def test_homology_bases_give_betti_numbers_and_induced_ranks(faces, images, extra):
    src, dst, vertex_map = mapped_complexes(faces, images, extra)
    for k in range(3):
        for cx in (src, dst):
            basis = H.homology_basis_of(cx, k)
            assert basis.betti == uncollapsed_homology(cx, k, "q")[0][k]
            # each representative has the unit vector as its coordinates
            for i, z in enumerate(basis.reps):
                assert basis.express(z) == [int(i == j) for j in range(basis.betti)]
            # no k-cycle or k-boundary has its lowest entry on simplex 0
            if k and cx.simplices(k):
                with pytest.raises(ValueError, match="not a cycle"):
                    basis.express({0: 1})
        # the induced matrix, its columns scaled to integers, has the rank
        # of the block reduction
        columns = zip(*H.induced_matrix(src, dst, vertex_map, k))
        scaled = []
        for col in columns:
            scale = math.lcm(*(x.denominator for x in col))
            scaled.append({i: int(x * scale) for i, x in enumerate(col) if x})
        assert L.rank_q(scaled) == L.induced_map_rank(
            dst.boundary_sparse(k + 1), H.chain_map(src, dst, vertex_map, k),
            src.boundary_sparse(k), len(dst.simplices(k)))


def test_induced_matrix_rotation_is_identity_class():
    cx = hollow_triangle()
    mat = H.induced_matrix(cx, cx, {0: 1, 1: 2, 2: 0}, k=1)
    assert len(mat) == 1 and len(mat[0]) == 1
    assert abs(mat[0][0]) == 1


def test_induced_matrix_degree_two_cover_style():
    # wrap a hexagon twice around a triangle: degree 2 on H_1
    hexa = S.SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
    tri = hollow_triangle()
    wrap = {i: i % 3 for i in range(6)}
    mat = H.induced_matrix(hexa, tri, wrap, k=1)
    assert abs(mat[0][0]) == 2


def test_component_count_oracle():
    pts = np.array([[0.0], [0.1], [5.0], [5.1], [9.0]])
    pw = np.abs(pts - pts.T)
    assert H.component_count(pw, 0.5) == 3
    assert H.component_count(pw, 6.0) == 1


def test_component_count_matches_betti_zero_cantor():
    for level in (1, 2, 3, 4):
        s = M.cantor_sample(level)
        thr = 4 * s.epsilon
        cx = S.vietoris_rips(s.pairwise(), thr, max_dim=1)
        b0 = H.betti_numbers(cx, k_max=0).betti[0]
        assert b0 == H.component_count(s.pairwise(), thr)
