import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fintop import finite_space as F
from fintop import homology as H
from fintop import linalg as L
from fintop import metric as M
from fintop import simplicial as S

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


def uncollapsed_homology(cx, k_max, field_spec):
    """(Betti numbers, torsion) from the ranks of the boundaries of cx
    itself, without collapses: the oracle for betti_numbers."""
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=3, max_size=4),
                min_size=1, max_size=10),
       st.sampled_from(["q", "p:2", "z"]))
@example([set(t) for t in RP2_TRIANGLES], "z")
@example([set(t) for t in RP2_TRIANGLES], "p:2")
def test_betti_after_collapse_equals_uncollapsed(faces, field_spec):
    # triangles and tetrahedra on at most 7 vertices; collapses keep homology
    cx = S.SimplicialComplex(faces)
    r = H.betti_numbers(cx, 3, field_spec)
    assert (r.betti, r.torsion) == uncollapsed_homology(cx, 3, field_spec)


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
